"""Crash-point chaos injection: parsing, firing discipline, checker wiring.

The injector's contract: a :class:`CrashPoint` names one of the
well-known protocol locations (``KNOWN_CRASH_POINTS``) and fires on its
*occurrence*-th visit, exactly once — a resumed run walking past the
same point again must not re-crash.  Soft points raise
:class:`InjectedCrash` (a :class:`ReproError`, so the CLI exits 3); hard
points deliver a real ``SIGKILL``, calling ``pre_kill`` first so the
journal can make the crash boundary clean.
"""

import pytest

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.distributed.faults import (
    KNOWN_CRASH_POINTS,
    CrashInjector,
    CrashPoint,
    parse_crash_point,
)
from repro.distributed.rebalance import RebalancePolicy
from repro.distributed.remote import FetchPolicy, RemoteLink
from repro.distributed.sharded import KeyRangePartitioner, ShardedChecker
from repro.errors import InjectedCrash, ReproError
from repro.updates.update import Insertion

from tests.distributed.test_parallel import CONSTRAINTS, LOCAL, make_sites
from tests.distributed.test_rebalance import (
    CONSTRAINTS as HOT_CONSTRAINTS,
    LOCAL as HOT_LOCAL,
    SwitchRemote,
    skewed_stream,
)
from tests.distributed.test_rebalance import make_sites as make_hot_sites


class TestParseCrashPoint:
    @pytest.mark.parametrize("name", KNOWN_CRASH_POINTS)
    def test_bare_name_means_first_occurrence(self, name):
        assert parse_crash_point(name) == CrashPoint(name, 1, False)

    def test_occurrence_suffix(self):
        assert parse_crash_point("update:7") == CrashPoint("update", 7, False)

    def test_hard_flag_propagates(self):
        assert parse_crash_point("fence", hard=True).hard is True

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown crash point"):
            parse_crash_point("teardown")

    def test_garbage_occurrence_rejected(self):
        with pytest.raises(ValueError, match="POINT:N"):
            parse_crash_point("update:soon")

    def test_zero_occurrence_rejected(self):
        with pytest.raises(ValueError, match="occurrence"):
            CrashPoint("update", 0)


class TestCrashInjector:
    def test_soft_fires_on_nth_visit_exactly_once(self):
        injector = CrashInjector([CrashPoint("update", 3)])
        injector.hit("update")
        injector.hit("update")
        with pytest.raises(InjectedCrash) as caught:
            injector.hit("update")
        assert caught.value.name == "update"
        assert caught.value.occurrence == 3
        # the fourth visit — e.g. after a resume — passes silently
        injector.hit("update")
        assert injector.visits("update") == 4

    def test_injected_crash_is_a_repro_error(self):
        with pytest.raises(ReproError, match="injected crash at point"):
            CrashInjector([CrashPoint("fence")]).hit("fence")

    def test_unarmed_points_only_count(self):
        injector = CrashInjector([CrashPoint("fence")])
        injector.hit("update")
        injector.hit("mid-drain")
        assert injector.visits("update") == 1
        assert injector.visits("mid-drain") == 1
        assert injector.visits("fence") == 0

    def test_independent_points_each_fire(self):
        injector = CrashInjector(
            [CrashPoint("update", 1), CrashPoint("update", 3)]
        )
        with pytest.raises(InjectedCrash):
            injector.hit("update")
        injector.hit("update")
        with pytest.raises(InjectedCrash):
            injector.hit("update")

    def test_hard_point_kills_after_pre_kill(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.distributed.faults.os.kill",
            lambda pid, sig: calls.append(("kill", pid, sig)),
        )
        injector = CrashInjector([CrashPoint("update", hard=True)])
        injector.pre_kill = lambda: calls.append(("pre_kill",))
        # with os.kill stubbed out the soft raise underneath surfaces
        with pytest.raises(InjectedCrash):
            injector.hit("update")
        assert [c[0] for c in calls] == ["pre_kill", "kill"]
        import os as _os
        import signal as _signal

        assert calls[1][1:] == (_os.getpid(), _signal.SIGKILL)


class TestShardedCheckerChaos:
    """The checker visits its crash points at the documented moments."""

    def test_fence_point_fires_on_the_parallel_barrier(self):
        injector = CrashInjector([CrashPoint("fence")])
        partitioner = KeyRangePartitioner(2, {"p": [15]}, LOCAL)
        checker = ShardedChecker(
            CONSTRAINTS, make_sites(), partitioner=partitioner,
            parallelism=2, chaos=injector,
        )
        with checker:
            with pytest.raises(InjectedCrash, match="'fence'"):
                checker.check_stream(
                    [
                        Insertion("p", (1, 2)),
                        Insertion("q", (2, 3)),
                        Insertion("p", (20, 1)),
                    ]
                )
        assert injector.visits("fence") == 1

    def test_mid_drain_point_fires_after_quarantine(self):
        sites = make_hot_sites()
        remote = SwitchRemote(sites.remotes["remote"])
        remote.down = True
        link = RemoteLink(
            remote, FetchPolicy(max_attempts=1, failure_threshold=10**9)
        )
        injector = CrashInjector([CrashPoint("mid-drain")])
        checker = ShardedChecker(
            HOT_CONSTRAINTS, sites, shards=2, remote_links={"remote": link},
            chaos=injector,
        )
        with checker:
            checker.check_stream([Insertion("hot", (7, 10))])
            assert any(s._pending for s in checker.sessions)
            with pytest.raises(InjectedCrash, match="'mid-drain'"):
                checker.resolve_pending()
            # the point is spent: the re-drain goes through
            remote.down = False
            resolved = checker.resolve_pending()
        assert len(resolved) == 1

    def test_mid_rebalance_point_fires_inside_the_migration(self):
        injector = CrashInjector([CrashPoint("mid-rebalance")])
        partitioner = KeyRangePartitioner(2, {"hot": [50]}, HOT_LOCAL)
        checker = ShardedChecker(
            HOT_CONSTRAINTS, make_hot_sites(), partitioner=partitioner,
            rebalance=RebalancePolicy(
                interval=20, window=64, hot_factor=1.3, min_observations=16
            ),
            chaos=injector,
        )
        with checker:
            with pytest.raises(InjectedCrash, match="'mid-rebalance'"):
                checker.check_stream(skewed_stream(5, 120))
        assert injector.visits("mid-rebalance") == 1
