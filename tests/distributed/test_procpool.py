"""Process-pool shard execution: verdict equivalence across the
process boundary.

The contract under test (DESIGN.md §11): ``ShardedChecker`` with
``executor="process"`` produces verdicts, final database state, and
protocol counters equivalent to the serial thread checker — the worker
processes rebuild their sessions from pure-data :class:`ShardConfig`
pickles, escalations bounce through the parent's link, and the drain is
parent-coordinated.  Detail strings embedding the link's *cumulative*
attempt counter are normalized before comparison: concurrent shard
drivers race for the counter in every parallel mode (thread pools
included), so the digits are scheduling noise, not protocol output.
"""

import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.core.session import PendingVerdict, SessionStats
from repro.datalog.database import Delta
from repro.distributed.procpool import ShardConfig
from repro.distributed.remote import FetchPolicy, RemoteLink
from repro.distributed.sharded import KeyRangePartitioner, ShardedChecker
from repro.errors import RemoteUnavailableError
from repro.updates.update import Deletion, Insertion, Modification

from tests.distributed.test_parallel import (
    CONSTRAINTS,
    KEY_CONSTRAINTS,
    KEY_LOCAL,
    LOCAL,
    db_state,
    make_sites,
    weighted_stream,
)


def verdicts_of(results):
    """Stream verdicts with scheduling-noise digits normalized away."""
    return [
        tuple(
            (r.constraint_name, r.outcome.name, r.level.name,
             re.sub(r"\d+", "N", r.detail))
            for r in reports
        )
        for reports in results
    ]


class SwitchRemote:
    """A remote the test can switch off and back on."""

    def __init__(self, site):
        self.site = site
        self.down = False
        self.calls = 0

    def snapshot(self, predicates=None):
        self.calls += 1
        if self.down:
            raise RemoteUnavailableError("switched off", sites=("remote",))
        return self.site.snapshot(predicates=predicates)


def serial_checker(**kwargs):
    return ShardedChecker(CONSTRAINTS, make_sites(), shards=2, **kwargs)


def process_checker(**kwargs):
    return ShardedChecker(
        CONSTRAINTS, make_sites(), shards=2, executor="process", **kwargs
    )


class TestExecutorValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            serial_checker(executor="fiber")

    def test_overlap_remote_needs_threads(self):
        link = RemoteLink(make_sites().remotes["remote"])
        try:
            with pytest.raises(ValueError, match="process boundary"):
                process_checker(
                    remote_links={"remote": link}, overlap_remote=True
                )
        finally:
            link.close()

    def test_session_factory_needs_threads(self):
        from repro.core.session import CheckSession

        with pytest.raises(ValueError, match="process boundary"):
            process_checker(session_factory=CheckSession)


class TestProcessEquivalence:
    """Serial-vs-process equivalence on mixed streams."""

    STATS = (
        "updates", "rejected", "deferred_remote", "deferred_resolved",
        "deferred_rolled_back", "remote_round_trips",
        "cross_shard_modifications", "materializations_built",
    )

    def stats_of(self, checker):
        return {name: getattr(checker.stats, name) for name in self.STATS}

    def test_healthy_remote_stream(self):
        # p/s fence (spanning), q escalates, t touches nothing: the
        # stream exercises slices, fences, bounces, and rejections.
        updates = weighted_stream(
            3, 120, [("p", 3), ("q", 2), ("s", 2), ("t", 3)]
        )
        base = serial_checker()
        base_results = base.check_stream(updates)
        with process_checker() as checker:
            results = checker.check_stream(updates)
            assert verdicts_of(results) == verdicts_of(base_results)
            assert db_state(checker.local_database()) == db_state(
                base.local_database()
            )
            assert self.stats_of(checker) == self.stats_of(base)
            assert checker.pending_count == base.pending_count == 0

    def test_key_range_slices(self):
        part_a = KeyRangePartitioner(2, {"hot": [3]}, KEY_LOCAL)
        part_b = KeyRangePartitioner(2, {"hot": [3]}, KEY_LOCAL)
        updates = weighted_stream(9, 150, [("hot", 7), ("b", 3)])
        base = ShardedChecker(
            KEY_CONSTRAINTS, make_sites(KEY_LOCAL), partitioner=part_a
        )
        base_results = base.check_stream(updates)
        checker = ShardedChecker(
            KEY_CONSTRAINTS, make_sites(KEY_LOCAL), partitioner=part_b,
            executor="process",
        )
        with checker:
            results = checker.check_stream(updates)
            assert verdicts_of(results) == verdicts_of(base_results)
            assert db_state(checker.local_database()) == db_state(
                base.local_database()
            )
            assert self.stats_of(checker) == self.stats_of(base)
            assert checker.stats.parallel_segments > 0

    def run_outage(self, executor):
        sites = make_sites()
        remote = SwitchRemote(sites.remotes["remote"])
        remote.down = True
        link = RemoteLink(
            remote, FetchPolicy(max_attempts=1, failure_threshold=10**9)
        )
        checker = ShardedChecker(
            CONSTRAINTS, sites, shards=2, remote_links={"remote": link},
            executor=executor,
        )
        updates = weighted_stream(
            17, 90, [("p", 2), ("q", 5), ("t", 3)]
        )
        with checker:
            verdicts = verdicts_of(checker.check_stream(updates))
            pending_mid = checker.pending_count
            remote.down = False
            settled = checker.resolve_pending()
            drained = sorted(
                repr((update, verdicts_of([reports])[0]))
                for update, reports in settled
            )
            return dict(
                verdicts=verdicts,
                pending_mid=pending_mid,
                drained=drained,
                state=db_state(checker.local_database()),
                pending_after=checker.pending_count,
                stats=self.stats_of(checker),
            )

    def test_outage_defers_then_drains(self):
        base = self.run_outage("thread")
        assert base["pending_mid"] > 0  # the outage really deferred
        assert base["pending_after"] == 0
        got = self.run_outage("process")
        assert got == base


class TestMigrateRange:
    def make_checker(self, executor):
        part = KeyRangePartitioner(2, {"hot": [50]}, KEY_LOCAL)
        return ShardedChecker(
            KEY_CONSTRAINTS, make_sites(KEY_LOCAL), partitioner=part,
            executor=executor,
        )

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_moves_facts_and_preserves_union(self, executor):
        checker = self.make_checker(executor)
        with checker:
            for key in (5, 20, 40, 60, 80):
                checker.process(Insertion("hot", (key, 1)))
            before = db_state(checker.local_database())
            moved = checker._migrate_range("hot", 0, 30, 0, 1)
            assert moved == 2  # keys 5 and 20
            assert db_state(checker.local_database()) == before
            assert checker._backend_contains(1, "hot", (5, 1))
            assert checker._backend_contains(1, "hot", (20, 1))
            assert not checker._backend_contains(0, "hot", (5, 1))
            # The moved slice still decides constraints: a duplicate key
            # with a larger reading violates c_uniq on the new shard.
            checker.partitioner.set_boundaries("hot", [0])
            reports = checker.process(Insertion("hot", (5, 2)))
            assert any(
                r.constraint_name == "c_uniq"
                and r.outcome is Outcome.VIOLATED
                for r in reports
            )


class TestPickleRoundTrip:
    """Everything that crosses the process boundary must survive a
    pickle round trip unchanged (the messages are pure data)."""

    facts = st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=5
    )

    @given(
        ins=st.dictionaries(st.sampled_from(["p", "q", "s"]), facts, max_size=3),
        dels=st.dictionaries(st.sampled_from(["p", "q", "s"]), facts, max_size=3),
    )
    def test_delta(self, ins, dels):
        delta = Delta(
            {k: set(map(tuple, v)) for k, v in ins.items()},
            {k: set(map(tuple, v)) for k, v in dels.items()},
        )
        clone = pickle.loads(pickle.dumps(delta))
        assert clone.insertions == delta.insertions
        assert clone.deletions == delta.deletions

    @given(
        seq=st.integers(1, 1000),
        applied=st.booleans(),
        outcome=st.sampled_from([Outcome.DEFERRED, Outcome.SATISFIED]),
        kind=st.sampled_from(["ins", "del", "mod"]),
    )
    def test_pending_verdict_without_future(self, seq, applied, outcome, kind):
        update = {
            "ins": Insertion("p", (1, 2)),
            "del": Deletion("p", (1, 2)),
            "mod": Modification("p", (1, 2), (3, 4)),
        }[kind]
        report = CheckReport(
            "c_p", outcome, CheckLevel.WITH_LOCAL_DATA,
            remote_accessed=False, detail="queued",
        )
        entry = PendingVerdict(
            seq=seq, update=update, unresolved=("c_p",),
            reports={"c_p": report}, applied=applied,
        )
        clone = pickle.loads(pickle.dumps(entry))
        assert clone == entry

    @given(
        values=st.lists(st.integers(0, 10**6), min_size=3, max_size=3)
    )
    def test_session_stats_snapshot(self, values):
        stats = SessionStats(
            updates=values[0], remote_fetches=values[1],
            deferred_remote=values[2],
        )
        assert pickle.loads(pickle.dumps(stats)) == stats

    def test_shard_config(self):
        config = ShardConfig(
            shard=1,
            constraint_sources=(("c_p", "panic :- p(X, Y) & p(Y, X)"),),
            site_predicates=frozenset({"p"}),
            local_predicates=frozenset({"p"}),
            peer_predicates=frozenset(),
            placement=(("rem", "remote"),),
            use_interval_datalog=False,
            apply_on_unknown=True,
            facts=(("p", ((1, 2), (3, 4))),),
        )
        assert pickle.loads(pickle.dumps(config)) == config


def _kill_workers(checker, shard=None):
    """SIGKILL the live worker process(es) behind the runner's pools."""
    import os
    import signal

    runner = checker._procpool
    shards = range(checker.shards) if shard is None else [shard]
    for index in shards:
        for pid in list(runner._pools[index]._processes):
            os.kill(pid, signal.SIGKILL)


class TestWorkerSupervision:
    """A dead shard worker is respawned, rehydrated, and retried — and a
    raw ``BrokenProcessPool`` never reaches the caller."""

    def test_dead_worker_surfaces_as_typed_error_not_broken_pool(self):
        # Regression: before supervision landed, killing a worker made
        # the next command escape as concurrent.futures' raw
        # BrokenProcessPool with no shard attribution.
        from repro.errors import ShardWorkerCrashed

        updates = weighted_stream(7, 12, [("p", 1), ("q", 1), ("t", 1)])
        with process_checker(max_worker_restarts=0) as checker:
            checker.check_stream(updates)
            _kill_workers(checker)
            with pytest.raises(ShardWorkerCrashed) as caught:
                checker.check_stream(updates)
            assert caught.value.shard in range(checker.shards)
            assert caught.value.last_seq >= 1
            assert "max_worker_restarts=0" in str(caught.value)

    def test_killed_worker_respawns_and_preserves_verdicts(self):
        updates = weighted_stream(
            3, 60, [("p", 3), ("q", 2), ("s", 2), ("t", 3)]
        )
        head, tail = updates[:30], updates[30:]
        base = serial_checker()
        base_results = base.check_stream(updates)
        with process_checker() as checker:
            results = checker.check_stream(head)
            _kill_workers(checker)
            results += checker.check_stream(tail)
            facts = db_state(checker.local_database())
        assert checker.stats.worker_restarts >= 1
        assert verdicts_of(results) == verdicts_of(base_results)
        assert facts == db_state(base.local_database())

    def test_single_dead_shard_only_charges_that_shard(self):
        updates = weighted_stream(9, 24, [("p", 2), ("q", 1), ("s", 2)])
        with process_checker() as checker:
            checker.check_stream(updates)
            _kill_workers(checker, shard=0)
            checker.check_stream(updates[:6])
            restarts = list(checker._procpool._restarts)
        assert restarts[0] >= 1
        assert restarts[1] == 0

    def test_budget_validated_at_construction(self):
        with pytest.raises(ValueError, match="non-negative"):
            serial_checker(max_worker_restarts=-1)
