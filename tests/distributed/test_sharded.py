"""Sharded check sessions: routing, classification, and equivalence.

The :class:`ShardedChecker` contract is *verdict equivalence*: for any
partition of the local site, any update stream, and either application
policy, the per-constraint outcomes and levels — and the final union
database — match a single unsharded :class:`CheckSession` over the
whole local site, including DEFERRED degradation and the global drain.
"""

import random

import pytest

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.outcomes import CheckLevel, Outcome
from repro.core.session import CheckSession
from repro.datalog.database import Database
from repro.distributed.sharded import (
    KeyRangePartitioner,
    PredicatePartitioner,
    ShardedChecker,
)
from repro.distributed.site import FederatedDatabase, Site
from repro.errors import RemoteUnavailableError
from repro.updates.update import Deletion, Insertion, Modification

CONSTRAINTS = ConstraintSet(
    [
        Constraint("panic :- p(X, Y) & p(Y, X)", "c_p"),
        Constraint("panic :- s(X, Y) & s(Y, X)", "c_s"),
        Constraint("panic :- p(X, Y) & q(Y, Z) & s(Z, X)", "c_span"),
        Constraint("panic :- q(X, Y) & rem(Y)", "c_rem"),
    ]
)
LOCAL = {"p", "q", "s", "t"}


def make_sites():
    return FederatedDatabase(
        local=Site("local", {pred: [] for pred in LOCAL}),
        remotes=[Site("remote", {"rem": [(99,), (3,)]})],
        local_predicates=LOCAL,
    )


def verdict_key(reports):
    return tuple((r.constraint_name, r.outcome.name, r.level.name) for r in reports)


def db_state(db):
    return {
        pred: sorted(db.facts(pred))
        for pred in db.predicates()
        if db.facts(pred)
    }


def random_stream(seed, count=120, domain=8):
    rng = random.Random(seed)
    updates, facts = [], {pred: set() for pred in LOCAL}
    for _ in range(count):
        pred = rng.choice(sorted(LOCAL))
        roll = rng.random()
        if roll < 0.7 or not facts[pred]:
            fact = (rng.randrange(domain), rng.randrange(domain))
            updates.append(Insertion(pred, fact))
            facts[pred].add(fact)
        elif roll < 0.85:
            fact = rng.choice(sorted(facts[pred]))
            updates.append(Deletion(pred, fact))
            facts[pred].discard(fact)
        else:
            old = rng.choice(sorted(facts[pred]))
            new = (old[0], rng.randrange(domain))
            updates.append(Modification(pred, old, new))
            facts[pred].discard(old)
            facts[pred].add(new)
    return updates


def single_session(sites, apply_on_unknown=True):
    return CheckSession(
        CONSTRAINTS,
        LOCAL,
        local_db=sites.local.unmetered(),
        apply_on_unknown=apply_on_unknown,
    )


class FlakyRemote:
    """A remote that fails its first N fetches, then heals."""

    def __init__(self, site, fail_first):
        self.site = site
        self.fail_first = fail_first
        self.calls = 0

    def __call__(self, predicates=None):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise RemoteUnavailableError("down")
        return self.site.snapshot(predicates=predicates)


class TestPartitioners:
    def test_round_robin_is_deterministic_and_balanced(self):
        part = PredicatePartitioner(3, {"a", "b", "c", "d", "e"})
        owners = {pred: part.owner(pred) for pred in "abcde"}
        assert owners == {"a": 0, "b": 1, "c": 2, "d": 0, "e": 1}
        assert part.owned_predicates({"a", "b", "c", "d", "e"}) == [
            {"a", "d"},
            {"b", "e"},
            {"c"},
        ]

    def test_unseen_predicate_gets_a_stable_slot(self):
        part = PredicatePartitioner(4)
        slot = part.owner("late")
        assert slot == PredicatePartitioner(4).owner("late")
        assert 0 <= slot < 4

    def test_key_range_routes_by_first_column(self):
        part = KeyRangePartitioner(3, {"p": [3, 6]}, LOCAL)
        assert part.owner("p", (0, 9)) == 0
        assert part.owner("p", (3, 0)) == 1
        assert part.owner("p", (7, 0)) == 2
        assert part.split_predicates == frozenset({"p"})
        # Non-split predicates still go whole, and every shard treats the
        # split one as peer data.
        assert all("p" not in owned for owned in part.owned_predicates(LOCAL))

    def test_key_range_validates_boundaries(self):
        with pytest.raises(ValueError):
            KeyRangePartitioner(3, {"p": [5]})
        with pytest.raises(ValueError):
            KeyRangePartitioner(3, {"p": [6, 3]})
        with pytest.raises(ValueError):
            KeyRangePartitioner(2, {"p": [5]}).owner("p")


class TestRouting:
    def test_updates_land_in_the_owning_shard(self):
        checker = ShardedChecker(CONSTRAINTS, make_sites(), shards=3)
        checker.process(Insertion("p", (1, 2)))
        index = checker.partitioner.owner("p", (1, 2))
        assert checker._shard_dbs[index].facts("p") == {(1, 2)}
        for other, db in enumerate(checker._shard_dbs):
            if other != index:
                assert not db.facts("p")

    def test_non_local_predicate_is_rejected(self):
        checker = ShardedChecker(CONSTRAINTS, make_sites(), shards=2)
        with pytest.raises(ValueError, match="non-local predicate"):
            checker.process(Insertion("rem", (1,)))

    def test_cross_shard_modification_is_decomposed(self):
        part = KeyRangePartitioner(2, {"p": [4]}, LOCAL)
        checker = ShardedChecker(CONSTRAINTS, make_sites(), partitioner=part)
        checker.process(Insertion("p", (1, 2)))
        reports = checker.process(Modification("p", (1, 2), (7, 2)))
        assert all(r.outcome is not Outcome.VIOLATED for r in reports)
        assert checker.local_database().facts("p") == {(7, 2)}
        assert not checker._shard_dbs[0].facts("p")
        assert checker._shard_dbs[1].facts("p") == {(7, 2)}
        assert checker.stats.cross_shard_modifications == 1
        assert checker.stats.updates == 2
        # shard_of still has no single answer for the moving fact.
        with pytest.raises(ValueError, match="across shards"):
            checker.shard_of(Modification("p", (7, 2), (1, 2)))
        # Same-shard modifications still run whole.
        checker.process(Modification("p", (7, 2), (7, 3)))
        assert checker.local_database().facts("p") == {(7, 3)}
        assert checker.stats.cross_shard_modifications == 1

    def test_cross_shard_modification_restores_old_fact_on_violation(self):
        # Inserting the new fact fires c_p against a sibling-shard fact;
        # the already-applied delete half must be rolled back so the
        # rejected modification leaves the database untouched.
        part = KeyRangePartitioner(2, {"p": [4]}, LOCAL)
        checker = ShardedChecker(CONSTRAINTS, make_sites(), partitioner=part)
        checker.process(Insertion("p", (1, 2)))
        checker.process(Insertion("p", (2, 7)))
        reports = checker.process(Modification("p", (1, 2), (7, 2)))
        assert any(r.outcome is Outcome.VIOLATED for r in reports)
        assert checker.local_database().facts("p") == {(1, 2), (2, 7)}
        assert checker.stats.rejected == 1

    def test_cross_shard_modification_in_stream_mode(self):
        part = KeyRangePartitioner(2, {"p": [4]}, LOCAL)
        checker = ShardedChecker(CONSTRAINTS, make_sites(), partitioner=part)
        results = checker.check_stream(
            [
                Insertion("p", (1, 2)),
                Modification("p", (1, 2), (7, 2)),
                Insertion("q", (7, 7)),
            ]
        )
        assert len(results) == 3
        assert checker.local_database().facts("p") == {(7, 2)}
        assert checker.stats.cross_shard_modifications == 1
        assert checker.stats.updates == 3

    def test_initial_contents_are_partitioned(self):
        sites = make_sites()
        sites.local.insert("p", (0, 1))
        sites.local.insert("p", (7, 1))
        part = KeyRangePartitioner(2, {"p": [4]}, LOCAL)
        checker = ShardedChecker(CONSTRAINTS, sites, partitioner=part)
        assert checker._shard_dbs[0].facts("p") == {(0, 1)}
        assert checker._shard_dbs[1].facts("p") == {(7, 1)}
        assert db_state(checker.local_database()) == {"p": [(0, 1), (7, 1)]}


class TestClassification:
    def test_shard_local_vs_spanning_vs_remote(self):
        checker = ShardedChecker(CONSTRAINTS, make_sites(), shards=3)
        placed = checker.shard_local_constraints()
        # p -> shard 0, q -> 1, s -> 2, t -> 0 (sorted round-robin).
        assert placed == {"c_p": 0, "c_s": 2}
        assert checker.spanning_constraints() == ("c_span",)
        assert checker.remote_constraints() == ("c_rem",)

    def test_one_shard_means_no_spanning(self):
        checker = ShardedChecker(CONSTRAINTS, make_sites(), shards=1)
        assert set(checker.shard_local_constraints()) == {"c_p", "c_s", "c_span"}
        assert checker.spanning_constraints() == ()

    def test_split_predicate_makes_its_constraints_spanning(self):
        part = KeyRangePartitioner(2, {"p": [4]}, LOCAL)
        checker = ShardedChecker(CONSTRAINTS, make_sites(), partitioner=part)
        assert "c_p" in checker.spanning_constraints()


class TestVerdictEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_per_update_equivalence(self, shards):
        updates = random_stream(seed=shards, count=150)
        ref_sites = make_sites()
        session = single_session(ref_sites)
        expected = [
            verdict_key(session.process(u, remote=ref_sites.remotes["remote"].snapshot))
            for u in updates
        ]
        checker = ShardedChecker(CONSTRAINTS, make_sites(), shards=shards)
        actual = [verdict_key(checker.process(u)) for u in updates]
        assert actual == expected
        assert db_state(checker.local_database()) == db_state(session.local_db)

    def test_key_range_equivalence(self):
        updates = random_stream(seed=99, count=150)
        ref_sites = make_sites()
        session = single_session(ref_sites)
        expected = [
            verdict_key(session.process(u, remote=ref_sites.remotes["remote"].snapshot))
            for u in updates
        ]
        part = KeyRangePartitioner(3, {"p": [3, 6]}, LOCAL)
        checker = ShardedChecker(CONSTRAINTS, make_sites(), partitioner=part)
        actual = [verdict_key(checker.process(u)) for u in updates]
        assert actual == expected
        assert db_state(checker.local_database()) == db_state(session.local_db)

    def test_check_stream_equivalence(self):
        updates = random_stream(seed=7, count=150)
        ref_sites = make_sites()
        session = single_session(ref_sites)
        expected = [
            verdict_key(session.process(u, remote=ref_sites.remotes["remote"].snapshot))
            for u in updates
        ]
        checker = ShardedChecker(CONSTRAINTS, make_sites(), shards=3)
        results = checker.check_stream(updates)
        assert [verdict_key(r) for r in results] == expected
        assert db_state(checker.local_database()) == db_state(session.local_db)
        assert checker.stats.updates == len(updates)

    def test_pessimistic_policy_equivalence(self):
        updates = random_stream(seed=13, count=100)
        ref_sites = make_sites()
        session = single_session(ref_sites, apply_on_unknown=False)
        expected = [
            verdict_key(session.process(u, remote=ref_sites.remotes["remote"].snapshot))
            for u in updates
        ]
        checker = ShardedChecker(
            CONSTRAINTS, make_sites(), shards=3, apply_on_unknown=False
        )
        actual = [verdict_key(checker.process(u)) for u in updates]
        assert actual == expected
        assert db_state(checker.local_database()) == db_state(session.local_db)


class TestFaultsAndGlobalDrain:
    def drain(self, resolve, pending, rounds=100):
        settled = []
        for _ in range(rounds):
            if not pending():
                break
            settled.extend(resolve())
        return settled

    def run_single(self, updates, fail_first):
        sites = make_sites()
        remote = FlakyRemote(sites.remotes["remote"], fail_first)
        session = single_session(sites)
        verdicts = [verdict_key(session.process(u, remote=remote)) for u in updates]
        drained = [
            (str(entry.update), verdict_key(entry.ordered_reports(CONSTRAINTS)))
            for entry in self.drain(
                lambda: session.resolve_pending(remote),
                lambda: session.pending_count,
            )
        ]
        return verdicts, drained, db_state(session.local_db)

    def run_sharded(self, updates, fail_first, shards=3):
        sites = make_sites()
        remote = FlakyRemote(sites.remotes["remote"], fail_first)
        checker = ShardedChecker(CONSTRAINTS, sites, shards=shards)
        # Route escalations through the flaky callable instead of the
        # healthy site property.
        checker.__class__ = type(
            "FlakyShardedChecker",
            (ShardedChecker,),
            {"remote_source": property(lambda self: remote)},
        )
        verdicts = [verdict_key(checker.process(u)) for u in updates]
        drained = [
            (str(update), verdict_key(reports))
            for update, reports in self.drain(
                checker.resolve_pending, lambda: checker.pending_count
            )
        ]
        return checker, verdicts, drained, db_state(checker.local_database())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deferred_verdicts_and_drain_match_single_session(self, seed):
        updates = random_stream(seed=seed + 40, count=80)
        expected = self.run_single(updates, fail_first=8)
        _, *actual = self.run_sharded(updates, fail_first=8)
        assert tuple(actual) == expected
        deferred = sum(
            1 for key in expected[0] for _, outcome, _ in key
            if outcome == "DEFERRED"
        )
        assert deferred > 0, "scenario must exercise deferral"

    def test_drain_settles_globally_oldest_first(self):
        # Each insert escalates c_rem (no stored colleague witnesses
        # safety) against a down remote and is queued; the Y values 7-9
        # miss rem entirely while the last one hits rem(3).
        updates = [
            Insertion("q", (1, 7)),
            Insertion("q", (2, 8)),
            Insertion("q", (4, 9)),
            Insertion("q", (5, 3)),
        ]
        checker, verdicts, drained, _ = self.run_sharded(updates, fail_first=4)
        assert all(
            any(outcome == "DEFERRED" for _, outcome, _ in key)
            for key in verdicts
        )
        # The global drain settles strictly oldest-first on the shared
        # sequence clock, and the rem(3)-violating entry stays reversed.
        assert [update for update, _ in drained] == [str(u) for u in updates]
        assert db_state(checker.local_database())["q"] == [(1, 7), (2, 8), (4, 9)]
        assert checker.stats.deferred_resolved == 4
        assert checker.stats.rejected == 1
        assert checker.stats.deferred_rolled_back == 1
        assert checker.pending_count == 0

    def test_drain_interleaves_across_shard_queues(self):
        """Deferred entries in *different* shards still settle in global
        arrival order: the drain always picks the smallest head sequence
        number among the shard queues, not one queue at a time."""
        constraints = ConstraintSet(
            [
                Constraint("panic :- p(X, Y) & rem(Y)", "c_rp"),
                Constraint("panic :- q(X, Y) & rem(Y)", "c_rq"),
            ]
        )
        sites = make_sites()
        remote = FlakyRemote(sites.remotes["remote"], fail_first=4)
        checker = ShardedChecker(constraints, sites, shards=2)
        checker.__class__ = type(
            "FlakyShardedChecker",
            (ShardedChecker,),
            {"remote_source": property(lambda self: remote)},
        )
        assert (
            checker.partitioner.owner("p") != checker.partitioner.owner("q")
        ), "scenario needs the two queues on different shards"
        updates = [
            Insertion("p", (1, 7)),
            Insertion("q", (2, 8)),
            Insertion("p", (3, 9)),
            Insertion("q", (4, 6)),
        ]
        for update in updates:
            checker.process(update)
        assert checker.pending_count == 4
        assert [s.pending_count for s in checker.sessions] == [2, 2]
        settled = self.drain(
            checker.resolve_pending, lambda: checker.pending_count
        )
        assert [str(update) for update, _ in settled] == [str(u) for u in updates]

    def test_unreachable_remote_keeps_entries_queued(self):
        updates = [Insertion("q", (1, 7)), Insertion("q", (2, 8))]
        sites = make_sites()
        remote = FlakyRemote(sites.remotes["remote"], fail_first=10**9)
        checker = ShardedChecker(CONSTRAINTS, sites, shards=3)
        checker.__class__ = type(
            "FlakyShardedChecker",
            (ShardedChecker,),
            {"remote_source": property(lambda self: remote)},
        )
        for update in updates:
            checker.process(update)
        assert checker.pending_count == 2
        assert checker.resolve_pending() == []
        assert checker.pending_count == 2
        # The quarantine was rolled forward again: optimistic facts stay.
        assert db_state(checker.local_database())["q"] == [(1, 7), (2, 8)]


class TestTransactions:
    def test_abort_after_cross_shard_modification_restores_every_slice(self):
        part = KeyRangePartitioner(2, {"p": [4]}, LOCAL)
        checker = ShardedChecker(CONSTRAINTS, make_sites(), partitioner=part)
        checker.check_stream(
            [Insertion("p", (1, 2)), Insertion("s", (0, 1)), Insertion("q", (2, 5))]
        )
        before = [db_state(db) for db in checker._shard_dbs]
        committed, reports = checker.process_transaction(
            [
                Modification("p", (1, 2), (7, 2)),  # shard 0 -> shard 1
                Insertion("s", (2, 3)),
                Insertion("q", (9, 3)),  # c_rem: rem(3) is stored -> abort
            ]
        )
        assert not committed
        assert len(reports) == 3
        assert checker.stats.cross_shard_modifications == 1
        assert checker.stats.transactions_rolled_back == 1
        assert [db_state(db) for db in checker._shard_dbs] == before
        maintained = 0
        for session in checker.sessions:
            for name in session._materializations.keys():
                mat = session._materializations[name]
                fresh = checker.constraints[name].engine.materialize(
                    session.local_db
                )
                assert dict(mat._derived) == dict(fresh._derived), name
                maintained += 1
        assert maintained, "scenario must maintain a materialization"

    def test_commit_spans_shards(self):
        checker = ShardedChecker(CONSTRAINTS, make_sites(), shards=3)
        committed, _ = checker.process_transaction(
            [Insertion("p", (1, 2)), Insertion("s", (2, 3)), Insertion("q", (1, 7))]
        )
        assert committed
        assert db_state(checker.local_database()) == {
            "p": [(1, 2)], "q": [(1, 7)], "s": [(2, 3)]
        }
        assert checker.stats.transactions == 1
        assert checker.stats.transactions_rolled_back == 0

    def test_process_executor_refuses_transactions(self):
        with ShardedChecker(
            CONSTRAINTS, make_sites(), shards=2, executor="process"
        ) as checker:
            with pytest.raises(ValueError, match="thread executor"):
                checker.process_transaction([Insertion("p", (1, 2))])


class TestStatsAggregation:
    def test_gauges_sum_across_shards(self):
        updates = random_stream(seed=21, count=150)
        checker = ShardedChecker(CONSTRAINTS, make_sites(), shards=3)
        checker.check_stream(updates)
        per_shard = [s.stats for s in checker.sessions]
        assert checker.stats.updates == len(updates)
        assert checker.stats.incremental_deltas == sum(
            s.incremental_deltas for s in per_shard
        )
        assert checker.stats.materializations_built == sum(
            s.materializations_built for s in per_shard
        )
        assert checker.stats.peer_fetches == sum(
            s.peer_fetches for s in per_shard
        )
        assert checker.stats.peer_fetches > 0
        assert checker.stats.remote_round_trips == sum(
            s.remote_fetches for s in per_shard
        )
        # Every update lands in exactly one deciding-level bucket (a
        # rejection is also counted at its deciding level) or deferred.
        total = checker.stats
        assert (
            sum(total.resolved_at_level.values()) + total.deferred_remote
            == len(updates)
        )

    def test_sharding_reduces_summed_maintenance(self):
        """The headline win: per-shard maintenance passes touch only the
        shard's own materializations, so their sum stays strictly below
        a single session maintaining every constraint."""
        updates = random_stream(seed=5, count=200)
        ref_sites = make_sites()
        session = single_session(ref_sites)
        for update in updates:
            session.process(update, remote=ref_sites.remotes["remote"].snapshot)
        checker = ShardedChecker(CONSTRAINTS, make_sites(), shards=3)
        for update in updates:
            checker.process(update)
        assert (
            checker.stats.incremental_deltas
            < session.stats.incremental_deltas
        )


# -- property test: random partitions x streams x policies ---------------------

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional test dep
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @st.composite
    def update_streams(draw):
        count = draw(st.integers(min_value=1, max_value=40))
        updates = []
        facts = {pred: set() for pred in LOCAL}
        for _ in range(count):
            pred = draw(st.sampled_from(sorted(LOCAL)))
            fact = (
                draw(st.integers(min_value=0, max_value=5)),
                draw(st.integers(min_value=0, max_value=5)),
            )
            if facts[pred] and draw(st.booleans()) and draw(st.booleans()):
                victim = draw(st.sampled_from(sorted(facts[pred])))
                updates.append(Deletion(pred, victim))
                facts[pred].discard(victim)
            else:
                updates.append(Insertion(pred, fact))
                facts[pred].add(fact)
        return updates

    @given(
        updates=update_streams(),
        shards=st.integers(min_value=1, max_value=4),
        apply_on_unknown=st.booleans(),
        split_p=st.booleans(),
        parallelism=st.integers(min_value=1, max_value=3),
        mode=st.sampled_from(["process", "check_stream", "process_transaction"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_sharded_checker_equivalent_to_single_session(
        updates, shards, apply_on_unknown, split_p, parallelism, mode
    ):
        ref_sites = make_sites()
        session = single_session(ref_sites, apply_on_unknown=apply_on_unknown)
        remote = ref_sites.remotes["remote"].snapshot
        if mode == "process_transaction":
            committed, reports = session.process_transaction(updates, remote)
            expected = [verdict_key(r) for r in reports]
        else:
            expected = [verdict_key(session.process(u, remote=remote)) for u in updates]
        partitioner = (
            KeyRangePartitioner(shards, {"p": [3] * (shards - 1)}, LOCAL)
            if split_p and shards > 1
            else PredicatePartitioner(shards, LOCAL)
        )
        checker = ShardedChecker(
            CONSTRAINTS,
            make_sites(),
            partitioner=partitioner,
            apply_on_unknown=apply_on_unknown,
            parallelism=parallelism,
        )
        if mode == "check_stream":
            # Parallelism only engages in stream mode (fence-scheduled
            # thread pool); process() and transactions are always serial.
            actual = [verdict_key(r) for r in checker.check_stream(updates)]
        elif mode == "process":
            actual = [verdict_key(checker.process(u)) for u in updates]
        else:
            actual_committed, reports = checker.process_transaction(updates)
            assert actual_committed == committed
            actual = [verdict_key(r) for r in reports]
        assert actual == expected
        assert db_state(checker.local_database()) == db_state(session.local_db)
