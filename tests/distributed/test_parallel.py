"""Parallel shard execution.

``ShardedChecker(parallelism=N)`` — the fence-scheduled thread pool must
produce verdicts, final state, and protocol counters identical to the
serial checker for any stream (fences are the only updates that
serialize; everything else may interleave freely across shards).
"""

import random

import pytest

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.session import CheckSession
from repro.distributed.sharded import (
    KeyRangePartitioner,
    PredicatePartitioner,
    ShardedChecker,
)
from repro.distributed.site import FederatedDatabase, Site
from repro.updates.update import Deletion, Insertion, Modification

# Mixed footprint set (mirrors test_sharded): p/q/s all appear in the
# spanning constraint, so their updates fence; t appears in none.
CONSTRAINTS = ConstraintSet(
    [
        Constraint("panic :- p(X, Y) & p(Y, X)", "c_p"),
        Constraint("panic :- s(X, Y) & s(Y, X)", "c_s"),
        Constraint("panic :- p(X, Y) & q(Y, Z) & s(Z, X)", "c_span"),
        Constraint("panic :- q(X, Y) & rem(Y)", "c_rem"),
    ]
)
LOCAL = {"p", "q", "s", "t"}

# Fence-friendly set: a and b are decidable inside their owning shard,
# c+d span two shards, and rloc escalates remotely but its site-local
# footprint stays confined — the remote-only case that must NOT fence.
FENCE_CONSTRAINTS = ConstraintSet(
    [
        Constraint("panic :- a(X, Y) & a(Y, X)", "c_a"),
        Constraint("panic :- b(X, Y) & b(Y, X)", "c_b"),
        Constraint("panic :- c(X, Y) & d(Y, X)", "c_cd"),
        Constraint("panic :- rloc(X, Y) & rem(Y)", "c_rem_only"),
    ]
)
FENCE_LOCAL = {"a", "b", "c", "d", "rloc"}

# Key-aligned set: every constraint touching the split predicate hot
# joins its atoms on one shared column-0 key variable, so a key-range
# shard's own slice decides the constraint and updates need no fence.
KEY_CONSTRAINTS = ConstraintSet(
    [
        Constraint("panic :- hot(K, A) & hot(K, B) & A < B", "c_uniq"),
        Constraint("panic :- hot(K, A) & A > 90", "c_cap"),
        Constraint("panic :- b(X, Y) & b(Y, X)", "c_b"),
    ]
)
KEY_LOCAL = {"hot", "b"}


def make_sites(local_predicates=LOCAL):
    return FederatedDatabase(
        local=Site("local", {pred: [] for pred in local_predicates}),
        remotes=[Site("remote", {"rem": [(99,), (3,)]})],
        local_predicates=local_predicates,
    )


def verdict_key(reports):
    return tuple((r.constraint_name, r.outcome.name, r.level.name) for r in reports)


def db_state(db):
    return {
        pred: sorted(db.facts(pred))
        for pred in db.predicates()
        if db.facts(pred)
    }


def weighted_stream(seed, count, weights, domain=7):
    """Insert/delete stream drawing predicates by weight (with a few
    same-shard modifications mixed in)."""
    rng = random.Random(seed)
    choices = [pred for pred, weight in weights for _ in range(weight)]
    facts = {pred: set() for pred, _ in weights}
    updates = []
    for _ in range(count):
        pred = rng.choice(choices)
        roll = rng.random()
        if roll < 0.7 or not facts[pred]:
            fact = (rng.randrange(domain), rng.randrange(domain))
            updates.append(Insertion(pred, fact))
            facts[pred].add(fact)
        elif roll < 0.9:
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


class TestConstruction:
    def test_parallelism_must_be_positive(self):
        with pytest.raises(ValueError, match="parallelism"):
            ShardedChecker(CONSTRAINTS, make_sites(), parallelism=0)


class TestFenceClassification:
    """The fence rule: an update runs concurrently iff every non-subsumed
    constraint touching its predicate keeps its site-local footprint
    inside the owning shard."""

    def make_checker(self, partitioner=None, **kwargs):
        return ShardedChecker(
            FENCE_CONSTRAINTS,
            make_sites(FENCE_LOCAL),
            shards=2,
            partitioner=partitioner,
            **kwargs,
        )

    def test_shard_local_predicates_do_not_fence(self):
        checker = self.make_checker()
        # Round-robin over sorted(FENCE_LOCAL): a->0, b->1, c->0, d->1.
        assert checker._requires_fence(0, "a") is False
        assert checker._requires_fence(1, "b") is False

    def test_spanning_constraints_fence(self):
        checker = self.make_checker()
        assert checker._requires_fence(0, "c") is True
        assert checker._requires_fence(1, "d") is True

    def test_remote_only_constraint_does_not_fence(self):
        # c_rem_only escalates off-site, but its site-local part {rloc}
        # is confined to rloc's owning shard: the escalation merges
        # own-slice + remote and never reads a sibling shard.
        checker = self.make_checker()
        shard = checker.partitioner.owner("rloc")
        assert checker._requires_fence(shard, "rloc") is False

    def test_misaligned_split_predicates_fence(self):
        # c_a joins a(X, Y) with a(Y, X): the atoms disagree on the
        # column-0 key, so a split of a is not key-aligned and fences.
        part = KeyRangePartitioner(2, {"a": [4]}, FENCE_LOCAL)
        checker = self.make_checker(partitioner=part)
        assert checker.key_aligned == frozenset()
        assert checker._requires_fence(0, "a") is True
        assert checker._requires_fence(1, "a") is True

    def test_fence_cache_is_stable(self):
        checker = self.make_checker()
        assert checker._requires_fence(0, "a") is checker._requires_fence(0, "a")
        assert (0, "a") in checker._fence_cache


class TestKeyAlignedSplit:
    """Key-range splits whose constraints join on the range key are
    local to every shard: no union view, no fence, same verdicts."""

    def make_checker(self, cut=3, **kwargs):
        part = KeyRangePartitioner(2, {"hot": [cut]}, KEY_LOCAL)
        return ShardedChecker(
            KEY_CONSTRAINTS, make_sites(KEY_LOCAL), partitioner=part,
            **kwargs,
        )

    def test_alignment_detected_and_fence_free(self):
        checker = self.make_checker()
        assert checker.key_aligned == frozenset({"hot"})
        assert checker._requires_fence(0, "hot") is False
        assert checker._requires_fence(1, "hot") is False
        # hot is local to *every* session; nothing spans.
        for session in checker.sessions:
            assert "hot" in session.local_predicates
        assert checker.spanning_constraints() == ()

    def test_spanning_footprint_breaks_alignment(self):
        # mix joins the split predicate with b: the site-local part is
        # {mix, b}, so a shard's own slice cannot decide it.
        constraints = ConstraintSet(
            [Constraint("panic :- mix(K, A) & b(K, A)", "c_mix")]
        )
        part = KeyRangePartitioner(2, {"mix": [3]}, {"mix", "b"})
        checker = ShardedChecker(
            constraints, make_sites({"mix", "b"}), partitioner=part
        )
        assert checker.key_aligned == frozenset()
        assert checker._requires_fence(0, "mix") is True

    def test_unbound_negated_key_breaks_alignment(self):
        # The only neg literal's key comes from the remote atom, so the
        # absence test could probe keys a sibling shard owns.
        constraints = ConstraintSet(
            [Constraint("panic :- rem(K) & not neg(K, 1)", "c_neg")]
        )
        part = KeyRangePartitioner(2, {"neg": [3]}, {"neg"})
        checker = ShardedChecker(
            constraints, make_sites({"neg"}), partitioner=part
        )
        assert checker.key_aligned == frozenset()

    def test_positively_bound_negated_key_is_aligned(self):
        constraints = ConstraintSet(
            [Constraint("panic :- hot(K, A) & not hot(K, 0)", "c_zero")]
        )
        part = KeyRangePartitioner(2, {"hot": [3]}, {"hot"})
        checker = ShardedChecker(
            constraints, make_sites({"hot"}), partitioner=part
        )
        assert checker.key_aligned == frozenset({"hot"})

    def test_serial_sharded_matches_unsharded_session(self):
        updates = weighted_stream(7, 200, [("hot", 8), ("b", 2)])
        sites = make_sites(KEY_LOCAL)
        session = CheckSession(
            KEY_CONSTRAINTS, KEY_LOCAL, local_db=sites.local.unmetered()
        )
        expected = [
            verdict_key(session.process(u, remote=sites.remotes["remote"].snapshot))
            for u in updates
        ]
        checker = self.make_checker()
        actual = [verdict_key(r) for r in checker.check_stream(updates)]
        assert actual == expected
        assert db_state(checker.local_database()) == db_state(
            session.local_db
        )

    @pytest.mark.parametrize("seed", [8, 9])
    def test_parallel_matches_serial_without_fences(self, seed):
        updates = weighted_stream(seed, 200, [("hot", 8), ("b", 2)])
        serial = self.make_checker()
        expected = [verdict_key(r) for r in serial.check_stream(updates)]
        parallel = self.make_checker(parallelism=2)
        actual = [verdict_key(r) for r in parallel.check_stream(updates)]
        assert actual == expected
        assert db_state(parallel.local_database()) == db_state(
            serial.local_database()
        )
        # The whole point: a key-aligned hot stream never fences.
        assert parallel.stats.fences == 0
        assert parallel.stats.parallel_segments > 0


class TestParallelEquivalence:
    """Parallel check_stream == serial check_stream, byte for byte."""

    def run_stream(self, updates, parallelism,
                   constraints=CONSTRAINTS, local=LOCAL, shards=4):
        checker = ShardedChecker(
            constraints,
            make_sites(local),
            shards=shards,
            parallelism=parallelism,
        )
        results = checker.check_stream(updates)
        return [verdict_key(r) for r in results], checker

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("parallelism", [2, 4])
    def test_mixed_stream_matches_serial(self, seed, parallelism):
        weights = [("p", 2), ("q", 2), ("s", 2), ("t", 4)]
        updates = weighted_stream(seed, 150, weights)
        expected, serial = self.run_stream(updates, parallelism=1)
        actual, parallel = self.run_stream(updates, parallelism=parallelism)
        assert actual == expected
        assert db_state(parallel.local_database()) == db_state(
            serial.local_database()
        )
        assert serial.stats.parallel_segments == 0
        assert serial.stats.fences == 0
        # p/q/s all fence (spanning constraint); only t runs in segments.
        assert parallel.stats.fences > 0
        assert parallel.stats.parallel_segments > 0

    @pytest.mark.parametrize("seed", [3, 4])
    def test_shard_local_heavy_stream_matches_serial(self, seed):
        weights = [("a", 4), ("b", 4), ("rloc", 1), ("c", 1)]
        updates = weighted_stream(seed, 200, weights)
        expected, serial = self.run_stream(
            updates, 1, constraints=FENCE_CONSTRAINTS, local=FENCE_LOCAL,
            shards=2,
        )
        actual, parallel = self.run_stream(
            updates, 4, constraints=FENCE_CONSTRAINTS, local=FENCE_LOCAL,
            shards=2,
        )
        assert actual == expected
        assert db_state(parallel.local_database()) == db_state(
            serial.local_database()
        )
        assert parallel.stats.parallel_segments > 0

    def test_cross_shard_modifications_fence_in_parallel_mode(self):
        part = KeyRangePartitioner(2, {"c": [4]}, FENCE_LOCAL)
        checker = ShardedChecker(
            FENCE_CONSTRAINTS,
            make_sites(FENCE_LOCAL),
            partitioner=part,
            parallelism=2,
        )
        results = checker.check_stream(
            [
                Insertion("a", (1, 2)),
                Insertion("c", (1, 2)),
                Modification("c", (1, 2), (7, 2)),
                Insertion("b", (2, 1)),
            ]
        )
        assert len(results) == 4
        assert checker.stats.cross_shard_modifications == 1
        assert checker.stats.fences >= 2  # the split insert + the move
        assert db_state(checker.local_database())["c"] == [(7, 2)]


class TestStatsUnderParallelism:
    """Per-worker counter deltas are folded only at barriers, so every
    protocol counter must land exactly where the serial run puts it."""

    # Session-derived counters; the shared level-1 LRU's hit/miss split
    # is interleaving-dependent by design, so it is excluded.
    COUNTERS = (
        "updates",
        "rejected",
        "remote_round_trips",
        "peer_fetches",
        "deferred_unknown",
        "materializations_built",
        "materialization_reuses",
        "incremental_deltas",
        "cross_shard_modifications",
    )

    def test_parallel_counters_match_serial(self):
        weights = [("a", 6), ("b", 6), ("rloc", 2), ("c", 1), ("d", 1)]
        updates = weighted_stream(11, 300, weights)

        def run(parallelism):
            checker = ShardedChecker(
                FENCE_CONSTRAINTS,
                make_sites(FENCE_LOCAL),
                shards=2,
                parallelism=parallelism,
            )
            checker.check_stream(updates)
            return checker

        serial, parallel = run(1), run(4)
        for name in self.COUNTERS:
            assert getattr(parallel.stats, name) == getattr(
                serial.stats, name
            ), name
        assert parallel.stats.resolved_at_level == serial.stats.resolved_at_level
        assert parallel.stats.updates == len(updates)
        assert parallel.stats.parallel_segments > 0
