"""Workload generator tests: determinism, initial consistency, knobs."""

from repro.distributed.sharded import ShardedChecker
from repro.distributed.workload import employee_workload, interval_workload


class TestIntervalWorkload:
    def test_deterministic(self):
        left = interval_workload(seed=5, num_updates=20)
        right = interval_workload(seed=5, num_updates=20)
        assert [u.values for u in left.updates] == [u.values for u in right.updates]
        assert left.sites.local.unmetered() == right.sites.local.unmetered()

    def test_initially_consistent(self):
        workload = interval_workload(seed=1)
        full = workload.sites.ground_truth_database()
        assert workload.constraints.holds_all(full)

    def test_update_predicate_is_local(self):
        workload = interval_workload(seed=1, num_updates=10)
        assert all(u.predicate in workload.local_predicates for u in workload.updates)

    def test_coverage_knob_moves_local_rate(self):
        rates = {}
        for covered in (0.1, 0.9):
            workload = interval_workload(
                seed=3, num_updates=60, covered_fraction=covered
            )
            checker = ShardedChecker(workload.constraints, workload.sites, shards=1)
            for update in workload.updates:
                checker.process(update)
            rates[covered] = checker.stats.local_resolution_rate
        assert rates[0.9] > rates[0.1]


class TestEmployeeWorkload:
    def test_initially_consistent(self):
        workload = employee_workload(seed=2)
        full = workload.sites.ground_truth_database()
        assert workload.constraints.holds_all(full)

    def test_two_constraints(self):
        workload = employee_workload(seed=2)
        assert len(workload.constraints) == 2

    def test_invariant_maintained_under_protocol(self):
        workload = employee_workload(seed=6, num_updates=40)
        checker = ShardedChecker(workload.constraints, workload.sites, shards=1)
        for update in workload.updates:
            checker.process(update)
            full = workload.sites.ground_truth_database()
            assert workload.constraints.holds_all(full)

    def test_coverage_knob(self):
        rates = {}
        for covered in (0.0, 1.0):
            workload = employee_workload(
                seed=8, num_updates=50, covered_fraction=covered
            )
            checker = ShardedChecker(workload.constraints, workload.sites, shards=1)
            for update in workload.updates:
                checker.process(update)
            rates[covered] = checker.stats.local_resolution_rate
        assert rates[1.0] > rates[0.0]


class TestBurstyWorkload:
    def make(self, **kwargs):
        from repro.distributed.workload import bursty_workload

        kwargs.setdefault("num_updates", 80)
        kwargs.setdefault("key_space", 30)
        kwargs.setdefault("initial_readings", 12)
        kwargs.setdefault("seed", 4)
        return bursty_workload(**kwargs)

    def test_deterministic(self):
        left, right = self.make(), self.make()
        assert [str(u) for u in left.updates] == [str(u) for u in right.updates]
        assert left.sites.local.unmetered() == right.sites.local.unmetered()

    def test_initially_consistent(self):
        workload = self.make()
        full = workload.sites.ground_truth_database()
        assert workload.constraints.holds_all(full)

    def test_update_predicate_is_local(self):
        workload = self.make()
        assert all(
            u.predicate in workload.local_predicates for u in workload.updates
        )

    def test_violation_clusters_reject_under_the_protocol(self):
        workload = self.make(
            num_updates=150, violation_cluster_rate=0.4, seed=9
        )
        checker = ShardedChecker(workload.constraints, workload.sites, shards=1)
        rejected = 0
        for update in workload.updates:
            reports = checker.process(update)
            rejected += any(r.outcome.name == "VIOLATED" for r in reports)
        assert rejected > 0
        # poisoned bursts never corrupt the database: the invariant
        # holds after the whole stream despite the violation clusters
        full = workload.sites.ground_truth_database()
        assert workload.constraints.holds_all(full)

    def test_coverage_knob_moves_local_rate(self):
        rates = {}
        for covered in (0.05, 0.95):
            workload = self.make(
                num_updates=120, covered_fraction=covered, seed=3
            )
            checker = ShardedChecker(workload.constraints, workload.sites, shards=1)
            for update in workload.updates:
                checker.process(update)
            rates[covered] = checker.stats.local_resolution_rate
        assert rates[0.95] > rates[0.05]

    def test_deletions_only_target_live_facts(self):
        from repro.updates.update import Deletion, Insertion

        workload = self.make(num_updates=200, deletion_rate=0.4, seed=7)
        live = set()
        local = workload.sites.local.unmetered()
        for predicate in local.predicates():
            for fact in local.facts(predicate):
                live.add((predicate, tuple(fact)))
        for update in workload.updates:
            key = (update.predicate, tuple(update.values))
            if isinstance(update, Deletion):
                assert key in live, f"deletion of a dead fact: {update}"
                live.discard(key)
            elif isinstance(update, Insertion):
                live.add(key)

    def test_bursts_concentrate_keys(self):
        workload = self.make(
            num_updates=300, burst_probability=0.5, hot_width=5, seed=2
        )
        from collections import Counter

        keys = Counter(u.values[0] for u in workload.updates)
        top_five = sum(count for _, count in keys.most_common(5))
        # a hot window of 5 keys should own well over a uniform share
        assert top_five / sum(keys.values()) > 5 / 30 * 2
