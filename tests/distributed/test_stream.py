"""Stream mode of the one-shard checker: incremental protocol equivalence.

Stream mode must produce the same verdicts and the same final local
state as the per-update protocol, while reporting materialization-reuse
and cache counters through ProtocolStats.
"""

from repro.core.engine import PartialInfoChecker
from repro.core.outcomes import Outcome
from repro.distributed.sharded import ShardedChecker
from repro.distributed.workload import employee_workload, interval_workload


def outcomes(reports):
    return [(r.outcome, r.level) for r in reports]


def per_update_protocol(workload):
    """The per-update protocol with no session code: the stateless
    :class:`PartialInfoChecker` over a copy of the local relations plus
    the remote site, each update applied by hand unless it is rejected.
    Returns the reports and the final local database."""
    sites = workload.sites
    checker = PartialInfoChecker(workload.constraints, sites.local_predicates)
    local = sites.local.unmetered().copy()
    (remote,) = sites.remotes.values()
    results = []
    for update in workload.updates:
        reports = checker.check(update, local, remote.unmetered())
        if not any(r.outcome is Outcome.VIOLATED for r in reports):
            local.apply(update.as_delta())
        results.append(reports)
    return results, local


class TestStreamEquivalence:
    def test_matches_per_update_protocol(self):
        for factory in (interval_workload, employee_workload):
            workload = factory(num_updates=40, covered_fraction=0.6, seed=11)
            expected, expected_local = per_update_protocol(workload)

            streaming = ShardedChecker(
                workload.constraints, workload.sites, shards=1
            )
            got = streaming.check_stream(workload.updates)

            assert [outcomes(r) for r in got] == [outcomes(r) for r in expected]
            assert streaming.local_database() == expected_local
            assert streaming.stats.remote_round_trips == sum(
                any(r.remote_accessed for r in reports) for reports in expected
            )
            assert streaming.stats.rejected == sum(
                any(r.outcome is Outcome.VIOLATED for r in reports)
                for reports in expected
            )

    def test_final_state_satisfies_constraints(self):
        workload = employee_workload(num_updates=50, covered_fraction=0.5, seed=5)
        checker = ShardedChecker(workload.constraints, workload.sites, shards=1)
        checker.check_stream(workload.updates)
        assert workload.constraints.holds_all(workload.sites.ground_truth_database())


class TestStreamStats:
    def test_reuse_counters_populated(self):
        workload = employee_workload(num_updates=30, covered_fraction=0.7, seed=2)
        checker = ShardedChecker(workload.constraints, workload.sites, shards=1)
        checker.check_stream(workload.updates)
        stats = checker.stats
        assert stats.updates == 30
        assert stats.level1_cache_misses > 0
        rows = dict(stats.summary_rows())
        assert rows["materializations built"] == stats.materializations_built
        assert rows["level-1 cache misses"] == stats.level1_cache_misses

    def test_mixed_modes_stay_consistent(self):
        """Interleaving process() and check_stream() must keep the
        session's materializations in sync with the shared local site."""
        workload = employee_workload(num_updates=20, covered_fraction=0.6, seed=8)
        checker = ShardedChecker(workload.constraints, workload.sites, shards=1)
        first, rest = workload.updates[:10], workload.updates[10:]
        checker.check_stream(first)  # builds session state
        for update in rest[:5]:
            checker.process(update)  # direct path mutates the same site
        checker.check_stream(rest[5:])
        assert workload.constraints.holds_all(workload.sites.ground_truth_database())

    def test_rejections_do_not_corrupt_stream_state(self):
        workload = employee_workload(num_updates=40, covered_fraction=0.2, seed=9)
        checker = ShardedChecker(workload.constraints, workload.sites, shards=1)
        reports = checker.check_stream(workload.updates)
        rejected = sum(
            1 for rs in reports if any(r.outcome is Outcome.VIOLATED for r in rs)
        )
        assert rejected == checker.stats.rejected
        assert workload.constraints.holds_all(workload.sites.ground_truth_database())
