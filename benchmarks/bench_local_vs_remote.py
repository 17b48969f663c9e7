"""M1 — the motivating claim: local tests avoid remote access.

Runs the distributed checking protocol over the two workloads of
``repro.distributed.workload`` across a sweep of coverage rates, and
reports, per rate: updates resolved at each information level, remote
round trips versus the always-ask-naive baseline, and the invariant
check (the full database satisfies every constraint after each step).

Expected shape: remote round trips fall as coverage rises; the local
resolution rate tracks the coverage knob; zero ground-truth violations.
"""

from repro.core.outcomes import CheckLevel
from repro.distributed.sharded import ShardedChecker
from repro.distributed.workload import employee_workload, interval_workload

from _tables import print_table


def drive(workload):
    checker = ShardedChecker(workload.constraints, workload.sites, shards=1)
    for update in workload.updates:
        checker.process(update)
    assert workload.constraints.holds_all(workload.sites.ground_truth_database())
    return checker


def sweep(factory, name, updates=80):
    rows = []
    rates = []
    for covered in (0.0, 0.25, 0.5, 0.75, 1.0):
        workload = factory(num_updates=updates, covered_fraction=covered, seed=13)
        checker = drive(workload)
        stats = checker.stats
        naive = len(workload.updates)
        rows.append(
            (
                covered,
                stats.resolved_at_level[CheckLevel.WITH_UPDATE],
                stats.resolved_at_level[CheckLevel.WITH_LOCAL_DATA],
                stats.remote_round_trips,
                naive,
                naive - stats.remote_round_trips,
                stats.rejected,
            )
        )
        rates.append(stats.local_resolution_rate)
    print_table(
        f"M1 — {name}: remote access saved vs workload coverage ({updates} updates)",
        ["coverage", "lvl1", "lvl2 (local tests)", "remote trips",
         "naive trips", "saved", "rejected"],
        rows,
    )
    # Shape: monotone-ish improvement from low to high coverage.
    assert rates[-1] > rates[0]
    assert rows[-1][5] > rows[0][5]  # more saved at high coverage
    return rows


def test_m1_interval_workload(benchmark):
    sweep(interval_workload, "forbidden intervals")
    workload = interval_workload(num_updates=40, covered_fraction=0.75, seed=99)
    benchmark(drive, workload)


def test_m1_employee_workload(benchmark):
    sweep(employee_workload, "employees (CQC local tests)")
    workload = employee_workload(num_updates=40, covered_fraction=0.75, seed=99)
    benchmark(drive, workload)


def test_m1_datalog_path_equivalent(benchmark):
    """Running the Fig. 6.1 datalog tests in the protocol changes cost,
    never verdicts."""
    # Keep the local relation small: the faithful Fig. 6.1 program derives
    # O(n^2) intermediate intervals (see the F6.1 bench).
    fast = interval_workload(
        initial_intervals=12, num_updates=15, covered_fraction=0.6, seed=21
    )
    slow = interval_workload(
        initial_intervals=12, num_updates=15, covered_fraction=0.6, seed=21
    )
    checker_fast = ShardedChecker(fast.constraints, fast.sites, shards=1)
    checker_slow = ShardedChecker(
        slow.constraints, slow.sites, shards=1, use_interval_datalog=True
    )
    for update_fast, update_slow in zip(fast.updates, slow.updates):
        reports_fast = checker_fast.process(update_fast)
        reports_slow = checker_slow.process(update_slow)
        assert [r.outcome for r in reports_fast] == [r.outcome for r in reports_slow]
    assert (
        checker_fast.stats.remote_round_trips == checker_slow.stats.remote_round_trips
    )

    workload = interval_workload(
        initial_intervals=12, num_updates=10, covered_fraction=0.6, seed=22
    )
    checker = ShardedChecker(
        workload.constraints, workload.sites, shards=1,
        use_interval_datalog=True,
    )

    def run():
        for update in workload.updates:
            checker.process(update)

    benchmark.pedantic(run, rounds=1, iterations=1)
