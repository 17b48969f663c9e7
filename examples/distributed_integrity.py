#!/usr/bin/env python3
"""Distributed integrity maintenance: the paper's motivating scenario.

A branch office owns its ``emp`` table; department policy (closed
departments, salary floors) lives at headquarters.  Every hire must
respect the global constraints, but a round trip to headquarters is
expensive — so the branch runs the partial-information pipeline and
escalates only when the local tests are inconclusive.

The script compares the protocol against a naive checker that asks
headquarters about every hire, across a sweep of workload "coverage"
rates (how often a hire resembles an existing colleague).

Run:  python examples/distributed_integrity.py
"""

from repro import employee_workload
from repro.core import CheckLevel
from repro.distributed import ShardedChecker


def run_protocol(covered_fraction: float, use_datalog: bool = False):
    workload = employee_workload(
        initial_employees=150,
        num_updates=120,
        covered_fraction=covered_fraction,
        seed=11,
    )
    checker = ShardedChecker(
        workload.constraints, workload.sites, shards=1,
        use_interval_datalog=use_datalog,
    )
    for update in workload.updates:
        checker.process(update)
    return workload, checker


def naive_cost(workload_factory_kwargs: dict) -> int:
    """The baseline: every update triggers a remote round trip."""
    workload = employee_workload(**workload_factory_kwargs)
    return len(workload.updates)


def main() -> None:
    print("constraints under maintenance:")
    workload, _ = run_protocol(0.5)
    for constraint in workload.constraints:
        print(f"  [{constraint.constraint_class.name}] {constraint.name}:")
        for rule in constraint.program:
            print(f"      {rule}")

    print("\ncoverage sweep (120 hires each):")
    header = (
        f"{'covered':>8s} {'local-resolved':>14s} {'remote trips':>12s} "
        f"{'naive trips':>11s} {'saved':>6s} {'rejected':>8s}"
    )
    print(header)
    print("-" * len(header))
    for covered in (0.0, 0.25, 0.5, 0.75, 0.9, 1.0):
        workload, checker = run_protocol(covered)
        stats = checker.stats
        naive = len(workload.updates)
        saved = naive - stats.remote_round_trips
        print(
            f"{covered:8.2f} {stats.resolved_locally:14d} "
            f"{stats.remote_round_trips:12d} {naive:11d} "
            f"{saved:6d} {stats.rejected:8d}"
        )

    print("\nper-level breakdown at coverage 0.75:")
    _, checker = run_protocol(0.75)
    for level in CheckLevel:
        print(f"  {str(level):32s} {checker.stats.resolved_at_level[level]:4d}")

    print("\nThe shape to notice: remote round trips fall linearly as the")
    print("workload becomes more locally coverable — the complete local")
    print("tests convert data locality into saved communication, which is")
    print("the paper's Section 1 motivation.")


if __name__ == "__main__":
    main()
