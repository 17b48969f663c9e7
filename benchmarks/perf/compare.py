"""Compare two sets of benchmark runs, parent against change.

Usage, from the repository root::

    python3 benchmarks/perf/compare.py BASE.jsonl NEW.jsonl

Each file holds one JSON line per run, as ``run.py --record FILE``
appends them.  Runs pair up in file order per workload (run i of BASE
with run i of NEW), so record them alternating which side goes first.

For every workload and end-to-end metric the table gives each side's
median and quartiles over its runs, the change of the medians, the
pairs the change wins (ties count for neither) and a verdict:

* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — a side's run-to-run spread (quartile distance over
  median) is wider than the bound, and the runs do not separate (every
  run of one side better than every run of the other);
* ``gain`` — the change wins at least nine tenths of at least ten
  pairs, and the medians differ by more than the parent's quartile
  distance;
* ``same`` — otherwise.

Traced runs (``--trace 1``) print both sides' per-layer medians, which
show where a difference sits.  The exit code is 1 when any metric
regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """Runs by (workload, trace flag), in file order."""
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], record["trace"])].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: list[float], new: list[float], higher: bool, bound: float) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs compared)."""

    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    pairs = list(zip(base, new))
    wins = sum(better(n, b) for b, n in pairs)
    base_q1, base_median, base_q3 = quartiles(base)
    new_median = statistics.median(new)
    worse_by = (base_median - new_median if higher else new_median - base_median) / abs(base_median)
    if max(spread(base), spread(new)) > bound:
        if all(better(n, b) for n in new for b in base):
            return "gain", wins, len(pairs)
        if all(better(b, n) for n in new for b in base):
            return "regression", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "regression", wins, len(pairs)
    if (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and abs(new_median - base_median) > base_q3 - base_q1
    ):
        return "gain", wins, len(pairs)
    return "same", wins, len(pairs)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    base_runs, new_runs = load(argv[0]), load(argv[1])
    regressed = False
    header = (
        f"{'workload':<24} {'metric':<14} {'base median [q1, q3]':>30} "
        f"{'new median [q1, q3]':>30} {'change':>8} {'wins':>6}  verdict"
    )
    print(header)
    for workload in sorted({w for w, trace in base_runs if trace == 0}):
        base = base_runs[(workload, 0)]
        new = new_runs.get((workload, 0), [])
        if not new:
            print(f"{workload:<24} (no runs in {argv[1]})")
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            b = [run["metrics"][name]["value"] for run in base]
            n = [run["metrics"][name]["value"] for run in new]
            result, wins, pairs = verdict(b, n, metric["better"] == "higher", metric["bound"])
            regressed |= result == "regression"
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            print(
                f"{workload:<24} {name:<14} "
                f"{f'{bmed:.4g} [{bq1:.4g}, {bq3:.4g}]':>30} "
                f"{f'{nmed:.4g} [{nq1:.4g}, {nq3:.4g}]':>30} "
                f"{(nmed - bmed) / bmed:>+8.1%} {f'{wins}/{pairs}':>6}  {result}"
            )
        failed = sum(run["failed"] for run in new)
        if failed:
            regressed = True
            print(f"{workload:<24} {failed} wrong or missing verdicts in {argv[1]}")
    for workload in sorted({w for w, trace in base_runs if trace == 1}):
        base = base_runs[(workload, 1)]
        new = new_runs.get((workload, 1), [])
        if not new:
            continue
        print(f"\nper-layer medians, {workload} ({len(base)} base / {len(new)} new runs)")
        for metric in bench["per_layer"]:
            name = metric["name"]
            b = statistics.median(run["metrics"][name]["value"] for run in base)
            n = statistics.median(run["metrics"][name]["value"] for run in new)
            if b or n:
                print(f"  {name:<34} {b:>14.6g} {n:>14.6g}  {metric['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
