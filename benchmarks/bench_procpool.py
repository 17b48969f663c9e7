"""M8 — process-pool shard execution and live rebalancing.

Two experiments, both asserting verdict/state identity before reporting
any throughput number:

**Process-pool shards.** The M6 workload (a ~90% shard-local stream
with spanning fences and remote escalations) runs through a serial
:class:`~repro.distributed.sharded.ShardedChecker`, a thread-parallel
one, and one with ``executor="process"`` — each shard session rebuilt
inside its own worker process from a pure-data ``ShardConfig`` pickle.
Every configuration pays the same simulated per-update storage latency:
``CheckSession.process`` is wrapped with a sleep *before* the checkers
are built, so the fork-started workers inherit the wrapped method and
are charged identically to the parent-side runs.  Verdicts and final
state must be byte-identical across all three; the process run must be
at least 2x faster than the serial sharded run in the full
configuration (1.3x under ``--quick``, whose stream is too short to
amortize the pool).

**Live rebalancing under skew.** A key-range-partitioned stream whose
keys are 90% concentrated below the lowest cut collapses static
sharding: one worker's slice serializes nearly the whole segment while
the other three idle.  With ``rebalance=`` enabled the hot range is
split at its sampled median every interval — facts and pending entries
migrating across the process boundary under the fence — until the load
spreads, restoring the overlap.  Verdicts, final state, and the cut
history are reported; the rebalanced run must beat static sharding by
the configured floor while producing identical verdicts and state.

Runs as a pytest-benchmark file (``pytest benchmarks/bench_procpool.py``)
or as a script::

    python benchmarks/bench_procpool.py [--quick] [--shards N]
        [--json PATH]

The script writes a ``BENCH_procpool.json`` artifact with the headline
numbers for CI archiving.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
import time

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.session import CheckSession
from repro.datalog.database import Database
from repro.distributed.rebalance import RebalancePolicy
from repro.distributed.sharded import KeyRangePartitioner, ShardedChecker
from repro.distributed.site import FederatedDatabase, Site
from repro.updates.update import Insertion

try:
    from _tables import print_table
    from bench_parallel import (
        build_constraints,
        build_workload,
        db_state,
        make_sites,
        verdict_key,
    )
except ImportError:  # running as a script from the repo root
    from benchmarks._tables import print_table
    from benchmarks.bench_parallel import (
        build_constraints,
        build_workload,
        db_state,
        make_sites,
        verdict_key,
    )

#: simulated per-update storage latency (seconds); sleeps release the
#: GIL in thread mode and overlap trivially across worker processes
STORAGE_LATENCY = 0.008
STORAGE_LATENCY_QUICK = 0.004


@contextlib.contextmanager
def storage_latency(latency: float):
    """Charge every ``CheckSession.process`` call a fixed storage wait.

    Patching the class (rather than injecting a ``session_factory``,
    which the process executor rejects — live callables cannot cross the
    process boundary) makes the charge universal: the serial and
    thread-parallel runs pay it in this process, and worker processes
    forked *while the patch is active* inherit the wrapped method.
    """
    original = CheckSession.process

    def slowed(self, update, *args, **kwargs):
        time.sleep(latency)
        return original(self, update, *args, **kwargs)

    CheckSession.process = slowed
    try:
        yield
    finally:
        CheckSession.process = original


def run_checker(constraints, sites, updates, latency, **kwargs):
    """Build a checker under the latency patch, stream, and snapshot."""
    with storage_latency(latency):
        checker = ShardedChecker(constraints, sites, **kwargs)
        with checker:
            t0 = time.perf_counter()
            results = checker.check_stream(updates)
            elapsed = time.perf_counter() - t0
            return {
                "verdicts": [verdict_key(r) for r in results],
                "state": db_state(checker.local_database()),
                "seconds": elapsed,
                "rebalances": checker.stats.rebalances,
                "moved": checker.stats.rebalance_moved_facts,
                "cuts": {
                    predicate: checker.partitioner.boundaries(predicate)
                    for predicate in getattr(
                        checker.partitioner, "split_predicates", ()
                    )
                },
            }


def run_process_experiment(quick: bool, shards: int):
    num_updates = 120 if quick else 400
    latency = STORAGE_LATENCY_QUICK if quick else STORAGE_LATENCY
    constraints = build_constraints()
    local, remote, updates = build_workload(num_updates)

    serial = run_checker(
        constraints, make_sites(local.copy(), remote.copy()), updates,
        latency, shards=shards,
    )
    threaded = run_checker(
        constraints, make_sites(local.copy(), remote.copy()), updates,
        latency, shards=shards, parallelism=shards,
    )
    process = run_checker(
        constraints, make_sites(local.copy(), remote.copy()), updates,
        latency, shards=shards, executor="process",
    )

    assert threaded["verdicts"] == serial["verdicts"], (
        "thread-parallel verdicts diverged from the serial sharded checker"
    )
    assert process["verdicts"] == serial["verdicts"], (
        "process verdicts diverged from the serial sharded checker"
    )
    assert process["state"] == threaded["state"] == serial["state"], (
        "final states diverged"
    )
    speedup = serial["seconds"] / process["seconds"]
    floor = 1.3 if quick else 2.0
    assert speedup >= floor, (
        f"process speedup {speedup:.2f}x below the {floor}x floor "
        f"({serial['seconds']:.3f}s serial vs {process['seconds']:.3f}s "
        f"at {shards} worker processes)"
    )

    rows = [
        (f"sharded x{shards}, serial", f"{serial['seconds']:.3f}", "1.00x"),
        (
            f"sharded x{shards}, {shards} threads",
            f"{threaded['seconds']:.3f}",
            f"{serial['seconds'] / threaded['seconds']:.2f}x",
        ),
        (
            f"sharded x{shards}, {shards} processes",
            f"{process['seconds']:.3f}",
            f"{speedup:.2f}x",
        ),
    ]
    print_table(
        "M8a — process-pool shard execution (identical verdicts, simulated "
        f"{latency * 1000:.0f}ms storage latency)",
        ["configuration", "wall (s)", "speedup"],
        rows,
    )
    return {
        "updates": num_updates,
        "shards": shards,
        "storage_latency_ms": latency * 1000,
        "verdicts_identical": True,
        "state_identical": True,
        "serial_seconds": round(serial["seconds"], 4),
        "thread_seconds": round(threaded["seconds"], 4),
        "process_seconds": round(process["seconds"], 4),
        "process_speedup": round(speedup, 3),
    }


# -- live rebalancing under skew --------------------------------------

HOT = "hot"
SKEW_CONSTRAINTS = ConstraintSet(
    [Constraint(f"panic :- {HOT}(K, A) & A > 90", "cap")]
)
SKEW_POLICY = RebalancePolicy(
    interval=40, window=128, hot_factor=1.3, min_observations=32
)


def build_skewed_workload(num_updates: int, seed: int = 23):
    """90% of keys land below the lowest cut: shard 0 owns the stream."""
    rng = random.Random(seed)
    updates = []
    for _ in range(num_updates):
        if rng.random() < 0.9:
            key = rng.randrange(0, 25)
        else:
            key = rng.randrange(25, 100)
        updates.append(Insertion(HOT, (key, rng.randrange(0, 90))))
    return updates


def make_skew_sites() -> FederatedDatabase:
    return FederatedDatabase(
        local=Site("local", Database({HOT: []})),
        remotes=[Site("remote", Database({"rem": []}))],
        local_predicates={HOT},
    )


def run_rebalance_experiment(quick: bool, shards: int):
    num_updates = 120 if quick else 400
    latency = STORAGE_LATENCY_QUICK if quick else STORAGE_LATENCY
    updates = build_skewed_workload(num_updates)
    initial_cuts = [25 * (index + 1) for index in range(shards - 1)]

    def run(rebalance):
        return run_checker(
            SKEW_CONSTRAINTS, make_skew_sites(), updates, latency,
            partitioner=KeyRangePartitioner(
                shards, {HOT: list(initial_cuts)}, {HOT}
            ),
            executor="process",
            rebalance=rebalance,
        )

    static = run(None)
    rebalanced = run(SKEW_POLICY)

    assert rebalanced["verdicts"] == static["verdicts"], (
        "rebalanced verdicts diverged from static sharding"
    )
    assert rebalanced["state"] == static["state"], (
        "rebalanced final state diverged from static sharding"
    )
    assert rebalanced["rebalances"] > 0, "the skewed stream never rebalanced"
    assert rebalanced["cuts"][HOT] != tuple(initial_cuts), (
        "rebalancing reported success but the cuts never moved"
    )
    speedup = static["seconds"] / rebalanced["seconds"]
    floor = 1.1 if quick else 1.5
    assert speedup >= floor, (
        f"rebalanced speedup {speedup:.2f}x below the {floor}x floor "
        f"({static['seconds']:.3f}s static vs "
        f"{rebalanced['seconds']:.3f}s rebalanced)"
    )

    rows = [
        (
            "static cuts " + str(tuple(initial_cuts)),
            f"{static['seconds']:.3f}", 0, 0, "1.00x",
        ),
        (
            "rebalanced -> " + str(rebalanced["cuts"][HOT]),
            f"{rebalanced['seconds']:.3f}",
            rebalanced["rebalances"],
            rebalanced["moved"],
            f"{speedup:.2f}x",
        ),
    ]
    print_table(
        "M8b — live rebalancing under 90% key skew (identical verdicts, "
        f"{shards} worker processes, {latency * 1000:.0f}ms storage latency)",
        ["configuration", "wall (s)", "rebalances", "facts moved", "speedup"],
        rows,
    )
    return {
        "updates": num_updates,
        "shards": shards,
        "storage_latency_ms": latency * 1000,
        "verdicts_identical": True,
        "state_identical": True,
        "static_seconds": round(static["seconds"], 4),
        "rebalanced_seconds": round(rebalanced["seconds"], 4),
        "rebalance_speedup": round(speedup, 3),
        "rebalances": rebalanced["rebalances"],
        "facts_moved": rebalanced["moved"],
        "final_cuts": list(rebalanced["cuts"][HOT]),
    }


def run_benchmark(quick: bool = False, shards: int = 4):
    return {
        "process_shards": run_process_experiment(quick, shards),
        "rebalancing": run_rebalance_experiment(quick, shards),
    }


def test_m8_procpool_and_rebalance(benchmark):
    result = run_benchmark(quick=False)
    assert result["process_shards"]["process_speedup"] >= 2.0
    assert result["rebalancing"]["rebalances"] > 0
    constraints = build_constraints()
    local, remote, updates = build_workload(120)
    benchmark.pedantic(
        run_checker,
        args=(constraints, make_sites(local, remote), updates,
              STORAGE_LATENCY_QUICK),
        kwargs={"shards": 4, "executor": "process"},
        rounds=1,
        iterations=1,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration (same assertions, shorter stream, "
             "lower speedup floors)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard count (default 4)"
    )
    parser.add_argument(
        "--json", default="BENCH_procpool.json", metavar="PATH",
        help="write the headline numbers to PATH (default BENCH_procpool.json)",
    )
    args = parser.parse_args(argv)
    result = run_benchmark(quick=args.quick, shards=args.shards)
    with open(args.json, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
