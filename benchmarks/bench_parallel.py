"""M6 — parallel shard execution.

**Parallel shards.** A 500-update stream that is ~90% shard-local (the
profile the fence scheduler is built for) runs through a single
:class:`~repro.core.session.CheckSession`, a serial
:class:`~repro.distributed.sharded.ShardedChecker`, and a parallel one
(4 shards x 4 workers).  Every configuration pays the same simulated
per-update storage latency (a ``CheckSession`` subclass that sleeps
before processing — sleeping releases the GIL, which is exactly the
regime the thread pool targets: I/O-bound per-shard work, not Python
compute).  Verdicts and final state must be byte-identical across all
three; the parallel run must be at least 2x faster than the serial
sharded run in the full configuration.  Fences and parallel segments
are reported — the speedup claim is meaningless without showing how
often the scheduler had to serialize.

Runs as a pytest-benchmark file (``pytest benchmarks/bench_parallel.py``)
or as a script::

    python benchmarks/bench_parallel.py [--quick] [--shards N]
        [--parallel N] [--json PATH]

The script writes a ``BENCH_parallel.json`` artifact with the headline
numbers for CI archiving.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.core.session import CheckSession
from repro.constraints.constraint import Constraint, ConstraintSet
from repro.datalog.database import Database
from repro.distributed.sharded import ShardedChecker
from repro.distributed.site import FederatedDatabase, Site
from repro.updates.update import Deletion, Insertion

try:
    from _tables import print_table
except ImportError:  # running as a script from the repo root
    from benchmarks._tables import print_table

#: shard-local predicates (one cycle constraint each)
SHARD_LOCAL = tuple(f"p{i}" for i in range(8))
#: two predicates joined by one spanning constraint — their updates fence
SPANNING = ("span_a", "span_b")
#: remote-guarded predicate; escalates but does NOT fence (its site-local
#: footprint stays inside its owning shard)
REMOTE_GUARDED = "rq"
ALL_LOCAL = SHARD_LOCAL + SPANNING + (REMOTE_GUARDED,)

#: simulated per-update storage latency (seconds); sleeps release the
#: GIL, so per-shard work overlaps on the pool even on one core
STORAGE_LATENCY = 0.008
STORAGE_LATENCY_QUICK = 0.004


class StorageLatencySession(CheckSession):
    """A check session whose every update pays a fixed storage latency.

    Injected into *all* configurations via ``session_factory`` so the
    serial and parallel runs are charged identically; the parallel win
    comes purely from overlapping the waits.
    """

    latency = STORAGE_LATENCY

    def process(self, update, *args, **kwargs):
        time.sleep(self.latency)
        return super().process(update, *args, **kwargs)


def build_constraints() -> ConstraintSet:
    constraints = [
        Constraint(f"panic :- {p}(X, Y) & {p}(Y, X)", f"cycle-{p}")
        for p in SHARD_LOCAL
    ]
    constraints.append(
        Constraint("panic :- span_a(X, Y) & span_b(Y, X)", "spanning-pair")
    )
    constraints.append(
        Constraint(f"panic :- {REMOTE_GUARDED}(X, Y) & rem(Y)", "remote-guard")
    )
    return ConstraintSet(constraints)


def build_workload(num_updates: int, seed: int = 13, domain: int = 40):
    """~90% shard-local stream: 90% p0..p7, 5% spanning, 5% remote-guarded."""
    rng = random.Random(seed)
    local = Database({p: [] for p in ALL_LOCAL})
    facts = {p: set() for p in ALL_LOCAL}
    for _ in range(domain):
        p = rng.choice(SHARD_LOCAL)
        fact = (rng.randrange(domain), rng.randrange(domain))
        if fact[0] != fact[1] and (fact[1], fact[0]) not in facts[p]:
            local.insert(p, fact)
            facts[p].add(fact)
    updates = []
    for _ in range(num_updates):
        roll = rng.random()
        if roll < 0.90:
            p = rng.choice(SHARD_LOCAL)
        elif roll < 0.95:
            p = rng.choice(SPANNING)
        else:
            p = REMOTE_GUARDED
        if rng.random() < 0.8 or not facts[p]:
            fact = (rng.randrange(domain), rng.randrange(domain))
            updates.append(Insertion(p, fact))
            facts[p].add(fact)
        else:
            victim = rng.choice(sorted(facts[p]))
            updates.append(Deletion(p, victim))
            facts[p].discard(victim)
    remote = Database({"rem": [(i,) for i in range(0, domain, 9)]})
    return local, remote, updates


def make_sites(local: Database, remote: Database) -> FederatedDatabase:
    return FederatedDatabase(
        local=Site("local", local),
        remotes=[Site("remote", remote)],
        local_predicates=set(ALL_LOCAL),
    )


def verdict_key(reports):
    return tuple((r.constraint_name, r.outcome.name, r.level.name) for r in reports)


def db_state(db: Database):
    return {p: sorted(db.facts(p)) for p in db.predicates() if db.facts(p)}


def make_factory(latency: float):
    session_cls = type(
        "TunedStorageLatencySession",
        (StorageLatencySession,),
        {"latency": latency},
    )
    return session_cls


def run_single(constraints, local, remote, updates, latency):
    sites = make_sites(local, remote)
    session = make_factory(latency)(
        constraints, set(ALL_LOCAL), local_db=sites.local.unmetered()
    )
    t0 = time.perf_counter()
    verdicts = [
        verdict_key(session.process(u, remote=sites.remotes["remote"].snapshot))
        for u in updates
    ]
    return {
        "verdicts": verdicts,
        "state": db_state(session.local_db),
        "seconds": time.perf_counter() - t0,
    }


def run_sharded(constraints, local, remote, updates, shards, parallelism,
                latency):
    checker = ShardedChecker(
        constraints,
        make_sites(local, remote),
        shards=shards,
        parallelism=parallelism,
        session_factory=make_factory(latency),
    )
    t0 = time.perf_counter()
    results = checker.check_stream(updates)
    elapsed = time.perf_counter() - t0
    return {
        "verdicts": [verdict_key(r) for r in results],
        "state": db_state(checker.local_database()),
        "seconds": elapsed,
        "stats": checker.stats,
    }


def run_parallel_experiment(quick: bool, shards: int, parallelism: int):
    num_updates = 120 if quick else 500
    latency = STORAGE_LATENCY_QUICK if quick else STORAGE_LATENCY
    constraints = build_constraints()
    local, remote, updates = build_workload(num_updates)

    single = run_single(constraints, local.copy(), remote.copy(), updates,
                        latency)
    serial = run_sharded(constraints, local.copy(), remote.copy(), updates,
                         shards, 1, latency)
    parallel = run_sharded(constraints, local.copy(), remote.copy(), updates,
                           shards, parallelism, latency)

    assert serial["verdicts"] == single["verdicts"], (
        "serial sharded verdicts diverged from the single session"
    )
    assert parallel["verdicts"] == serial["verdicts"], (
        "parallel verdicts diverged from the serial sharded checker"
    )
    assert parallel["state"] == serial["state"] == single["state"], (
        "final states diverged"
    )
    speedup = serial["seconds"] / parallel["seconds"]
    floor = 1.3 if quick else 2.0
    assert speedup >= floor, (
        f"parallel speedup {speedup:.2f}x below the {floor}x floor "
        f"({serial['seconds']:.3f}s serial vs {parallel['seconds']:.3f}s "
        f"at {parallelism} workers)"
    )

    stats = parallel["stats"]
    rows = [
        ("single session", f"{single['seconds']:.3f}", "-", "-", "-"),
        (f"sharded x{shards}, serial", f"{serial['seconds']:.3f}", "-", "-",
         "1.00x"),
        (
            f"sharded x{shards}, {parallelism} workers",
            f"{parallel['seconds']:.3f}",
            stats.parallel_segments,
            stats.fences,
            f"{speedup:.2f}x",
        ),
    ]
    print_table(
        "M6a — parallel shard execution (identical verdicts, simulated "
        f"{latency * 1000:.0f}ms storage latency)",
        ["configuration", "wall (s)", "segments", "fences", "speedup"],
        rows,
    )
    return {
        "updates": num_updates,
        "shards": shards,
        "parallelism": parallelism,
        "storage_latency_ms": latency * 1000,
        "verdicts_identical": True,
        "state_identical": True,
        "single_seconds": round(single["seconds"], 4),
        "serial_seconds": round(serial["seconds"], 4),
        "parallel_seconds": round(parallel["seconds"], 4),
        "speedup": round(speedup, 3),
        "parallel_segments": stats.parallel_segments,
        "fences": stats.fences,
        "remote_round_trips": stats.remote_round_trips,
    }


def run_benchmark(quick: bool = False, shards: int = 4, parallelism: int = 4):
    return {
        "parallel_shards": run_parallel_experiment(quick, shards, parallelism),
    }


def test_m6_parallel(benchmark):
    result = run_benchmark(quick=False)
    assert result["parallel_shards"]["speedup"] >= 2.0
    constraints = build_constraints()
    local, remote, updates = build_workload(120)
    benchmark.pedantic(
        run_sharded,
        args=(constraints, local, remote, updates, 4, 4,
              STORAGE_LATENCY_QUICK),
        rounds=1,
        iterations=1,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration (same assertions, shorter stream, "
             "lower speedup floor)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard count (default 4)"
    )
    parser.add_argument(
        "--parallel", type=int, default=4,
        help="worker threads for the parallel run (default 4)",
    )
    parser.add_argument(
        "--json", default="BENCH_parallel.json", metavar="PATH",
        help="write the headline numbers to PATH (default BENCH_parallel.json)",
    )
    args = parser.parse_args(argv)
    result = run_benchmark(
        quick=args.quick, shards=args.shards, parallelism=args.parallel
    )
    with open(args.json, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
