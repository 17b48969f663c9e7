"""M5 — sharded check sessions: partition the site, keep the verdicts.

Drives one 500-update mixed-predicate stream through a single
:class:`~repro.core.session.CheckSession` over the whole local site and
through a :class:`~repro.distributed.sharded.ShardedChecker` at 4
shards, asserting **byte-identical verdicts** (constraint, outcome,
level — per update, in order) and an identical final union database,
then reporting the maintenance-locality win: each shard's delta passes
touch only its own materializations, so the summed per-shard passes
stay strictly below the single session's.

The constraint mix exercises all three shard classes: per-predicate
cycle checks (shard-local fast path), one constraint spanning three
predicates (settled against the lazily built cross-shard union view),
and one needing the true remote site (escalates identically).

Runs as a pytest-benchmark file (``pytest benchmarks/bench_sharded.py``)
or as a script::

    python benchmarks/bench_sharded.py [--quick] [--shards N] [--json PATH]

The script writes a ``BENCH_sharded.json`` artifact with the headline
numbers for CI archiving.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.session import CheckSession
from repro.datalog.database import Database
from repro.distributed.sharded import ShardedChecker
from repro.distributed.site import FederatedDatabase, Site
from repro.updates.update import Deletion, Insertion, Modification

try:
    from _tables import print_table
except ImportError:  # running as a script from the repo root
    from benchmarks._tables import print_table

PREDICATES = tuple(f"p{i}" for i in range(6))


def build_constraints() -> ConstraintSet:
    constraints = [
        Constraint(f"panic :- {p}(X, Y) & {p}(Y, X)", f"cycle-{p}")
        for p in PREDICATES
    ]
    constraints.append(
        Constraint("panic :- p0(X, Y) & p1(Y, Z) & p2(Z, X)", "spanning-triangle")
    )
    constraints.append(Constraint("panic :- p3(X, Y) & rem(Y)", "remote-guard"))
    return ConstraintSet(constraints)


def build_workload(num_updates: int, seed: int = 7, domain: int = 40):
    """A seeded mixed stream plus the initial two-site database."""
    rng = random.Random(seed)
    local = Database({p: [] for p in PREDICATES})
    facts = {p: set() for p in PREDICATES}
    for _ in range(domain * 2):
        p = rng.choice(PREDICATES)
        fact = (rng.randrange(domain), rng.randrange(domain))
        if fact[0] != fact[1] and (fact[1], fact[0]) not in facts[p]:
            local.insert(p, fact)
            facts[p].add(fact)
    updates = []
    for _ in range(num_updates):
        p = rng.choice(PREDICATES)
        roll = rng.random()
        if roll < 0.65 or not facts[p]:
            fact = (rng.randrange(domain), rng.randrange(domain))
            updates.append(Insertion(p, fact))
            facts[p].add(fact)
        elif roll < 0.85:
            victim = rng.choice(sorted(facts[p]))
            updates.append(Deletion(p, victim))
            facts[p].discard(victim)
        else:
            old = rng.choice(sorted(facts[p]))
            new = (old[0], rng.randrange(domain))
            updates.append(Modification(p, old, new))
            facts[p].discard(old)
            facts[p].add(new)
    remote = Database({"rem": [(i,) for i in range(0, domain, 9)]})
    return local, remote, updates


def make_sites(local: Database, remote: Database) -> FederatedDatabase:
    return FederatedDatabase(
        local=Site("local", local),
        remotes=[Site("remote", remote)],
        local_predicates=set(PREDICATES),
    )


def verdict_key(reports):
    return tuple((r.constraint_name, r.outcome.name, r.level.name) for r in reports)


def db_state(db: Database):
    return {
        p: sorted(db.facts(p)) for p in db.predicates() if db.facts(p)
    }


def run_single(constraints, local, remote, updates):
    sites = make_sites(local, remote)
    session = CheckSession(
        constraints, set(PREDICATES), local_db=sites.local.unmetered()
    )
    t0 = time.perf_counter()
    verdicts = [
        verdict_key(session.process(u, remote=sites.remotes["remote"].snapshot))
        for u in updates
    ]
    elapsed = time.perf_counter() - t0
    return {
        "verdicts": verdicts,
        "state": db_state(session.local_db),
        "passes": session.stats.incremental_deltas,
        "seconds": elapsed,
        "stats": session.stats,
    }


def run_sharded(constraints, local, remote, updates, shards):
    checker = ShardedChecker(
        constraints, make_sites(local, remote), shards=shards
    )
    t0 = time.perf_counter()
    verdicts = [verdict_key(checker.process(u)) for u in updates]
    elapsed = time.perf_counter() - t0
    return {
        "verdicts": verdicts,
        "state": db_state(checker.local_database()),
        "passes": checker.stats.incremental_deltas,
        "seconds": elapsed,
        "stats": checker.stats,
        "checker": checker,
    }


def run_benchmark(quick: bool = False, shards: int = 4):
    num_updates = 120 if quick else 500
    constraints = build_constraints()
    local, remote, updates = build_workload(num_updates)

    single = run_single(constraints, local.copy(), remote.copy(), updates)
    sharded = run_sharded(
        constraints, local.copy(), remote.copy(), updates, shards
    )

    assert single["verdicts"] == sharded["verdicts"], (
        "sharded verdicts diverged from the single session"
    )
    assert single["state"] == sharded["state"], (
        "sharded final state diverged from the single session"
    )
    assert sharded["passes"] < single["passes"], (
        f"sharding did not reduce summed maintenance passes "
        f"({sharded['passes']} vs {single['passes']})"
    )

    checker = sharded["checker"]
    rows = [
        (
            "single session",
            len(updates),
            1,
            f"{single['seconds']:.3f}",
            single["passes"],
            single["stats"].materializations_built,
            "-",
        ),
        (
            f"{shards}-shard checker",
            len(updates),
            shards,
            f"{sharded['seconds']:.3f}",
            sharded["passes"],
            sharded["stats"].materializations_built,
            sharded["stats"].peer_fetches,
        ),
    ]
    print_table(
        "M5 — sharded check sessions vs one session (identical verdicts)",
        ["configuration", "updates", "shards", "wall (s)", "maint. passes",
         "mats built", "peer fetches"],
        rows,
    )
    placed = checker.shard_local_constraints()
    print(
        f"constraint classes: {len(placed)} shard-local, "
        f"{len(checker.spanning_constraints())} spanning, "
        f"{len(checker.remote_constraints())} remote"
    )
    return {
        "shards": shards,
        "updates": len(updates),
        "verdicts_identical": True,
        "state_identical": True,
        "single_seconds": round(single["seconds"], 4),
        "sharded_seconds": round(sharded["seconds"], 4),
        "single_maintenance_passes": single["passes"],
        "sharded_maintenance_passes": sharded["passes"],
        "pass_reduction": round(1 - sharded["passes"] / single["passes"], 4),
        "peer_fetches": sharded["stats"].peer_fetches,
        "remote_round_trips": sharded["stats"].remote_round_trips,
        "shard_local_constraints": len(placed),
        "spanning_constraints": len(checker.spanning_constraints()),
        "remote_constraints": len(checker.remote_constraints()),
    }


def test_m5_sharded_equivalence(benchmark):
    result = run_benchmark(quick=False)
    assert result["verdicts_identical"] and result["state_identical"]
    assert result["sharded_maintenance_passes"] < result["single_maintenance_passes"]
    constraints = build_constraints()
    local, remote, updates = build_workload(150)
    benchmark.pedantic(
        run_sharded,
        args=(constraints, local, remote, updates, 4),
        rounds=1,
        iterations=1,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration (same assertions, shorter stream)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, help="shard count (default 4)"
    )
    parser.add_argument(
        "--json", default="BENCH_sharded.json", metavar="PATH",
        help="write the headline numbers to PATH (default BENCH_sharded.json)",
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
