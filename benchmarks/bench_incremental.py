"""M2 — the incremental-session claim: maintain, don't recompute.

Drives the same update stream through the stateless
:class:`~repro.core.engine.PartialInfoChecker` (which re-evaluates every
purely-local constraint against a fresh copy of the database per update)
and through an incremental :class:`~repro.core.session.CheckSession`
(which maintains one materialization per purely-local constraint by
delta rules / DRed), asserting identical verdicts and identical final
states, and reporting wall-clock speedup.

Two workloads:

* **functional dependency** — ``panic :- emp(X,S1) & emp(X,S2) & S1<S2``
  over a large ``emp`` relation: non-recursive delta rules.
* **acyclicity** — ``reach`` = transitive closure of ``edge``,
  ``panic :- reach(X,X)``: recursive maintenance (DRed) under edge
  insertions and deletions.

Expected shape: the session wins by ≥2x on the 500-update headline
stream (the gap grows with database size, since per-update work is
O(|delta|) instead of O(|db|)).

Runs as a pytest-benchmark file (``pytest benchmarks/bench_incremental.py``)
or as a script::

    python benchmarks/bench_incremental.py [--quick]
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.engine import PartialInfoChecker
from repro.core.outcomes import CheckLevel, Outcome
from repro.core.session import CheckSession
from repro.datalog.database import Database
from repro.updates.update import Deletion, Insertion, Modification

try:
    from _tables import print_table
except ImportError:  # running as a script from the repo root
    from benchmarks._tables import print_table


def fd_workload(num_emps: int, num_updates: int, seed: int = 0):
    """Functional-dependency constraint over one wide local relation."""
    rng = random.Random(seed)
    constraints = ConstraintSet(
        [Constraint("panic :- emp(X, S1) & emp(X, S2) & S1 < S2", "emp-fd")]
    )
    db = Database()
    for i in range(num_emps):
        db.insert("emp", (f"e{i}", rng.randrange(1_000_000)))
    updates = []
    for i in range(num_updates):
        roll = rng.random()
        if roll < 0.6:
            # Fresh key: safe, but only level 2 can prove it.
            updates.append(Insertion("emp", (f"n{i}", rng.randrange(1_000_000))))
        elif roll < 0.8:
            j = rng.randrange(num_emps)
            updates.append(
                Modification(
                    "emp",
                    (f"e{j}", rng.randrange(1_000_000)),
                    (f"e{j}", rng.randrange(1_000_000)),
                )
            )
        else:
            # Duplicate key with a second salary: a genuine violation.
            j = rng.randrange(num_emps)
            updates.append(Insertion("emp", (f"e{j}", rng.randrange(1_000_000))))
    return constraints, {"emp"}, db, updates


def acyclicity_workload(num_nodes: int, num_edges: int, num_updates: int, seed: int = 0):
    """No-cycles constraint over the transitive closure of ``edge``."""
    rng = random.Random(seed)
    program = (
        "reach(X, Y) :- edge(X, Y).\n"
        "reach(X, Y) :- reach(X, Z) & edge(Z, Y).\n"
        "panic :- reach(X, X)."
    )
    constraints = ConstraintSet([Constraint(program, "acyclic")])
    db = Database()
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.sample(range(num_nodes), 2)
        if a > b:
            a, b = b, a  # forward edges only: the seed graph is a DAG
        if (a, b) not in edges:
            edges.add((a, b))
            db.insert("edge", (a, b))
    updates = []
    edge_pool = list(edges)
    for _ in range(num_updates):
        roll = rng.random()
        if roll < 0.70:
            a, b = rng.sample(range(num_nodes), 2)
            if a > b:
                a, b = b, a
            updates.append(Insertion("edge", (a, b)))
        elif roll < 0.90:
            updates.append(Deletion("edge", rng.choice(edge_pool)))
        else:
            # A back edge: may close a cycle, forcing a definite verdict.
            a, b = rng.sample(range(num_nodes), 2)
            if a < b:
                a, b = b, a
            updates.append(Insertion("edge", (a, b)))
    return constraints, {"edge"}, db, updates


def run_scratch(constraints, local_preds, db, updates):
    """The stateless baseline: one full re-evaluation per update."""
    checker = PartialInfoChecker(constraints, local_preds)
    state = db.copy()
    outcomes = []
    for update in updates:
        reports = checker.check(
            update, state, remote_db=None, max_level=CheckLevel.WITH_LOCAL_DATA
        )
        outcomes.append(tuple(r.outcome for r in reports))
        if not any(r.outcome is Outcome.VIOLATED for r in reports):
            update.apply(state)
    return state, outcomes


def run_session(constraints, local_preds, db, updates):
    """The incremental session: materialize once, maintain by delta."""
    session = CheckSession(constraints, local_preds, local_db=db.copy())
    outcomes = []
    for update in updates:
        reports = session.process(update, max_level=CheckLevel.WITH_LOCAL_DATA)
        outcomes.append(tuple(r.outcome for r in reports))
    return session.local_db, session, outcomes


def compare(name, constraints, local_preds, db, updates):
    t0 = time.perf_counter()
    scratch_db, scratch_outcomes = run_scratch(constraints, local_preds, db, updates)
    t_scratch = time.perf_counter() - t0

    t0 = time.perf_counter()
    session_db, session, session_outcomes = run_session(
        constraints, local_preds, db, updates
    )
    t_session = time.perf_counter() - t0

    assert scratch_outcomes == session_outcomes, f"{name}: verdicts diverged"
    for predicate in scratch_db.predicates() | session_db.predicates():
        assert scratch_db.facts(predicate) == session_db.facts(predicate), (
            f"{name}: final state diverged on {predicate}"
        )
    # The maintained materialization must equal a fresh evaluation.
    for constraint in constraints:
        mat = session._materializations.get(constraint.name)
        if mat is not None:
            assert mat.as_database() == constraint.engine.evaluate(session_db), (
                f"{name}: materialization drifted"
            )
    speedup = t_scratch / t_session if t_session > 0 else float("inf")
    return {
        "name": name,
        "updates": len(updates),
        "scratch_s": t_scratch,
        "session_s": t_session,
        "speedup": speedup,
        "stats": session.stats,
    }


def run_benchmark(quick: bool = False):
    if quick:
        configs = [
            ("emp-fd", fd_workload(300, 80, seed=7)),
            ("acyclic (DRed)", acyclicity_workload(60, 90, 80, seed=7)),
        ]
        headline_floor = None  # smoke run: correctness only
    else:
        configs = [
            ("emp-fd", fd_workload(3000, 500, seed=7)),
            ("acyclic (DRed)", acyclicity_workload(150, 220, 500, seed=7)),
        ]
        headline_floor = 2.0
    results = [
        compare(name, *workload) for name, workload in configs
    ]
    rows = [
        (
            r["name"],
            r["updates"],
            f"{r['scratch_s']:.3f}",
            f"{r['session_s']:.3f}",
            f"{r['speedup']:.1f}x",
            r["stats"].materialization_reuses,
            r["stats"].incremental_deltas,
        )
        for r in results
    ]
    print_table(
        "M2 — incremental session vs from-scratch checking",
        ["workload", "updates", "scratch (s)", "session (s)", "speedup",
         "mat. reuses", "deltas"],
        rows,
    )
    if headline_floor is not None:
        for r in results:
            assert r["speedup"] >= headline_floor, (
                f"{r['name']}: expected >= {headline_floor}x, got "
                f"{r['speedup']:.2f}x"
            )
    return results


def test_m2_incremental_vs_scratch(benchmark):
    results = run_benchmark(quick=False)
    # Time the winning configuration for the pytest-benchmark record.
    constraints, local_preds, db, updates = fd_workload(1000, 100, seed=9)
    benchmark.pedantic(
        run_session, args=(constraints, local_preds, db, updates),
        rounds=1, iterations=1,
    )
    assert all(r["speedup"] >= 2.0 for r in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration (correctness, no speedup floor)",
    )
    args = parser.parse_args(argv)
    run_benchmark(quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
