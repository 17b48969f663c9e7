"""T5.2 — the general complete local test: cost vs |L| and witnesses.

Theorem 5.2's containment has one reduction per stored tuple on the
right-hand side, but only the tuples a selection over L keeps can
matter; on the salary-floor CQC (a remote subgoal carrying a local join
variable, where neither the algebraic nor the interval fast path
applies) those are the hire's same-department colleagues.  The bench
measures the cost against |L| next to the number of rows selected, and
checks the completeness witness machinery end to end.
"""

import random
import time

from repro.constraints.constraint import Constraint
from repro.datalog.database import Database
from repro.datalog.parser import parse_rule
from repro.localtests.complete import (
    ContainmentLocalTest,
    complete_local_test_insertion,
    completeness_witness,
)

from _tables import print_table

SAL_FLOOR = parse_rule("panic :- emp(E,D,S) & salFloor(D,F) & S < F")


def make_employees(n: int, departments: int, seed: int):
    rng = random.Random(seed)
    return [
        (f"e{i}", f"d{rng.randrange(departments)}", rng.randrange(100))
        for i in range(n)
    ]


def test_thm52_scaling_in_relation_size(benchmark):
    rng = random.Random(52)
    rows = []
    for n in (5, 20, 80, 320):
        employees = make_employees(n, departments=max(2, n // 10), seed=n)
        # A covered hire: clone a colleague with a raise.
        colleague = rng.choice(employees)
        hire = ("new", colleague[1], colleague[2] + 5)

        start = time.perf_counter()
        verdict = complete_local_test_insertion(SAL_FLOOR, "emp", hire, employees)
        elapsed = time.perf_counter() - start
        assert verdict is True
        _, selected = ContainmentLocalTest(SAL_FLOOR, "emp").reductions_in(
            hire, Database({"emp": employees})
        )
        assert len(selected) == sum(1 for e in employees if e[1] == hire[1])
        rows.append((n, len(selected), f"{elapsed * 1e3:.2f}"))
    print_table(
        "T5.2 — salary-floor local test, ms by |emp| (covered hire)",
        ["|L|", "selected rows", "test ms"],
        rows,
    )

    employees = make_employees(80, 8, seed=1)
    colleague = employees[0]
    hire = ("new", colleague[1], colleague[2] + 5)
    benchmark(complete_local_test_insertion, SAL_FLOOR, "emp", hire, employees)


def test_thm52_verdict_semantics(benchmark):
    """The test is exactly 'a same-department colleague earns no more'."""
    employees = [("ann", "toys", 50), ("bob", "sales", 90)]
    cases = [
        (("x", "toys", 60), True),    # ann covers
        (("x", "toys", 50), True),    # equality covers
        (("x", "toys", 40), False),   # nobody that cheap in toys
        (("x", "sales", 89), False),  # bob earns more
        (("x", "ops", 99), False),    # empty department
    ]

    def run():
        for hire, expected in cases:
            assert (
                complete_local_test_insertion(SAL_FLOOR, "emp", hire, employees)
                is expected
            )

    benchmark(run)


def test_thm52_vs_single_member_baseline(benchmark):
    """The Gupta–Ullman/Gupta–Widom-style single-member test is sound but
    incomplete with arithmetic (the Section 5 remark): measure the
    certification gap on chained-interval workloads."""
    from repro.datalog.parser import parse_rule
    from repro.localtests.single_member import single_member_local_test

    constraint = parse_rule("panic :- l(X,Y) & r(Z) & X<=Z & Z<=Y")
    rng = random.Random(520)
    trials = 150
    complete_yes = 0
    baseline_yes = 0
    sample = None
    for _ in range(trials):
        start = rng.randrange(5)
        relation = []
        position = start
        for _ in range(4):
            width = rng.randrange(2, 5)
            relation.append((position, position + width))
            position += width - 1
        inserted = (
            rng.randrange(start, position),
            rng.randrange(start, position + 4),
        )
        if complete_local_test_insertion(constraint, "l", inserted, relation):
            complete_yes += 1
            if single_member_local_test(constraint, "l", inserted, relation):
                baseline_yes += 1
            elif sample is None:
                sample = (inserted, list(relation))
    print_table(
        "T5.2 gap — complete (Thm 5.2) vs single-member baseline "
        f"({trials} chained-interval inserts)",
        ["test", "certified safe"],
        [
            ("Theorem 5.2 (union coverage)", complete_yes),
            ("single-member baseline", baseline_yes),
            ("gap (remote trips saved by Thm 5.2)", complete_yes - baseline_yes),
        ],
    )
    if sample:
        print(f"  e.g. insert {sample[0]} needs several of {sample[1]} jointly")
    assert baseline_yes < complete_yes

    relation = [(0, 3), (2, 5), (4, 7)]
    benchmark(
        single_member_local_test, constraint, "l", (1, 6), relation
    )


def test_thm52_completeness_witness(benchmark):
    """Every 'I don't know' comes with a checkable remote state."""
    constraint = Constraint(SAL_FLOOR, "floor")
    employees = [("ann", "toys", 50)]
    hire = ("bob", "toys", 40)

    def build():
        return completeness_witness(SAL_FLOOR, "emp", hire, employees)

    witness = benchmark(build)
    assert witness is not None
    db = witness.copy()
    for values in employees:
        db.insert("emp", values)
    assert constraint.holds(db)
    db.insert("emp", hire)
    assert constraint.is_violated(db)
    floors = sorted(witness.facts("salFloor"))
    print(f"\nT5.2 witness: hiring {hire} is unsafe if salFloor = {floors}")
