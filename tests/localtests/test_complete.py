"""Theorem 5.2 tests: correctness AND completeness of the local test.

Correctness: a YES answer means no remote state (consistent with the
constraint having held) is violated after the insertion — verified by
exhaustive small-domain search.  Completeness: a NO answer comes with an
explicit witness remote state, which we verify directly.
"""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import load_constraints
from repro.constraints.constraint import Constraint
from repro.containment.cqc import is_contained_in_union_cqc
from repro.core.compiler import ConstraintCompiler, LocalTestPlan
from repro.datalog.atoms import PANIC, Atom, Comparison, ComparisonOp
from repro.datalog.database import Database
from repro.datalog.parser import parse_rule
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.errors import ReproError
from repro.localtests import complete
from repro.localtests.complete import (
    ContainmentLocalTest,
    complete_local_test_insertion,
    completeness_witness,
    reductions_over_relation,
)
from repro.localtests.reduction import reduce_by_tuple

FORBIDDEN = parse_rule("panic :- l(X,Y) & r(Z) & X<=Z & Z<=Y")
SAL_FLOOR = parse_rule("panic :- emp(E,D,S) & salFloor(D,F) & S < F")
EXAMPLE_DATA = Path(__file__).resolve().parents[2] / "examples" / "data"


class TestExample53:
    def test_covered_insertion_safe(self):
        assert complete_local_test_insertion(FORBIDDEN, "l", (4, 8), [(3, 6), (5, 10)])

    def test_gap_detected(self):
        assert not complete_local_test_insertion(FORBIDDEN, "l", (4, 8), [(3, 6)])
        assert not complete_local_test_insertion(FORBIDDEN, "l", (4, 8), [(3, 5), (6, 10)])

    def test_exact_cover(self):
        assert complete_local_test_insertion(FORBIDDEN, "l", (3, 6), [(3, 6)])

    def test_empty_relation(self):
        # Nothing held before, so any nonempty interval could be violated.
        assert not complete_local_test_insertion(FORBIDDEN, "l", (4, 8), [])

    def test_empty_forbidden_interval_safe(self):
        # An inverted interval forbids nothing.
        assert complete_local_test_insertion(FORBIDDEN, "l", (8, 4), [])

    def test_reductions_skip_nonunifying_tuples(self):
        rule = parse_rule("panic :- l(X,X) & r(X)")
        reductions = reductions_over_relation(rule, "l", [(1, 1), (1, 2), (3, 3)])
        assert len(reductions) == 2


class TestSalaryFloor:
    """The CQC with a local variable inside the remote subgoal: a hire is
    locally safe iff a same-department colleague earns no more."""

    def test_colleague_with_lower_salary_covers(self):
        employees = [("ann", "toys", 50)]
        assert complete_local_test_insertion(
            SAL_FLOOR, "emp", ("bob", "toys", 60), employees
        )

    def test_colleague_with_higher_salary_does_not(self):
        employees = [("ann", "toys", 70)]
        assert not complete_local_test_insertion(
            SAL_FLOOR, "emp", ("bob", "toys", 60), employees
        )

    def test_other_department_does_not_cover(self):
        employees = [("ann", "sales", 10)]
        assert not complete_local_test_insertion(
            SAL_FLOOR, "emp", ("bob", "toys", 60), employees
        )

    def test_equal_salary_covers(self):
        employees = [("ann", "toys", 60)]
        assert complete_local_test_insertion(
            SAL_FLOOR, "emp", ("bob", "toys", 60), employees
        )


class TestAssumedConstraints:
    def test_other_constraints_join_the_union(self):
        """A second constraint over the same local relation contributes
        reductions: here a one-sided bound plugs the other's gap."""
        lower_half = parse_rule("panic :- l(X,Y) & r(Z) & X<=Z & Z<=Y")
        upper_ray = parse_rule("panic :- l(X,Y) & r(Z) & Y<=Z")
        # Insert (4, 20) with L = {(3, 6)}: [4,20] is not covered by
        # [3,6] alone, but the ray constraint forbids [6, inf) too.
        assert not complete_local_test_insertion(lower_half, "l", (4, 20), [(3, 6)])
        assert complete_local_test_insertion(
            lower_half, "l", (4, 20), [(3, 6)], assumed=[upper_ray]
        )


class TestCompletenessWitness:
    def test_no_witness_when_safe(self):
        assert completeness_witness(FORBIDDEN, "l", (4, 8), [(3, 6), (5, 10)]) is None

    def test_witness_verifies(self):
        """The witness must (a) satisfy the constraint before and (b)
        violate it after the insertion."""
        relation = [(3, 6)]
        inserted = (4, 8)
        witness = completeness_witness(FORBIDDEN, "l", inserted, relation)
        assert witness is not None
        constraint = Constraint(FORBIDDEN, "fi")
        db = witness.copy()
        for values in relation:
            db.insert("l", values)
        assert constraint.holds(db), "witness must be consistent with the priors"
        db.insert("l", inserted)
        assert constraint.is_violated(db), "witness must expose the insertion"

    def test_witness_randomized(self):
        rng = random.Random(17)
        constraint = Constraint(FORBIDDEN, "fi")
        for _ in range(60):
            relation = [
                (rng.randrange(10), rng.randrange(10)) for _ in range(rng.randrange(4))
            ]
            inserted = (rng.randrange(10), rng.randrange(10))
            verdict = complete_local_test_insertion(FORBIDDEN, "l", inserted, relation)
            witness = completeness_witness(FORBIDDEN, "l", inserted, relation)
            assert (witness is None) == verdict
            if witness is not None:
                db = witness.copy()
                for values in relation:
                    db.insert("l", values)
                assert constraint.holds(db)
                db.insert("l", inserted)
                assert constraint.is_violated(db)


class TestCorrectnessExhaustive:
    """YES answers checked against exhaustive remote states on a small
    grid: no consistent remote state may be violated after the insert."""

    def test_exhaustive_small_domain(self):
        constraint = Constraint(FORBIDDEN, "fi")
        grid = range(6)
        rng = random.Random(23)
        for _ in range(25):
            relation = [
                (rng.randrange(6), rng.randrange(6)) for _ in range(rng.randrange(3))
            ]
            inserted = (rng.randrange(6), rng.randrange(6))
            if not complete_local_test_insertion(FORBIDDEN, "l", inserted, relation):
                continue
            # Enumerate all remote subsets of the grid (2^6 states).
            for size in range(3):
                for readings in itertools.combinations(grid, size):
                    db = Database({"l": relation, "r": [(z,) for z in readings]})
                    if not constraint.holds(db):
                        continue  # inconsistent with priors
                    db.insert("l", inserted)
                    assert constraint.holds(db), (
                        f"YES was wrong: remote {readings}, insert {inserted}, "
                        f"relation {relation}"
                    )


# -- the compiled test against the literal theorem ----------------------------

VALUES = [0, 1, 1.0, True, "1", "a", "b"]
REMOTE_ARITY = {"r": 2, "s": 1, "q": 1}


def literal_theorem(constraint, assumed, inserted, relation):
    """Theorem 5.2 as stated: RED(t) against the reductions of C and of
    every assumed constraint by every tuple of L."""
    target = reduce_by_tuple(constraint, "l", inserted)
    if target is None:
        return True
    union = reductions_over_relation(constraint, "l", relation)
    for other in assumed:
        union += reductions_over_relation(other, "l", relation)
    return is_contained_in_union_cqc(target, union)


@st.composite
def cqcs(draw, remote_predicates, l_arity):
    """A CQC over l and *remote_predicates* with comparisons, repeated
    variables and constants in l and in the remote atoms."""
    constant = st.sampled_from(VALUES).map(Constant)
    l_term = st.one_of(st.sampled_from("XYZ").map(Variable), constant)
    atoms = [Atom("l", tuple(draw(l_term) for _ in range(l_arity)))]
    remote_term = st.one_of(st.sampled_from("XYZAB").map(Variable), constant)
    if remote_predicates:
        for _ in range(draw(st.integers(0, 3))):
            predicate = draw(st.sampled_from(remote_predicates))
            args = tuple(draw(remote_term) for _ in range(REMOTE_ARITY[predicate]))
            atoms.append(Atom(predicate, args))
    bound = sorted({v for atom in atoms for v in atom.variables()}, key=str)
    side = st.one_of(st.sampled_from(bound), constant) if bound else constant
    comparisons = [
        Comparison(draw(side), draw(st.sampled_from(list(ComparisonOp))), draw(side))
        for _ in range(draw(st.integers(0, 2)))
    ]
    return Rule(PANIC, tuple(atoms + comparisons))


@st.composite
def containment_cases(draw):
    """C (self-joins of r give several skeletons), companions sharing
    C's remote predicates, over a disjoint one, or with none, a local
    relation, an inserted tuple (often a stored one, which must cover
    itself), and edits between rounds."""
    l_arity = draw(st.integers(1, 3))
    constraint = draw(cqcs(["r", "s"], l_arity))
    companions = [
        draw(cqcs(draw(st.sampled_from([["r", "s"], ["q"], []])), l_arity))
        for _ in range(draw(st.integers(0, 2)))
    ]
    row = st.tuples(*[st.sampled_from(VALUES)] * l_arity)
    rows = draw(st.lists(row, max_size=6))
    return (
        constraint,
        companions,
        rows,
        draw(st.one_of(row, st.sampled_from(rows)) if rows else row),
        draw(st.lists(st.tuples(st.booleans(), row), max_size=4)),
    )


class TestCompiledEqualsTheorem:
    @settings(max_examples=150, deadline=None)
    @given(containment_cases())
    def test_selected_union_decides_like_the_full_union(self, case):
        constraint, companions, rows, inserted, edits = case
        disjuncts = [constraint, *companions]
        others = [[o for o in disjuncts if o is not d] for d in disjuncts]
        test = ContainmentLocalTest(constraint, "l", companions)
        plan = LocalTestPlan(
            "containment", "l", rule=constraint, containment_tests=(test,)
        )
        union_plan = LocalTestPlan(
            "union-containment",
            "l",
            containment_tests=tuple(
                ContainmentLocalTest(d, "l", rest) for d, rest in zip(disjuncts, others)
            ),
        )
        live = Database({"l": rows})
        for round_ in range(2):
            relation = sorted(live.facts("l"), key=repr)
            expected = literal_theorem(constraint, companions, inserted, relation)
            assert test.passes_in(inserted, live) == expected, (
                f"{constraint} with {companions}: insert {inserted} "
                f"into {relation} (round {round_})"
            )
            assert plan.run_against(inserted, live) == expected
            assert union_plan.run_against(inserted, live) == all(
                literal_theorem(d, rest, inserted, relation)
                for d, rest in zip(disjuncts, others)
            )
            assert test.passes(inserted, relation) == expected
            # edit the live relation: its indexes must follow
            for is_insert, fact in edits:
                (live.insert if is_insert else live.delete)("l", fact)

    def test_members_without_a_mapping_are_dropped(self):
        """A companion over a remote predicate RED(t) lacks can never map
        into it; one with no remote atom always can."""
        test = ContainmentLocalTest(
            FORBIDDEN,
            "l",
            [
                parse_rule("panic :- l(X,Y) & q(Z) & X<=Z"),
                parse_rule("panic :- l(X,Y) & X > Y"),
            ],
        )
        assert [m.template.constraint for m in test.members] == [
            FORBIDDEN,
            parse_rule("panic :- l(X,Y) & X > Y"),
        ]


class TestSelectionCost:
    """The salary floor joins emp to salFloor on the department: only
    same-department rows can cover a hire."""

    def plan(self):
        constraints = load_constraints(str(EXAMPLE_DATA / "employee_constraints.dl"))
        compiler = ConstraintCompiler(constraints, {"emp"})
        plan = compiler.local_test_plan(constraints["salary-floor"], "emp")
        assert plan.kind == "containment"
        return plan

    def test_reduces_only_same_department_rows(self, monkeypatch):
        # 1,000 rows over 50 departments, all within the salary caps; the
        # full union reduces every row for the floor and both caps
        emp = Database(
            {"emp": [(f"e{i}", f"d{i % 50}", i % 100) for i in range(1000)]}
        )
        reduced = []

        def counting(constraint, predicate, values):
            reduced.append(values)
            return reduce_by_tuple(constraint, predicate, values)

        monkeypatch.setattr(complete, "reduce_by_tuple", counting)
        assert self.plan().run_against(("new", "d7", 60), emp)
        stored = [values for values in reduced if emp.contains("emp", values)]
        assert len(stored) == 20
        assert {values[1] for values in stored} == {"d7"}

    def test_relation_of_another_arity_raises_typed_error(self):
        short = Database({"emp": [("e1", "d7")]})
        with pytest.raises(ReproError):
            self.plan().run_against(("new", "d7", 60), short)
        with pytest.raises(ReproError):
            complete_local_test_insertion(
                SAL_FLOOR, "emp", ("new", "d7", 60), [("e1", "d7")]
            )
