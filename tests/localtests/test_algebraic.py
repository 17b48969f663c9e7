"""Theorem 5.3 tests: the relational-algebra complete local test for
arithmetic-free CQCs, cross-checked against the Theorem 5.2 engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotApplicableError
from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core import CheckLevel, CheckSession, Outcome
from repro.core.compiler import LocalTestPlan
from repro.datalog.database import Database
from repro.datalog.parser import parse_rule
from repro.localtests.algebraic import AlgebraicLocalTest
from repro.localtests.complete import complete_local_test_insertion
from repro.relalg.expressions import Select, Union
from repro.updates.update import Insertion


class TestExample54:
    def setup_method(self):
        self.rule = parse_rule("panic :- l(X,Y,Y) & r(Y,Z,X)")
        self.test = AlgebraicLocalTest(self.rule, "l")

    def test_reduction_existence(self):
        assert not self.test.reduction_exists(("a", "b", "c"))
        assert self.test.reduction_exists(("a", "b", "b"))

    def test_nonexistent_reduction_is_trivially_safe(self):
        assert self.test.passes(("a", "b", "c"), [])

    def test_paper_selection(self):
        """'The complete local test is whether this tuple already exists
        in L' — the sigma_{#1=a & #2=b & #3=b}(L) expression."""
        assert self.test.passes(("a", "b", "b"), [("a", "b", "b")])
        assert not self.test.passes(("a", "b", "b"), [("x", "y", "y")])
        assert not self.test.passes(("a", "b", "b"), [])

    def test_expression_is_union_of_selections(self):
        expression = self.test.expression_for(("a", "b", "b"))
        assert isinstance(expression, Union)
        assert all(isinstance(branch, Select) for branch in expression.sources)


class TestSkeletons:
    def test_duplicate_predicates_multiply_skeletons(self):
        rule = parse_rule("panic :- l(X) & r(X,A) & r(X,B)")
        test = AlgebraicLocalTest(rule, "l")
        assert len(test.skeletons) == 4  # 2 subgoals x 2 candidates

    def test_distinct_predicates_single_skeleton(self):
        rule = parse_rule("panic :- l(X) & r(X) & s(X)")
        test = AlgebraicLocalTest(rule, "l")
        assert len(test.skeletons) == 1

    def test_construction_rejects_arithmetic(self):
        with pytest.raises(NotApplicableError):
            AlgebraicLocalTest(parse_rule("panic :- l(X) & r(Z) & X <= Z"), "l")


class TestDegenerateShapes:
    def test_no_remote_subgoals(self):
        """A purely local CQC: the test is 'some tuple matches the
        pattern', i.e. RED(s) exists for some s."""
        rule = parse_rule("panic :- l(X,X)")
        test = AlgebraicLocalTest(rule, "l")
        # Inserting a diagonal tuple: safe iff some diagonal tuple already
        # present (it would already have fired — contradiction — so any
        # match means the reduction is covered).
        assert test.passes((1, 1), [(2, 2)])
        assert not test.passes((1, 1), [(1, 2)])
        assert test.passes((1, 2), [])  # no reduction: trivially safe

    def test_constant_pattern(self):
        rule = parse_rule("panic :- l(sales, X) & r(X)")
        test = AlgebraicLocalTest(rule, "l")
        assert test.passes(("toys", 5), [])      # pattern mismatch: safe
        assert test.passes(("sales", 5), [("sales", 5)])
        assert not test.passes(("sales", 5), [("toys", 5)])
        assert not test.passes(("sales", 5), [("sales", 6)])


class TestAgainstTheorem52:
    """On arithmetic-free CQCs the algebraic test and the containment
    engine must agree exactly."""

    RULES = [
        "panic :- l(X,Y) & r(X) & s(Y)",
        "panic :- l(X,Y,Y) & r(Y,Z,X)",
        "panic :- l(X) & r(X,A) & r(A,X)",
        "panic :- l(X,Y) & r(X,Z) & r(Y,Z)",
        "panic :- l(sales, X) & r(X)",
        "panic :- l(X,X)",
    ]

    @pytest.mark.parametrize("text", RULES)
    def test_agreement_on_random_data(self, text):
        rule = parse_rule(text)
        test = AlgebraicLocalTest(rule, "l")
        arity = test.arity
        rng = random.Random(hash(text) & 0xFFFF)
        values = ["sales", "toys", 0, 1]
        for _ in range(80):
            relation = [
                tuple(rng.choice(values) for _ in range(arity))
                for _ in range(rng.randrange(5))
            ]
            inserted = tuple(rng.choice(values) for _ in range(arity))
            fast = test.passes(inserted, relation)
            reference = complete_local_test_insertion(rule, "l", inserted, relation)
            assert fast == reference, (
                f"{text}: insert {inserted} with L={relation}: "
                f"algebraic={fast} thm5.2={reference}"
            )

    def test_construction_is_data_independent(self):
        """The skeleton set (the expensive part) never looks at data."""
        rule = parse_rule("panic :- l(X,Y) & r(X,Z) & r(Y,Z)")
        test = AlgebraicLocalTest(rule, "l")
        before = list(test.skeletons)
        test.passes((1, 2), [(3, 4)] * 50)
        assert test.skeletons == before


# -- the live-database path --------------------------------------------------

TERMS = ["X", "Y", "Z", "A", "B", "0", "a"]
DATA = [0, 1, "a", "b"]


@st.composite
def cqc_case(draw):
    """A random arithmetic-free CQC over local l and remote r/s (repeated
    variables and constants allowed anywhere), a local relation, an
    inserted tuple, and a later batch of edits to the relation."""
    l_arity = draw(st.integers(1, 3))
    r_arity = draw(st.integers(1, 2))
    args = lambda n: ", ".join(draw(st.sampled_from(TERMS)) for _ in range(n))
    subgoals = [f"l({args(l_arity)})"]
    subgoals += [f"r({args(r_arity)})" for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        subgoals.append(f"s({args(1)})")
    row = st.tuples(*[st.sampled_from(DATA)] * l_arity)
    return (
        "panic :- " + " & ".join(subgoals),
        draw(st.lists(row, max_size=8)),
        draw(row),
        draw(st.lists(st.tuples(st.booleans(), row), max_size=4)),
    )


def algebraic_plan(test):
    return LocalTestPlan("algebraic", "l", rule=test.constraint, algebraic_test=test)


class TestLiveDatabasePath:
    @settings(max_examples=150, deadline=None)
    @given(cqc_case())
    def test_live_path_equals_passes(self, case):
        text, rows, inserted, edits = case
        rule = parse_rule(text)
        test = AlgebraicLocalTest(rule, "l")
        plan = algebraic_plan(test)
        live = Database({"l": rows, "other": [(1, 2)]})
        for round_ in range(2):
            relation = sorted(live.facts("l"), key=repr)
            verdict = plan.run_against(inserted, live)
            assert verdict == test.passes_in(inserted, live)
            assert verdict == test.passes(inserted, relation)
            assert verdict == complete_local_test_insertion(
                rule, "l", inserted, relation
            ), f"{text}: insert {inserted} with L={relation} (round {round_})"
            # edit the live relation: its indexes must follow
            for is_insert, fact in edits:
                (live.insert if is_insert else live.delete)("l", fact)

    def test_every_skeleton_inconsistent_is_false(self):
        """An empty union of branches is the empty relation: the test
        fails on the live path and over a tuple list."""
        test = AlgebraicLocalTest(parse_rule("panic :- l(X) & r(X)"), "l")
        test.skeletons = []
        assert test.expression_for((1,)) == Union(())
        live = Database({"l": [(1,), (2,)]})
        assert not test.passes_in((1,), live)
        assert not test.passes((1,), [(1,), (2,)])
        assert not algebraic_plan(test).run_against((1,), live)


class TestSessionDoesNotCopyLocalRelation:
    def test_escalation_leaves_local_relation_unshared(self):
        """A level-3 merge must not mark the live local relation shared:
        otherwise the next applied update copies all of its tuples and
        every index the local tests built."""
        constraints = ConstraintSet(
            [Constraint("panic :- acct(A, R) & frozen(R)", "no-frozen-region")]
        )
        local = Database({"acct": [(i, f"r{i % 5}") for i in range(200)]})
        remote = Database({"frozen": [("r99",)]})
        session = CheckSession(constraints, {"acct"}, local_db=local)

        # covered: settled at level 2 by an index probe
        session.process(Insertion("acct", (500, "r1")), remote=remote)
        relation = local.relation("acct")
        assert relation._indexes, "the local test probed an index"

        # a fresh region escalates to level 3
        (report,) = session.process(Insertion("acct", (501, "fresh")), remote=remote)
        assert report.level is CheckLevel.FULL_DATABASE
        assert report.outcome is Outcome.SATISFIED
        assert not relation._shared

        tuples, indexes = relation._tuples, relation._indexes
        bucket = indexes[1]
        (report,) = session.process(Insertion("acct", (502, "r2")), remote=remote)
        assert report.level is CheckLevel.WITH_LOCAL_DATA
        assert (502, "r2") in local.facts("acct")
        # the same objects, updated in place: nothing was copied
        assert local.relation("acct") is relation
        assert relation._tuples is tuples
        assert relation._indexes is indexes and indexes[1] is bucket
