"""CQ-to-relational-algebra compiler tests: the compiled expression must
compute exactly what the datalog engine computes."""

import random

import pytest

from repro.errors import NotApplicableError
from repro.datalog.database import Database
from repro.datalog.evaluation import Engine
from repro.datalog.parser import parse_rule
from repro.datalog.rules import Program
from repro.relalg.evaluate import evaluate_expression
from repro.relalg.from_cq import cq_to_algebra
from tests.conftest import make_random_database


class TestStructure:
    def test_negation_rejected(self):
        with pytest.raises(NotApplicableError):
            cq_to_algebra(parse_rule("q(X) :- e(X) & not f(X)"))

    def test_unsafe_comparison_rejected(self):
        with pytest.raises(NotApplicableError):
            cq_to_algebra(parse_rule("q(X) :- e(X) & Y < 1"))

    def test_ground_comparisons_only(self):
        expr_true = cq_to_algebra(parse_rule("q(yes) :- 1 < 2"))
        expr_false = cq_to_algebra(parse_rule("q(yes) :- 2 < 1"))
        db = Database()
        assert evaluate_expression(expr_true, db) == {("yes",)}
        assert evaluate_expression(expr_false, db) == frozenset()


class TestAgainstEngine:
    RULES = [
        "q(X) :- e(X,Y)",
        "q(X,Z) :- e(X,Y) & e(Y,Z)",
        "q(X) :- e(X,X)",
        "q(X) :- e(X,1)",
        "q(X,Y) :- e(X,Y) & X < Y",
        "q(X) :- e(X,Y) & f(Y) & Y <> 0",
        "q(a,X) :- e(X,Y) & Y >= 2",
        "q(X) :- e(X,Y) & e(Y,X) & X <= 2",
    ]

    @pytest.mark.parametrize("text", RULES)
    def test_matches_datalog_evaluation(self, text):
        rule = parse_rule(text)
        expression = cq_to_algebra(rule)
        engine = Engine(Program((rule,)))
        rng = random.Random(hash(text) & 0xFFFF)
        for _ in range(40):
            db = make_random_database(rng, {"e": 2, "f": 1}, domain_size=3)
            expected = engine.evaluate_predicate(db, "q")
            actual = evaluate_expression(expression, db)
            assert actual == expected, f"{text} differs on {db}"


class TestCornerCases:
    """Corner shapes of the CQ compiler: zero-atom, duplicate-atom and
    all-constant queries, evaluated over an in-memory database."""

    def evaluate(self, expression, contents):
        return evaluate_expression(expression, Database(contents))

    def test_zero_atom_query_true(self):
        """No ordinary subgoals: a selection over the unit relation."""
        expression = cq_to_algebra(parse_rule("q(yes) :- 1 < 2 & 2 <= 2"))
        assert self.evaluate(expression, {}) == frozenset({("yes",)})

    def test_zero_atom_query_false(self):
        expression = cq_to_algebra(parse_rule("q(yes) :- 2 < 1"))
        assert self.evaluate(expression, {}) == frozenset()

    def test_zero_atom_nullary_head(self):
        expression = cq_to_algebra(parse_rule("q :- 1 = 1"))
        assert self.evaluate(expression, {}) == frozenset({()})

    def test_duplicate_atoms_of_one_predicate(self):
        """e joined with itself: self-join columns stay independent."""
        rule = parse_rule("q(X,Z) :- e(X,Y) & e(Y,Z)")
        expression = cq_to_algebra(rule)
        contents = {"e": [(1, 2), (2, 3), (3, 1)]}
        expected = frozenset({(1, 3), (2, 1), (3, 2)})
        assert self.evaluate(expression, contents) == expected

    def test_triplicate_atom(self):
        rule = parse_rule("q(X) :- e(X,A) & e(A,B) & e(B,X)")
        expression = cq_to_algebra(rule)
        contents = {"e": [(1, 2), (2, 3), (3, 1), (5, 5)]}
        expected = frozenset({(1,), (2,), (3,), (5,)})
        assert self.evaluate(expression, contents) == expected

    def test_all_constant_atom_present(self):
        """Every argument a constant: the atom is a membership test."""
        rule = parse_rule("q(hit) :- e(1,2)")
        expression = cq_to_algebra(rule)
        assert self.evaluate(expression, {"e": [(1, 2), (3, 4)]}) == frozenset(
            {("hit",)}
        )

    def test_all_constant_atom_absent(self):
        rule = parse_rule("q(hit) :- e(1,9)")
        expression = cq_to_algebra(rule)
        assert self.evaluate(expression, {"e": [(1, 2)]}) == frozenset()

    def test_all_constant_join_with_variables(self):
        rule = parse_rule("q(X) :- e(1,2) & f(X)")
        expression = cq_to_algebra(rule)
        contents = {"e": [(1, 2)], "f": [(7,), (8,)]}
        assert self.evaluate(expression, contents) == frozenset({(7,), (8,)})

    def test_random_corner_rules_agree(self, rng):
        rules = [
            "q(X,Z) :- e(X,Y) & e(Y,Z)",
            "q(X) :- e(X,A) & e(A,X)",
            "q(hit) :- e(1,1)",
            "q(X) :- e(2,X) & f(X)",
        ]
        for text in rules:
            rule = parse_rule(text)
            expression = cq_to_algebra(rule)
            engine = Engine(Program((rule,)))
            for _ in range(15):
                db = make_random_database(rng, {"e": 2, "f": 1}, domain_size=3)
                expected = engine.evaluate_predicate(db, "q")
                assert evaluate_expression(expression, db) == expected
