"""SQL compilation: injection safety, oracle equivalence, and the
compile-once/execute-many statement shape."""

import random

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_rule
from repro.errors import EvaluationError
from repro.localtests.algebraic import AlgebraicLocalTest
from repro.ops import ComparisonOp
from repro.relalg.evaluate import evaluate_expression
from repro.relalg.expressions import (
    Col,
    Condition,
    ConstantRelation,
    Difference,
    Lit,
    Product,
    Project,
    RelationRef,
    Select,
    Union,
)
from repro.relalg.to_sql import (
    compile_local_test,
    expression_to_sql,
    quote_identifier,
)
from repro.storage.sqlite import SQLiteDatabase

#: identifiers and constants an injection attempt would use
HOSTILE_NAMES = [
    'emp"; DROP TABLE emp; --',
    "emp'); DELETE FROM emp; --",
    "emp, dept",
    "émp🙂",
    'a""b',
]
HOSTILE_VALUES = [
    "'; DROP TABLE p; --",
    'a"b',
    "x, y",
    "ünïcödé🙂",
    "?; DROP TABLE p; --",
]


class TestQuoting:
    def test_doubles_embedded_quotes(self):
        assert quote_identifier('a"b') == '"a""b"'

    def test_rejects_nul(self):
        with pytest.raises(EvaluationError):
            quote_identifier("a\x00b")


class TestInjectionSafety:
    @pytest.mark.parametrize("name", HOSTILE_NAMES)
    def test_hostile_predicate_names_round_trip(self, name):
        db = SQLiteDatabase(contents={name: [(1, "x")], "emp": [(2, "y")]})
        got = db.evaluate_expression(RelationRef(name, 2))
        assert got == frozenset({(1, "x")})
        # the innocent bystander table survives the hostile name
        assert db.facts("emp") == frozenset({(2, "y")})

    @pytest.mark.parametrize("value", HOSTILE_VALUES)
    def test_hostile_constants_bind_as_parameters(self, value):
        db = SQLiteDatabase(contents={"p": [(value,), ("safe",)]})
        expr = Select(
            RelationRef("p", 1),
            (Condition(Col(0), ComparisonOp.EQ, Lit(value)),),
        )
        query = expression_to_sql(expr)
        assert value not in query.sql  # literal never enters the SQL text
        assert db.evaluate_expression(expr) == frozenset({(value,)})

    @pytest.mark.parametrize("value", HOSTILE_VALUES)
    def test_hostile_constants_in_local_tests(self, value):
        rule = parse_rule("panic :- l(X,Y) & r(Y)")
        test = AlgebraicLocalTest(rule, "l")
        facts = [(value, "k"), ("other", "k")]
        db = SQLiteDatabase(contents={"l": facts})
        compiled = compile_local_test(test)
        assert compiled.sql is not None and value not in compiled.sql
        assert db.run_local_test(test, (value, "k"), ("c", "l")) == test.passes(
            (value, "k"), facts
        )

    def test_hostile_constraint_constant(self):
        """A constant inside the constraint itself binds as a parameter."""
        rule = parse_rule('panic :- l(X, "it\'s, a \\"test\\"") & r(X)')
        test = AlgebraicLocalTest(rule, "l")
        constant = test.template.pattern_const_cols[0][1]
        facts = [("a", constant)]
        db = SQLiteDatabase(contents={"l": facts})
        compiled = compile_local_test(test)
        assert constant not in compiled.sql
        assert db.run_local_test(test, ("a", constant), ("c", "l")) == test.passes(
            ("a", constant), facts
        )


class TestExpressionOracle:
    """expression_to_sql over a SQLiteDatabase == the in-memory evaluator."""

    DOMAIN = [0, 1, 2, 3, "a", "b", 1.5, True]

    def test_random_expressions_agree(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(60):
            facts_r = [
                (rng.choice(self.DOMAIN), rng.choice(self.DOMAIN))
                for _ in range(rng.randrange(0, 6))
            ]
            facts_s = [
                (rng.choice(self.DOMAIN), rng.choice(self.DOMAIN))
                for _ in range(rng.randrange(0, 6))
            ]
            mem = Database({"r": facts_r, "s": facts_s})
            sql = SQLiteDatabase(contents={"r": facts_r, "s": facts_s})
            R, S = RelationRef("r", 2), RelationRef("s", 2)
            for expr in (
                Select(
                    Product(R, S),
                    (Condition(Col(1), ComparisonOp.EQ, Col(2)),),
                ),
                Project(R, (Col(1), Col(0))),
                Project(R, ()),
                Union((R, S)),
                Union(()),
                Difference(R, S),
                Select(R, (Condition(Col(0), ComparisonOp.NE, Lit("a")),)),
                ConstantRelation(frozenset({(1, "a")}), 2),
            ):
                assert evaluate_expression(expr, mem) == sql.evaluate_expression(
                    expr
                ), expr

    def test_union_validates_arity(self):
        db = SQLiteDatabase()
        with pytest.raises(ValueError):
            db.evaluate_expression(
                Union((RelationRef("r", 1), RelationRef("s", 2)))
            )

    def test_missing_relation_is_empty(self):
        db = SQLiteDatabase()
        assert db.evaluate_expression(RelationRef("ghost", 3)) == frozenset()

    def test_arity_mismatch_raises_like_evaluator(self):
        db = SQLiteDatabase(contents={"r": [(1, 2)]})
        with pytest.raises(EvaluationError):
            db.evaluate_expression(RelationRef("r", 3))


class TestCompiledLocalTests:
    RULES = [
        "panic :- l(X,Y,Y) & r(Y,Z,X)",
        "panic :- l(X) & r(X,A) & r(X,B)",
        "panic :- l(X,X)",
        "panic :- l(X,Y) & r(Y,3)",
        "panic :- l(X,1) & r(X)",
        "panic :- l(X,Y) & r(X,Z) & s(Z,Y)",
        "panic :- l(X,Y) & r(2,Y)",
    ]
    DOMAIN = [0, 1, 2, 3, "a", "b", 1.5, True]

    @pytest.mark.parametrize("text", RULES)
    def test_pushdown_equals_passes(self, text, rng):
        test = AlgebraicLocalTest(parse_rule(text), "l")
        for _ in range(120):
            facts = [
                tuple(rng.choice(self.DOMAIN) for _ in range(test.arity))
                for _ in range(rng.randrange(0, 8))
            ]
            inserted = tuple(
                rng.choice(self.DOMAIN) for _ in range(test.arity)
            )
            db = SQLiteDatabase(contents={"l": facts} if facts else None)
            assert db.run_local_test(
                test, inserted, ("c", "l")
            ) == test.passes(inserted, facts), (text, inserted, facts)

    def test_statement_is_compiled_once(self):
        test = AlgebraicLocalTest(parse_rule("panic :- l(X,Y) & r(Y)"), "l")
        db = SQLiteDatabase(contents={"l": [(1, 2)]})
        for value in range(10):
            db.run_local_test(test, (value, value), ("c", "l"))
        info = db.statement_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 9

    def test_index_columns_cover_bound_columns(self):
        test = AlgebraicLocalTest(
            parse_rule("panic :- l(X,Y,Z) & r(Z,Y)"), "l"
        )
        compiled = compile_local_test(test)
        # columns 1 and 2 are bound by the skeleton conditions
        assert (1, 2) in compiled.index_columns
