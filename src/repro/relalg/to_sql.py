"""Compile relational algebra — and Theorem 5.3 local tests — to SQL.

Theorem 5.3 promises a complete local test "likely to be within the
query language of any database system"; this module takes the promise
literally.  Two compilers live here:

* :func:`expression_to_sql` turns any
  :mod:`~repro.relalg.expressions` tree into one parameterized SQLite
  ``SELECT``: products and selections become joins, repeated-variable
  and constant conditions become ``WHERE`` clauses, unions become
  ``UNION`` and differences ``EXCEPT``.  Every literal binds as a
  parameter and every identifier is quoted, so adversarial predicate
  names and constants cannot escape into the SQL text.

* :func:`compile_local_test` compiles an
  :class:`~repro.localtests.algebraic.AlgebraicLocalTest` *once*,
  symbolically over the not-yet-known inserted tuple: each component of
  the tuple becomes a parameter slot, each Theorem 5.3 skeleton becomes
  one ``SELECT 1 FROM L WHERE ...`` branch, and skeleton conditions
  that depend on the inserted values become runtime parameter guards
  (``? = ?``) instead of branch pruning.  The resulting
  ``SELECT EXISTS(... UNION ALL ...)`` statement is executed many times
  with only the parameter vector changing — the compile-once /
  execute-many shape the statement cache preserves.

Zero-arity relations are represented by a single phantom column ``c0``
holding ``0`` (SQL has no zero-column tables); callers translate a
phantom row back to ``()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError
from repro.ops import ComparisonOp
from repro.relalg.expressions import (
    Col,
    Condition,
    ConstantRelation,
    Difference,
    Expression,
    Lit,
    Product,
    Project,
    RelationRef,
    Select,
    Union,
    arity_of,
)

__all__ = [
    "quote_identifier",
    "SqlQuery",
    "expression_to_sql",
    "CompiledLocalTest",
    "compile_local_test",
]

#: every ComparisonOp value is already a valid SQLite operator
_SQL_OPS = {op: op.value for op in ComparisonOp}


def quote_identifier(name: str) -> str:
    """Quote *name* for use as a SQL identifier.

    Internal double quotes are doubled per the SQL standard; a NUL byte
    cannot be represented in a SQLite identifier at all and is rejected.
    """
    if "\x00" in name:
        raise EvaluationError(f"identifier {name!r} contains a NUL byte")
    return '"' + name.replace('"', '""') + '"'


def _columns(arity: int) -> list[str]:
    """The physical column list for a logical arity (phantom for 0)."""
    return [f"c{i}" for i in range(max(arity, 1))]


@dataclass(frozen=True)
class SqlQuery:
    """One compiled ``SELECT``: text, bound parameters, logical arity."""

    sql: str
    params: tuple
    arity: int

    def rows_to_tuples(self, rows) -> frozenset[tuple]:
        """Translate fetched rows back to logical tuples (phantom-aware)."""
        if self.arity == 0:
            return frozenset(() for _ in rows)
        return frozenset(tuple(row) for row in rows)


def _operand_sql(operand, params: list) -> str:
    if isinstance(operand, Col):
        return f"c{operand.index}"
    assert isinstance(operand, Lit)
    params.append(operand.value)
    return "?"


def _condition_sql(condition: Condition, params: list) -> str:
    left = _operand_sql(condition.left, params)
    op = _SQL_OPS[condition.op]
    right = _operand_sql(condition.right, params)
    return f"{left} {op} {right}"


def _empty_select(arity: int) -> str:
    cols = ", ".join(f"NULL AS {c}" for c in _columns(arity))
    return f"SELECT {cols} WHERE 0"


def _compile(expression: Expression, params: list) -> str:
    if isinstance(expression, RelationRef):
        cols = ", ".join(_columns(expression.arity))
        return f"SELECT {cols} FROM {quote_identifier(expression.name)}"
    if isinstance(expression, ConstantRelation):
        if not expression.tuples:
            return _empty_select(expression.arity)
        selects = []
        for row in expression.tuples:
            if expression.arity == 0:
                selects.append("SELECT 0 AS c0")
                continue
            cells = []
            for column, value in zip(_columns(expression.arity), row):
                params.append(value)
                cells.append(f"? AS {column}")
            selects.append("SELECT " + ", ".join(cells))
        return " UNION ALL ".join(selects)
    if isinstance(expression, Select):
        source = _compile(expression.source, params)
        if not expression.conditions:
            return f"SELECT * FROM ({source})"
        clauses = " AND ".join(
            _condition_sql(c, params) for c in expression.conditions
        )
        return f"SELECT * FROM ({source}) WHERE {clauses}"
    if isinstance(expression, Project):
        # The projection cells precede the source subquery in the SQL
        # text, so their parameters must precede the source's too.
        inner_params: list = []
        source = _compile(expression.source, inner_params)
        if not expression.columns:
            params.extend(inner_params)
            return f"SELECT 0 AS c0 FROM ({source})"
        cells = []
        for position, operand in enumerate(expression.columns):
            cells.append(f"{_operand_sql(operand, params)} AS o{position}")
        params.extend(inner_params)
        # Rename o* back to c* in a wrapper so Col references inside the
        # projection read the *source* columns, never the outputs.
        body = ", ".join(cells)
        outer = ", ".join(
            f"o{i} AS c{i}" for i in range(len(expression.columns))
        )
        return f"SELECT {outer} FROM (SELECT {body} FROM ({source}))"
    if isinstance(expression, Product):
        left_arity = arity_of(expression.left)
        right_arity = arity_of(expression.right)
        left = _compile(expression.left, params)
        right = _compile(expression.right, params)
        cells = [f"a.c{i} AS c{i}" for i in range(left_arity)]
        cells.extend(
            f"b.c{j} AS c{left_arity + j}" for j in range(right_arity)
        )
        if not cells:
            cells = ["0 AS c0"]
        return (
            f"SELECT {', '.join(cells)} FROM ({left}) AS a, ({right}) AS b"
        )
    if isinstance(expression, Union):
        arity = arity_of(expression)  # validates member arities
        if not expression.sources:
            return _empty_select(arity)
        parts = [
            f"SELECT * FROM ({_compile(source, params)})"
            for source in expression.sources
        ]
        return " UNION ".join(parts)
    if isinstance(expression, Difference):
        arity_of(expression)  # validates the two arities match
        left = _compile(expression.left, params)
        right = _compile(expression.right, params)
        return f"SELECT * FROM ({left}) EXCEPT SELECT * FROM ({right})"
    raise TypeError(f"not a relational algebra expression: {expression!r}")


def expression_to_sql(expression: Expression) -> SqlQuery:
    """Compile *expression* to one parameterized SQLite ``SELECT``."""
    params: list = []
    sql = _compile(expression, params)
    return SqlQuery(sql, tuple(params), arity_of(expression))


# -- Theorem 5.3 local tests, compiled once over a symbolic tuple -------------

# A symbolic parameter value: component *i* of the (future) inserted
# tuple, or a constant baked in at compile time.  Both bind as SQL
# parameters at execution — constants never enter the SQL text.
_COMP = "c"
_CONST = "v"


def _sym_component(index: int) -> tuple:
    return (_COMP, index)


def _sym_const(value: object) -> tuple:
    return (_CONST, value)


@dataclass(frozen=True)
class CompiledLocalTest:
    """One Theorem 5.3 test as a reusable ``SELECT EXISTS`` statement.

    ``sql`` is ``None`` when every skeleton branch was pruned statically
    (the test is constant-False for any tuple whose reduction exists).
    ``param_plan`` names, in positional order, what each ``?`` binds:
    ``("c", i)`` for component *i* of the inserted tuple, ``("v", x)``
    for the compile-time constant *x*.  ``index_columns`` lists the
    column sets the branches bind with equalities — the composite
    indexes that make each branch an indexed probe.
    """

    predicate: str
    arity: int
    sql: str | None
    param_plan: tuple[tuple, ...]
    index_columns: tuple[tuple[int, ...], ...]
    branches: int

    def bind(self, inserted: tuple) -> list:
        """The parameter vector for one concrete inserted tuple."""
        return [
            inserted[spec[1]] if spec[0] == _COMP else spec[1]
            for spec in self.param_plan
        ]


def _symbolic_branch(test, skeleton):
    """The symbolic skeleton conditions: ``(conditions, guards)`` where
    conditions are ``(column, sym)`` equalities on L and guards are
    ``(sym, sym)`` equalities between parameters, or ``None`` when the
    skeleton is inconsistent for *every* inserted tuple.

    Mirrors ``AlgebraicLocalTest._skeleton_conditions`` with the inserted
    tuple left symbolic: decisions that depend on concrete component
    values become runtime guards instead of static pruning.
    """
    from repro.datalog.terms import Variable
    from repro.localtests.reduction import Component

    conditions: list[tuple[int, tuple]] = []
    guards: list[tuple[tuple, tuple]] = []
    seen: set[tuple] = set()
    var_image: dict = {}  # remote var -> ("var", v) | ("sym", sym)

    def resolve(term):
        if isinstance(term, Component):
            return ("sym", _sym_component(term.index))
        if isinstance(term, Variable):
            return ("var", term)
        return ("sym", _sym_const(term))

    def syms_equal(first, second):
        """Constrain two symbolic values to be equal; False = statically
        impossible, True = statically satisfied, otherwise a guard."""
        if first == second:
            return True
        if first[0] == _CONST and second[0] == _CONST:
            return first[1] == second[1]
        guards.append((first, second))
        return True

    atoms = test.template.atoms
    for i, target_index in enumerate(skeleton):
        source = atoms[i]
        target = atoms[target_index]
        for a, b in zip(source.args, target.args):
            image = resolve(b)
            if isinstance(a, Component):
                if image[0] == "var":
                    return None  # a concrete column cannot map to a variable
            if isinstance(a, Component):
                key = (a.index, image[1])
                if key not in seen:
                    seen.add(key)
                    conditions.append((a.index, image[1]))
            elif isinstance(a, Variable):
                existing = var_image.get(a)
                if existing is None:
                    var_image[a] = image
                elif existing != image:
                    if existing[0] == "var" or image[0] == "var":
                        return None  # distinct variables never unify
                    if not syms_equal(existing[1], image[1]):
                        return None
            else:
                # A constant of C itself: its image must be that value.
                if image[0] == "var":
                    return None
                if not syms_equal(_sym_const(a), image[1]):
                    return None
    return conditions, guards


def compile_local_test(test) -> CompiledLocalTest:
    """Compile *test* (an :class:`AlgebraicLocalTest`) to one reusable
    parameterized statement.

    The Python-side :meth:`~AlgebraicLocalTest.reduction_exists` check
    stays with the caller — it is a handful of tuple comparisons and
    gates whether the statement runs at all.
    """
    table = quote_identifier(test.local_predicate)
    param_plan: list[tuple] = []
    branch_sql: list[str] = []
    index_columns: set[tuple[int, ...]] = set()

    pattern_clauses: list[str] = []
    pattern_params: list[tuple] = []
    template = test.template
    for a, b in template.pattern_eq_cols:
        pattern_clauses.append(f"c{a} = c{b}")
    for column, value in template.pattern_const_cols:
        pattern_clauses.append(f"c{column} = ?")
        pattern_params.append(_sym_const(value))

    for skeleton in test.skeletons:
        branch = _symbolic_branch(test, skeleton)
        if branch is None:
            continue
        conditions, guards = branch
        clauses = list(pattern_clauses)
        params = list(pattern_params)
        bound = {column for column, _ in template.pattern_const_cols}
        for column, sym in conditions:
            clauses.append(f"c{column} = ?")
            params.append(sym)
            bound.add(column)
        for first, second in guards:
            clauses.append("? = ?")
            params.append(first)
            params.append(second)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        branch_sql.append(f"SELECT 1 FROM {table}{where}")
        param_plan.extend(params)
        if bound:
            index_columns.add(tuple(sorted(bound)))

    if not branch_sql:
        sql = None
    else:
        union = " UNION ALL ".join(branch_sql)
        sql = f"SELECT EXISTS ({union})"
    return CompiledLocalTest(
        predicate=test.local_predicate,
        arity=test.arity,
        sql=sql,
        param_plan=tuple(param_plan),
        index_columns=tuple(sorted(index_columns)),
        branches=len(branch_sql),
    )
