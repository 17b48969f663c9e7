"""repro — a reproduction of *Constraint Checking with Partial Information*.

Gupta, Sagiv, Ullman, Widom; PODS 1994.

The library implements the paper end to end: the twelve constraint
language classes of Fig. 2.1, constraint subsumption (Section 3), update
rewriting and the closure results (Section 4, Figs. 4.1/4.2), the
Theorem 5.1 containment test for conjunctive queries with arithmetic,
the complete local tests of Theorems 5.2/5.3, and the recursive-datalog
interval tests of Theorem 6.1 / Fig. 6.1 — plus the substrates they run
on (a datalog engine with stratified negation and comparison builtins, a
dense-order arithmetic solver, a relational algebra, and a simulated
two-site distributed database).

Quickstart::

    from repro import Constraint, Database, Insertion, PartialInfoChecker

    constraint = Constraint(
        "panic :- emp(E,D,S) & salFloor(D,F) & S < F", "salary-floor")
    checker = PartialInfoChecker([constraint], local_predicates={"emp"})
    local = Database({"emp": [("ann", "toys", 80)]})
    report = checker.check_constraint(
        constraint, Insertion("emp", ("bob", "toys", 95)), local)
    print(report)   # satisfied at constraints+update+local-data

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the full
paper-to-module map.
"""

from repro.errors import (
    EvaluationError,
    NotApplicableError,
    ParseError,
    ReproError,
    SafetyError,
    StratificationError,
    UndecidableError,
    UnsupportedClassError,
)
from repro.arith import ComparisonSystem, Interval, IntervalSet
from repro.constraints import (
    ALL_CLASSES,
    Constraint,
    ConstraintClass,
    ConstraintSet,
    Shape,
    classify_program,
    subsumes,
)
from repro.containment import (
    is_contained_cq,
    is_contained_cqc,
    is_contained_in_union_cqc,
    is_contained_klug,
    minimize_cq,
    normalize_cqc,
)
from repro.core import CheckLevel, CheckReport, Outcome, PartialInfoChecker
from repro.datalog import (
    Atom,
    Comparison,
    ComparisonOp,
    Constant,
    Database,
    Engine,
    Negation,
    Program,
    Rule,
    Variable,
    evaluate,
    fires,
    parse_program,
    parse_rule,
)
from repro.distributed import Site, employee_workload, interval_workload
from repro.localtests import (
    AlgebraicLocalTest,
    IntervalDatalogTest,
    analyze_icq,
    complete_local_test_insertion,
    completeness_witness,
    figure_61_program,
    interval_local_test,
    is_icq,
    reduce_by_tuple,
)
from repro.relalg import cq_to_algebra, evaluate_expression
from repro.updates import (
    Deletion,
    Insertion,
    apply_update,
    cannot_cause_violation,
    is_update_independent,
    preserved_under_deletion,
    preserved_under_insertion,
    rewrite,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_CLASSES",
    "AlgebraicLocalTest",
    "Atom",
    "CheckLevel",
    "CheckReport",
    "Comparison",
    "ComparisonOp",
    "ComparisonSystem",
    "Constant",
    "Constraint",
    "ConstraintClass",
    "ConstraintSet",
    "Database",
    "Deletion",
    "Engine",
    "EvaluationError",
    "Insertion",
    "Interval",
    "IntervalDatalogTest",
    "IntervalSet",
    "Negation",
    "NotApplicableError",
    "Outcome",
    "ParseError",
    "PartialInfoChecker",
    "Program",
    "ReproError",
    "Rule",
    "SafetyError",
    "Shape",
    "Site",
    "StratificationError",
    "UndecidableError",
    "UnsupportedClassError",
    "Variable",
    "analyze_icq",
    "apply_update",
    "cannot_cause_violation",
    "classify_program",
    "complete_local_test_insertion",
    "completeness_witness",
    "cq_to_algebra",
    "employee_workload",
    "evaluate",
    "evaluate_expression",
    "figure_61_program",
    "fires",
    "interval_local_test",
    "interval_workload",
    "is_contained_cq",
    "is_contained_cqc",
    "is_contained_in_union_cqc",
    "is_contained_klug",
    "is_icq",
    "is_update_independent",
    "minimize_cq",
    "normalize_cqc",
    "parse_program",
    "parse_rule",
    "preserved_under_deletion",
    "preserved_under_insertion",
    "reduce_by_tuple",
    "rewrite",
    "subsumes",
]
