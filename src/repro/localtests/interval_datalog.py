"""Theorem 6.1 / Fig. 6.1: complete local tests as recursive datalog.

    "For any ICQ we can construct a (recursive) datalog program with
    arithmetic to serve as a complete local test."

The generator below follows the proof sketch:

* **basis rules** initialize the forbidden intervals, one rule per order
  of the bounds ("since many different variables may be the lower or
  upper bound ... we may need a different rule for every such order");
* **recursive rules** group overlapping intervals into maximal ones
  (rule (2) of Fig. 6.1, extended with the open/closed tie rules);
* **coverage rules** define the 0-ary ``covered`` predicate from the
  inserted tuple's forbidden interval (rule (3) of Fig. 6.1, "modified
  for the possibility of open intervals and infinite intervals").

Endpoint encoding: the paper notes the general construction may need "as
many as eight different predicates corresponding to ``interval``" for the
open/closed/infinite combinations.  We generate an equivalent program
over a single 4-ary predicate ``interval(Lo, LoClosed, Hi, HiClosed)``
with 0/1 closedness flags and the sentinels ``neg_inf``/``pos_inf``; the
eight-predicate rendering is a partition of this relation by flag values.
The disjunctive side conditions expand into one rule per case, exactly as
the paper prescribes.

:func:`figure_61_program` reproduces the paper's literal three-rule
program for the all-closed special case (with the one adaptation needed
to make rule (3) a safe datalog rule: the inserted pair arrives as a
``query`` fact instead of unbound head variables).
"""

from __future__ import annotations

import itertools
from typing import Iterable

from repro.errors import NotApplicableError
from repro.arith.order import NEG_INF, POS_INF
from repro.datalog.atoms import Atom, BodyLiteral, Comparison, ComparisonOp
from repro.datalog.database import Database
from repro.datalog.evaluation import Engine
from repro.datalog.parser import parse_program
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant, Variable
from repro.localtests.icq import Bound, ICQAnalysis, ICQVariant, forbidden_interval

__all__ = ["IntervalDatalogTest", "build_interval_program", "figure_61_program"]

_INTERVAL = "interval"
_QUERY = "query"
_COVERED = "covered"


def _flag(closed: bool) -> Constant:
    return Constant(1 if closed else 0)


def _basis_rules(variant: ICQVariant, variable: Variable) -> list[Rule]:
    """One rule per choice of effective lower/upper bound and per
    resolution of the dominance disjunctions."""
    lower = variant.lower.get(variable, [])
    upper = variant.upper.get(variable, [])
    base_body: tuple[BodyLiteral, ...] = (variant.local_atom,) + tuple(variant.guards)

    def choices(bounds: list[Bound], effective_is_max: bool):
        """Yield (bound_term, closed_flag, guard_literals) alternatives."""
        if not bounds:
            sentinel = NEG_INF if effective_is_max else POS_INF
            yield Constant(sentinel), False, ()
            return
        for i, chosen in enumerate(bounds):
            guard_options: list[list[Comparison]] = []
            feasible = True
            for k, other in enumerate(bounds):
                if k == i:
                    continue
                options: list[Comparison] = []
                if effective_is_max:
                    options.append(Comparison(other.term, ComparisonOp.LT, chosen.term))
                else:
                    options.append(Comparison(other.term, ComparisonOp.GT, chosen.term))
                # A tie is allowed when it does not steal effectiveness:
                # openness dominates at equal values, so a closed chosen
                # bound tolerates only closed ties.
                if (not chosen.closed) or other.closed:
                    options.append(Comparison(other.term, ComparisonOp.EQ, chosen.term))
                options = [c for c in options if not c.is_trivial_false()]
                if not options:
                    feasible = False
                    break
                guard_options.append(options)
            if not feasible:
                continue
            for combo in itertools.product(*guard_options):
                guards = tuple(c for c in combo if not c.is_trivial_true())
                yield chosen.term, chosen.closed, guards

    rules: list[Rule] = []
    for lo_term, lo_closed, lo_guards in choices(lower, effective_is_max=True):
        for hi_term, hi_closed, hi_guards in choices(upper, effective_is_max=False):
            head = Atom(
                _INTERVAL,
                (lo_term, _flag(lo_closed), hi_term, _flag(hi_closed)),
            )
            rules.append(Rule(head, base_body + lo_guards + hi_guards))
    return rules


def _merge_rules() -> list[Rule]:
    """Rule (2) of Fig. 6.1 with the open/closed boundary cases."""
    lo, lc, w, wc = Variable("Lo"), Variable("LC"), Variable("W"), Variable("WC")
    z, zc, hi, hc = Variable("Z"), Variable("ZC"), Variable("Hi"), Variable("HC")
    head = Atom(_INTERVAL, (lo, lc, hi, hc))
    left = Atom(_INTERVAL, (lo, lc, w, wc))
    right = Atom(_INTERVAL, (z, zc, hi, hc))
    one = Constant(1)
    return [
        # Proper overlap: the right interval starts strictly before the
        # left one ends.
        Rule(head, (left, right, Comparison(z, ComparisonOp.LT, w))),
        # Touching at a point covered by the left interval's closed end...
        Rule(head, (left, right, Comparison(z, ComparisonOp.EQ, w),
                    Comparison(wc, ComparisonOp.EQ, one))),
        # ...or by the right interval's closed start.
        Rule(head, (left, right, Comparison(z, ComparisonOp.EQ, w),
                    Comparison(zc, ComparisonOp.EQ, one))),
    ]


def _coverage_rules() -> list[Rule]:
    """Rule (3) of Fig. 6.1, expanded for open/closed/infinite endpoints:
    ``covered`` holds when a single maximal interval contains the query
    interval (maximal intervals are separated by uncovered points, so one
    interval must do the whole job)."""
    a, ac, b, bc = Variable("A"), Variable("AC"), Variable("B"), Variable("BC")
    lo, lc, hi, hc = Variable("Lo"), Variable("LC"), Variable("Hi"), Variable("HC")
    query = Atom(_QUERY, (a, ac, b, bc))
    interval = Atom(_INTERVAL, (lo, lc, hi, hc))
    one, zero = Constant(1), Constant(0)
    lo_options: list[tuple[Comparison, ...]] = [
        (Comparison(lo, ComparisonOp.LT, a),),
        (Comparison(lo, ComparisonOp.EQ, a), Comparison(lc, ComparisonOp.EQ, one)),
        (Comparison(lo, ComparisonOp.EQ, a), Comparison(ac, ComparisonOp.EQ, zero)),
    ]
    hi_options: list[tuple[Comparison, ...]] = [
        (Comparison(b, ComparisonOp.LT, hi),),
        (Comparison(b, ComparisonOp.EQ, hi), Comparison(hc, ComparisonOp.EQ, one)),
        (Comparison(b, ComparisonOp.EQ, hi), Comparison(bc, ComparisonOp.EQ, zero)),
    ]
    head = Atom(_COVERED)
    return [
        Rule(head, (query, interval) + lo_opt + hi_opt)
        for lo_opt in lo_options
        for hi_opt in hi_options
    ]


def build_interval_program(analysis: ICQAnalysis) -> Program:
    """The Theorem 6.1 datalog program for a single-constrained-variable
    ICQ: basis rules from every disequality-split variant feed one shared
    ``interval`` predicate ("creating a new IDB predicate that represents
    the union"), followed by the merge and coverage rules."""
    variable = analysis.single_variable
    if variable is None:
        raise NotApplicableError(
            "the Fig. 6.1 construction targets ICQs with one constrained "
            "remote variable; multi-variable ICQs use box_local_test or "
            "the Theorem 5.2 engine"
        )
    rules: list[Rule] = []
    for variant in analysis.variants:
        rules.extend(_basis_rules(variant, variable))
    rules.extend(_merge_rules())
    rules.extend(_coverage_rules())
    return Program(tuple(rules))


class IntervalDatalogTest:
    """A compiled Fig. 6.1-style complete local test.

    The generated program is built once per constraint (data-independent)
    and evaluated per insertion against the local relation plus a
    ``query`` fact carrying the inserted tuple's forbidden interval.
    """

    def __init__(self, analysis: ICQAnalysis) -> None:
        self.analysis = analysis
        self.variable = analysis.single_variable
        if self.variable is None:
            raise NotApplicableError(
                "IntervalDatalogTest requires a single constrained remote variable"
            )
        self.program = build_interval_program(analysis)
        self._engine = Engine(self.program)

    def passes_in(self, inserted: tuple, db) -> bool:
        """:meth:`passes` against the local relation as *db* stores it."""
        return self.passes(inserted, db.facts(self.analysis.local_predicate))

    def passes(self, inserted: tuple, local_relation: Iterable[tuple]) -> bool:
        """The complete local test, computed by running the datalog
        program: True == the insertion cannot newly violate the ICQ."""
        inserted = tuple(inserted)
        relation = [tuple(v) for v in local_relation]
        assert self.variable is not None
        for variant in self.analysis.variants:
            query = forbidden_interval(variant, self.variable, inserted)
            if query is None:
                continue  # variant inactive or empty: nothing new forbidden
            db = Database({self.analysis.local_predicate: relation})
            db.insert(
                _QUERY,
                (query.lo, 1 if query.lo_closed else 0,
                 query.hi, 1 if query.hi_closed else 0),
            )
            derived = self._engine.evaluate_predicate(db, _COVERED)
            if () not in derived:
                return False
        return True


def figure_61_program() -> Program:
    """The verbatim program of Fig. 6.1 (all-closed intervals), with the
    inserted pair supplied as a ``query(A, B)`` fact so that rule (3) is a
    safe datalog rule::

        interval(X,Y) :- l(X,Y)
        interval(X,Y) :- interval(X,W) & interval(Z,Y) & Z <= W
        ok :- query(A,B) & interval(X,Y) & X <= A & B <= Y
    """
    return parse_program(
        """
        interval(X,Y) :- l(X,Y)
        interval(X,Y) :- interval(X,W) & interval(Z,Y) & Z <= W
        ok :- query(A,B) & interval(X,Y) & X <= A & B <= Y
        """
    )
