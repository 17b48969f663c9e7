"""Independently constrained queries (ICQs) and forbidden regions.

Section 6: "Call a variable in a CQC *remote* if it does not appear in a
local subgoal.  A CQC C is independently constrained (an ICQ) if every
comparison, except an equality comparison, involves at most one remote
variable."

The preprocessing of Theorem 6.1's proof is implemented here:

* equalities are removed by substitution ("We can remove ='s by equating
  variables and/or constants");
* ``X <> Y`` splits the ICQ in two, one with ``<`` and one with ``>``
  ("splitting the ICQ into two ICQ's");
* for each remote variable, the comparisons define a *forbidden interval*
  parameterized by the local tuple — open/closed/infinite at either end.

On top of the analysis, two fast complete local tests:

* :func:`interval_local_test` — the single-constrained-variable case of
  Example 6.1, via the :class:`~repro.arith.intervals.IntervalSet`
  algebra (the Fig. 6.1 datalog program computes the same thing — see
  :mod:`repro.localtests.interval_datalog` — and the tests cross-check).
  :class:`IntervalLocalTest` answers it against a live relation from
  the union of forbidden intervals the relation maintains;
* :func:`box_local_test` — the multi-variable generalization when the
  remote subgoal carries independent variables: coverage of a box by a
  union of boxes, decided exactly by recursive sweep decomposition
  (:class:`BoxLocalTest` runs it against a live relation).

ICQs outside these shapes still have the Theorem 5.2 test available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import EvaluationError, NotApplicableError
from repro.arith.intervals import Interval, IntervalSet
from repro.arith.order import NEG_INF, POS_INF, compare_values, comparison_holds
from repro.datalog.atoms import Atom, Comparison, ComparisonOp
from repro.datalog.rules import Rule
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Constant, Term, Variable
from repro.localtests.reduction import check_cqc_form, local_subgoal

__all__ = [
    "Bound",
    "ICQVariant",
    "ICQAnalysis",
    "analyze_icq",
    "is_icq",
    "forbidden_interval",
    "forbidden_intervals",
    "interval_local_test",
    "IntervalLocalTest",
    "boxes_cover",
    "box_local_test",
    "BoxLocalTest",
]


@dataclass(frozen=True, slots=True)
class Bound:
    """One bound on a remote variable: a local term with closedness.

    ``term`` is a local variable of l or a constant; ``closed`` is True
    for ``<=``-style bounds and False for strict ones.
    """

    term: Term
    closed: bool

    def value_at(self, assignment: dict[Variable, object]) -> object:
        if isinstance(self.term, Constant):
            return self.term.value
        return assignment[self.term]


@dataclass
class ICQVariant:
    """One disequality-split variant of an ICQ, fully analyzed."""

    rule: Rule
    local_atom: Atom
    #: remote variables with their bound lists (unconstrained ones absent)
    lower: dict[Variable, list[Bound]] = field(default_factory=dict)
    upper: dict[Variable, list[Bound]] = field(default_factory=dict)
    #: comparisons among local variables/constants (guards on the tuple)
    guards: list[Comparison] = field(default_factory=list)

    @property
    def constrained_variables(self) -> list[Variable]:
        names = sorted(set(self.lower) | set(self.upper), key=lambda v: v.name)
        return names


@dataclass
class ICQAnalysis:
    """The full analysis: the variants of an ICQ plus shared structure."""

    constraint: Rule
    local_predicate: str
    local_atom: Atom
    variants: list[ICQVariant]
    remote_variables: set[Variable]

    @property
    def single_variable(self) -> Optional[Variable]:
        """The unique constrained remote variable, when there is one
        across all variants (the Example 6.1 / Fig. 6.1 shape)."""
        constrained: set[Variable] = set()
        for variant in self.variants:
            constrained.update(variant.constrained_variables)
        if len(constrained) == 1:
            return next(iter(constrained))
        return None


def _local_tuple_assignment(atom: Atom, values: tuple) -> Optional[dict[Variable, object]]:
    """Bind l's variables to the tuple's components (None on pattern
    mismatch: repeated variable or constant conflicts)."""
    assignment: dict[Variable, object] = {}
    for term, value in zip(atom.args, values):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            if term in assignment and assignment[term] != value:
                return None
            assignment[term] = value
    return assignment


def _split_disequalities(rule: Rule, remote: set[Variable]) -> list[Rule]:
    """Replace every ``<>`` involving a remote variable by its ``<``/``>``
    split; disequalities among locals stay as guards."""
    for index, literal in enumerate(rule.body):
        if not isinstance(literal, Comparison):
            continue
        if literal.op is not ComparisonOp.NE:
            continue
        touches_remote = any(v in remote for v in literal.variables())
        if not touches_remote:
            continue
        less = Comparison(literal.left, ComparisonOp.LT, literal.right)
        greater = Comparison(literal.left, ComparisonOp.GT, literal.right)
        body = list(rule.body)
        results: list[Rule] = []
        for replacement in (less, greater):
            body[index] = replacement
            results.extend(_split_disequalities(Rule(rule.head, tuple(body)), remote))
        return results
    return [rule]


def _eliminate_remote_equalities(rule: Rule, remote: set[Variable]) -> Rule:
    """Substitute away ``=`` comparisons that touch a remote variable."""
    changed = True
    current = rule
    while changed:
        changed = False
        for literal in current.body:
            if not isinstance(literal, Comparison) or literal.op is not ComparisonOp.EQ:
                continue
            left, right = literal.left, literal.right
            target: Optional[Variable] = None
            replacement: Optional[Term] = None
            if isinstance(left, Variable) and left in remote:
                target, replacement = left, right
            elif isinstance(right, Variable) and right in remote:
                target, replacement = right, left
            if target is None or replacement == target:
                continue
            body = tuple(lit for lit in current.body if lit is not literal)
            subst = Substitution({target: replacement})
            current = Rule(current.head, tuple(subst.apply_literal(l) for l in body))
            remote.discard(target)
            changed = True
            break
    return current


def analyze_icq(constraint: Rule, local_predicate: str) -> ICQAnalysis:
    """Analyze *constraint* as an ICQ w.r.t. *local_predicate*.

    Raises :class:`~repro.errors.NotApplicableError` when some
    non-equality comparison involves two remote variables (not an ICQ).
    """
    check_cqc_form(constraint, local_predicate)
    atom = local_subgoal(constraint, local_predicate)
    local_vars = set(atom.variables())
    remote = {
        v for v in constraint.variables() if v not in local_vars
    }

    base = _eliminate_remote_equalities(constraint, set(remote))
    # Recompute remoteness after substitution.
    atom = local_subgoal(base, local_predicate)
    local_vars = set(atom.variables())
    remote = {v for v in base.variables() if v not in local_vars}

    for comparison in base.comparisons:
        if comparison.op is ComparisonOp.EQ:
            continue
        touched = [v for v in comparison.variables() if v in remote]
        if len(set(touched)) > 1:
            raise NotApplicableError(
                f"comparison `{comparison}` involves two remote variables: "
                f"the constraint is not independently constrained"
            )

    variants: list[ICQVariant] = []
    for split in _split_disequalities(base, remote):
        variant = ICQVariant(rule=split, local_atom=atom)
        for comparison in split.comparisons:
            sides = (comparison.left, comparison.right)
            remote_sides = [
                s for s in sides if isinstance(s, Variable) and s in remote
            ]
            if not remote_sides:
                variant.guards.append(comparison)
                continue
            # Orient as `bound op Z` with Z remote.
            if isinstance(comparison.right, Variable) and comparison.right in remote:
                z = comparison.right
                bound_term = comparison.left
                op = comparison.op
            else:
                z = comparison.left  # type: ignore[assignment]
                bound_term = comparison.right
                op = comparison.op.flipped
            assert isinstance(z, Variable)
            if op is ComparisonOp.LE:
                variant.lower.setdefault(z, []).append(Bound(bound_term, True))
            elif op is ComparisonOp.LT:
                variant.lower.setdefault(z, []).append(Bound(bound_term, False))
            elif op is ComparisonOp.GE:
                variant.upper.setdefault(z, []).append(Bound(bound_term, True))
            elif op is ComparisonOp.GT:
                variant.upper.setdefault(z, []).append(Bound(bound_term, False))
            elif op is ComparisonOp.EQ:
                # Equality between two remote variables (both sides remote)
                # would have been substituted away; equality remote=local
                # likewise.  Reaching here means l shares the variable.
                variant.guards.append(comparison)
            else:  # pragma: no cover - NE split already removed these
                raise AssertionError("unsplit disequality")
        variants.append(variant)

    return ICQAnalysis(
        constraint=constraint,
        local_predicate=local_predicate,
        local_atom=atom,
        variants=variants,
        remote_variables=remote,
    )


def is_icq(constraint: Rule, local_predicate: str) -> bool:
    """True when *constraint* is independently constrained."""
    try:
        analyze_icq(constraint, local_predicate)
    except NotApplicableError:
        return False
    return True


def _guards_hold(guards: Sequence[Comparison], assignment: dict[Variable, object]) -> bool:
    for guard in guards:
        left = (
            guard.left.value if isinstance(guard.left, Constant)
            else assignment[guard.left]
        )
        right = (
            guard.right.value if isinstance(guard.right, Constant)
            else assignment[guard.right]
        )
        if not comparison_holds(guard.op, left, right):
            return False
    return True


def forbidden_interval(
    variant: ICQVariant, variable: Variable, values: tuple
) -> Optional[Interval]:
    """The forbidden interval of *variable* induced by one local tuple
    under one variant, or ``None`` when the tuple does not activate the
    variant (pattern mismatch or failed guard).

    "Define the maximum of the lower bounds on Z to be the low end of the
    interval (-inf if none) and the minimum of the upper bounds to be the
    high end (+inf if none)."  Ties resolve toward openness, since the
    forbidden region is the *intersection* of the half-lines.
    """
    assignment = _local_tuple_assignment(variant.local_atom, values)
    if assignment is None:
        return None
    if not _guards_hold(variant.guards, assignment):
        return None

    lo: object = NEG_INF
    lo_closed = False
    for bound in variant.lower.get(variable, ()):
        value = bound.value_at(assignment)
        sign = compare_values(value, lo)
        if sign > 0 or lo is NEG_INF:
            lo, lo_closed = value, bound.closed
        elif sign == 0 and not bound.closed:
            lo_closed = False
    hi: object = POS_INF
    hi_closed = False
    for bound in variant.upper.get(variable, ()):
        value = bound.value_at(assignment)
        sign = compare_values(value, hi)
        if sign < 0 or hi is POS_INF:
            hi, hi_closed = value, bound.closed
        elif sign == 0 and not bound.closed:
            hi_closed = False
    interval = Interval(lo, lo_closed, hi, hi_closed)
    if interval.is_empty():
        return None
    return interval


def forbidden_intervals(
    analysis: ICQAnalysis, variable: Variable, relation: Iterable[tuple]
) -> IntervalSet:
    """The union of forbidden intervals over all local tuples and all
    variants — "the longest possible intervals constructed from the given
    intervals" that Fig. 6.1's recursion computes."""
    intervals: list[Interval] = []
    for values in relation:
        values = tuple(values)
        for variant in analysis.variants:
            interval = forbidden_interval(variant, variable, values)
            if interval is not None:
                intervals.append(interval)
    return IntervalSet(intervals)


def interval_local_test(
    analysis: ICQAnalysis, inserted: tuple, relation: Iterable[tuple]
) -> bool:
    """Example 6.1's complete local test, for the single-constrained-
    variable shape: the inserted tuple's forbidden interval (per variant)
    must be covered by the union of all existing forbidden intervals.
    """
    variable = analysis.single_variable
    if variable is None:
        raise NotApplicableError(
            "the interval test applies when exactly one remote variable is "
            "constrained; use box_local_test or the Theorem 5.2 engine"
        )
    inserted = tuple(inserted)
    relation = [tuple(v) for v in relation]
    covered = forbidden_intervals(analysis, variable, relation)
    for variant in analysis.variants:
        query = forbidden_interval(variant, variable, inserted)
        if query is None:
            continue  # this variant contributes no new forbidden points
        if not covered.covers(query):
            return False
    return True


def _arity_error(analysis: ICQAnalysis, arity: int) -> EvaluationError:
    return EvaluationError(
        f"relation {analysis.local_predicate!r} has arity {arity}, "
        f"the local test expects {len(analysis.local_atom.args)}"
    )


class IntervalLocalTest:
    """:func:`interval_local_test` against the relation as a database
    stores it, answered from the union of the stored tuples' forbidden
    intervals, which the relation maintains (DESIGN.md §17).

    Usage::

        test = IntervalLocalTest(analysis)
        test.passes_in(t, db)  # == interval_local_test(analysis, t, db.facts(l))

    The first call on a relation builds the union; every later insert
    and delete of the relation keeps it current, so a call computes only
    the inserted tuple's intervals.
    """

    def __init__(self, analysis: ICQAnalysis) -> None:
        variable = analysis.single_variable
        if variable is None:
            raise NotApplicableError(
                "the interval test applies when exactly one remote variable "
                "is constrained; use box_local_test or the Theorem 5.2 engine"
            )
        self.analysis = analysis
        self.variable = variable

    def intervals(self, values: tuple) -> list[Interval]:
        """The forbidden intervals of one tuple, one per variant it
        activates."""
        intervals = []
        for variant in self.analysis.variants:
            interval = forbidden_interval(variant, self.variable, values)
            if interval is not None:
                intervals.append(interval)
        return intervals

    def passes_in(self, inserted: tuple, db) -> bool:
        """The complete local test: True == the insertion cannot newly
        violate the ICQ."""
        relation = db.relation(self.analysis.local_predicate)
        if relation is None:
            covered = IntervalSet()
        else:
            covered = relation.maintained(self, self._build).covered()
        return all(covered.covers(query) for query in self.intervals(tuple(inserted)))

    def _build(self, relation) -> "_IntervalUnion":
        if relation.arity != len(self.analysis.local_atom.args):
            raise _arity_error(self.analysis, relation.arity)
        union = _IntervalUnion(self, {}, None)
        for values in relation:
            union.insert(values)
        return union


class _IntervalUnion:
    """A relation's forbidden intervals under one :class:`IntervalLocalTest`:
    a multiset (interval -> number of tuple/variant pairs forbidding it)
    and their normalized union, maintained by the relation.

    An insert extends the union by each new interval.  A delete that
    drops an interval's count to zero discards the union, and the next
    test rebuilds it from the distinct intervals, not from the tuples.
    """

    __slots__ = ("test", "counts", "union")

    def __init__(
        self,
        test: IntervalLocalTest,
        counts: dict[Interval, int],
        union: Optional[IntervalSet],
    ) -> None:
        self.test = test
        self.counts = counts
        self.union = union

    def insert(self, values: tuple) -> None:
        # Computed before anything changes: a value outside the ordered
        # domain raises here and leaves the multiset as it was.
        intervals = self.test.intervals(values)
        counts = self.counts
        for interval in intervals:
            count = counts.get(interval, 0)
            counts[interval] = count + 1
            if not count and self.union is not None:
                self.union = self.union.with_interval(interval)

    def delete(self, values: tuple) -> None:
        counts = self.counts
        for interval in self.test.intervals(values):
            count = counts[interval] - 1
            if count:
                counts[interval] = count
            else:
                del counts[interval]
                self.union = None

    def copy(self) -> "_IntervalUnion":
        return _IntervalUnion(self.test, dict(self.counts), self.union)

    def covered(self) -> IntervalSet:
        if self.union is None:
            self.union = IntervalSet(self.counts)
        return self.union


# -- multi-dimensional boxes ----------------------------------------------------

def boxes_cover(query: Sequence[Interval], boxes: Sequence[Sequence[Interval]]) -> bool:
    """Exact coverage of a k-dimensional box by a union of k-dimensional
    boxes, by sweep decomposition on the first dimension.

    Elementary pieces (breakpoint points and the open gaps between them)
    contain no box boundary in their interior, so the active box set is
    constant on each; recursion on the remaining dimensions finishes the
    job.  Exponential in k in the worst case, exact always.
    """
    query = list(query)
    if any(interval.is_empty() for interval in query):
        return True
    if not query:
        return bool(boxes)
    dim = query[0]
    candidates = [
        box for box in boxes
        if not box[0].intersect(dim).is_empty() or box[0].contains_interval(dim)
    ]
    # Breakpoints: finite endpoint values of dim and of candidate boxes,
    # restricted to dim's span.
    values = set()
    for interval in [dim] + [box[0] for box in candidates]:
        for endpoint in (interval.lo, interval.hi):
            if endpoint is NEG_INF or endpoint is POS_INF:
                continue
            lo_ok = compare_values(endpoint, dim.lo) >= 0 or dim.lo is NEG_INF
            hi_ok = compare_values(endpoint, dim.hi) <= 0 or dim.hi is POS_INF
            if lo_ok and hi_ok:
                values.add(endpoint)
    ordered = sorted(values, key=lambda v: _sort_key(v))

    pieces: list[Interval] = []
    for value in ordered:
        point = Interval.point(value)
        if dim.contains_interval(point):
            pieces.append(point)
    for a, b in zip(ordered, ordered[1:]):
        pieces.append(Interval.open(a, b))
    if dim.lo is NEG_INF:
        first = ordered[0] if ordered else POS_INF
        if first is POS_INF:
            pieces.append(dim)
        else:
            pieces.append(Interval(NEG_INF, False, first, False))
    elif ordered:
        # dim.lo is finite and is in `values`, so no left edge piece needed.
        pass
    if dim.hi is POS_INF and ordered:
        pieces.append(Interval(ordered[-1], False, POS_INF, False))
    if not ordered and dim.lo is not NEG_INF:
        pieces.append(dim)

    for piece in pieces:
        if piece.is_empty():
            continue
        active = [
            box[1:] for box in candidates if box[0].contains_interval(piece)
        ]
        if not active:
            return False
        if len(query) > 1 and not boxes_cover(query[1:], active):
            return False
    return True


def _sort_key(value: object):
    from repro.arith.order import sort_key

    return sort_key(value)


def box_local_test(
    analysis: ICQAnalysis, inserted: tuple, relation: Iterable[tuple]
) -> bool:
    """The multi-variable generalization of the interval test: the
    inserted tuple's forbidden *box* (one interval per constrained remote
    variable) must be covered by the union of existing boxes.

    Valid when the constrained remote variables are independent — the ICQ
    property guarantees per-variable comparisons, so each local tuple's
    forbidden region is a box and Theorem 5.2's containment specializes
    to box coverage.
    """
    dims: list[Variable] = sorted(
        {
            v
            for variant in analysis.variants
            for v in variant.constrained_variables
        },
        key=lambda v: v.name,
    )
    if not dims:
        return True
    inserted = tuple(inserted)
    relation = [tuple(v) for v in relation]
    arity = len(analysis.local_atom.args)
    for values in relation:
        if len(values) != arity:
            raise _arity_error(analysis, len(values))

    def box_for(variant: ICQVariant, values: tuple) -> Optional[list[Interval]]:
        box: list[Interval] = []
        assignment = _local_tuple_assignment(variant.local_atom, values)
        if assignment is None or not _guards_hold(variant.guards, assignment):
            return None
        for variable in dims:
            interval = forbidden_interval(variant, variable, values)
            if interval is None:
                # Unconstrained-for-this-variant dimension: whole line —
                # but forbidden_interval returned None only on pattern or
                # guard failure (checked above) or empty interval.
                return None
            box.append(interval)
        return box

    existing: list[list[Interval]] = []
    for values in relation:
        for variant in analysis.variants:
            box = box_for(variant, values)
            if box is not None:
                existing.append(box)
    for variant in analysis.variants:
        query = box_for(variant, inserted)
        if query is None:
            continue
        if not boxes_cover(query, existing):
            return False
    return True


class BoxLocalTest:
    """:func:`box_local_test` against the relation as a database stores
    it (the box sweep reads every stored tuple)."""

    def __init__(self, analysis: ICQAnalysis) -> None:
        self.analysis = analysis

    def passes_in(self, inserted: tuple, db) -> bool:
        return box_local_test(
            self.analysis, inserted, db.facts(self.analysis.local_predicate)
        )
