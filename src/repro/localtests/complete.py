"""Theorem 5.2: the complete local test for CQC constraints.

    Let C be a CQC and let t be a tuple inserted into the local relation L
    for predicate l.  Assume C holds before the update.  Then the complete
    local test for guaranteeing that C holds after the update is whether

        RED(t, l, C)  subseteq  UNION over s in L of RED(s, l, C).

The left-hand reduction ranges over *remote* predicates only, so the
containment (decided with the Theorem 5.1 union test) consults nothing but
the constraint, the inserted tuple, and the local relation.

Properties delivered (and property-tested):

* **correct** — a YES answer guarantees the constraint still holds for
  every remote state consistent with "C held before";
* **complete** — on a NO answer, :func:`completeness_witness` constructs
  an explicit remote state, consistent with the constraint having held,
  in which the insertion violates the constraint ("whenever the test says
  'I don't know', there is some state of the information not accessed by
  the test for which the constraint ceases to hold").

The extension mentioned after the theorem — several constraints assumed
to hold before the update — is the ``assumed`` parameter: their
reductions by all tuples of L join the union on the right.

Most tuples of L cannot matter.  Theorem 5.1 decides the containment by
one implication whose disjuncts come from containment mappings into
RED(t, l, C); a tuple s contributes only disjuncts that are false in
every model of A(RED(t, l, C)) when each mapping sends a component of s
onto a constant of RED(t) that s disagrees with, or when s falsifies a
comparison of the member over l alone.  :class:`ContainmentLocalTest`
compiles, once per (C, l, assumed), the member-to-target skeletons that
say where those meetings happen, and at run time reduces only the tuples
one relational-algebra selection over L keeps — an index probe on the
live relation.  Dropping a disjunct false in every model of the base
never changes whether the implication holds, so the verdict is the
literal theorem's (DESIGN.md §16).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.arith.implication import refuting_model
from repro.arith.order import comparison_holds
from repro.containment.cqc import is_contained_in_union_cqc, theorem51_disjuncts
from repro.containment.normalize import normalize_cqc
from repro.datalog.atoms import ComparisonOp
from repro.datalog.database import Database
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable
from repro.errors import EvaluationError
from repro.localtests.reduction import (
    Component,
    ReductionTemplate,
    reduce_by_tuple,
    skeletons,
)
from repro.relalg.evaluate import evaluate_expression
from repro.relalg.expressions import Col, Condition, Lit, RelationRef, Select, Union

__all__ = [
    "ContainmentLocalTest",
    "complete_local_test_insertion",
    "completeness_witness",
    "reductions_over_relation",
]


def reductions_over_relation(
    constraint: Rule, local_predicate: str, relation: Iterable[tuple]
) -> list[Rule]:
    """RED(s, l, C) for every tuple s of the local relation (skipping
    tuples whose reduction does not exist)."""
    out: list[Rule] = []
    for values in relation:
        reduced = reduce_by_tuple(constraint, local_predicate, tuple(values))
        if reduced is not None:
            out.append(reduced)
    return out


def _operand(term):
    return Col(term.index) if isinstance(term, Component) else Lit(term)


class _Member:
    """One constraint of the right-hand union (C or an assumed one), with
    what its selection over L needs: the conditions that do not depend
    on the inserted tuple, and its skeletons into RED(t, l, C)."""

    __slots__ = ("template", "fixed", "skeletons")

    def __init__(
        self, template: ReductionTemplate, skeletons: list[tuple[int, ...]]
    ) -> None:
        self.template = template
        self.skeletons = skeletons
        # l's pattern, and the comparisons over l's variables and
        # constants only: RED(s) of a tuple failing one of them does not
        # exist or holds a false ground comparison in every disjunct.
        fixed = template.pattern_conditions()
        for comparison in template.constraint.comparisons:
            left = template.term(comparison.left)
            right = template.term(comparison.right)
            if not isinstance(left, Variable) and not isinstance(right, Variable):
                fixed.append(Condition(_operand(left), comparison.op, _operand(right)))
        self.fixed = tuple(fixed)


class ContainmentLocalTest:
    """A compiled Theorem 5.2 test for one CQC, with the companion
    constraints assumed to hold before the update.

    Usage::

        test = ContainmentLocalTest(rule, "l", assumed)
        test.passes_in(t, db)             # the complete local test on db
        test.passes(t, local_tuples)      # the same over a tuple list

    Construction drops every union member with a remote predicate (or
    arity) that RED(t, l, C) lacks — no containment mapping from its
    reductions can exist — and every member whose l has another arity,
    since no tuple of L reduces it.
    """

    def __init__(
        self, constraint: Rule, local_predicate: str, assumed: Sequence[Rule] = ()
    ) -> None:
        self.constraint = constraint
        self.local_predicate = local_predicate
        self.target = ReductionTemplate(constraint, local_predicate)
        self.arity = self.target.arity
        self._relation = RelationRef(local_predicate, self.arity)
        self.members: list[_Member] = []
        for rule in (constraint, *assumed):
            template = ReductionTemplate(rule, local_predicate)
            member_skeletons = skeletons(template, self.target)
            if template.arity == self.arity and member_skeletons:
                self.members.append(_Member(template, member_skeletons))

    def _meeting_conditions(
        self, member: _Member, skeleton: tuple[int, ...], inserted: tuple
    ) -> Optional[tuple[Condition, ...]]:
        """Where *skeleton* sends a component of s onto a constant of
        RED(t), s must carry that constant; ``None`` when two unequal
        constants meet (every mapping of that shape has a false
        disjunct)."""
        conditions = []
        target_atoms = self.target.atoms
        for source, target_index in zip(member.template.atoms, skeleton):
            for a, b in zip(source.args, target_atoms[target_index].args):
                if isinstance(b, Variable):
                    continue  # a remote variable of RED(t) takes any value
                value = inserted[b.index] if isinstance(b, Component) else b
                if isinstance(a, Component):
                    conditions.append(
                        Condition(Col(a.index), ComparisonOp.EQ, Lit(value))
                    )
                elif not isinstance(a, Variable) and not comparison_holds(
                    ComparisonOp.EQ, a, value
                ):
                    return None
        return tuple(conditions)

    def reductions_in(self, inserted: tuple, db) -> Optional[tuple[Rule, list[Rule]]]:
        """RED(t, l, C) and the reductions of the union members by the
        tuples of l (as *db* stores it) that the selection keeps; ``None``
        when RED(t, l, C) does not exist."""
        inserted = tuple(inserted)
        target = reduce_by_tuple(self.constraint, self.local_predicate, inserted)
        if target is None:
            return None
        relation = db.relation(self.local_predicate)
        if relation is None:
            return target, []
        if relation.arity != self.arity:
            raise EvaluationError(
                f"relation {self.local_predicate!r} has arity {relation.arity}, "
                f"the local test expects {self.arity}"
            )
        union: list[Rule] = []
        for member in self.members:
            branches = []
            for skeleton in member.skeletons:
                meeting = self._meeting_conditions(member, skeleton, inserted)
                if meeting is not None:
                    branches.append(Select(self._relation, member.fixed + meeting))
            rule = member.template.constraint
            for row in evaluate_expression(Union(tuple(branches)), db):
                reduced = reduce_by_tuple(rule, self.local_predicate, row)
                if reduced is not None:
                    union.append(reduced)
        return target, union

    def passes_in(self, inserted: tuple, db) -> bool:
        """The complete local test against the local relation as *db*
        stores it: True == the insertion cannot newly violate the
        constraint."""
        reduced = self.reductions_in(inserted, db)
        return reduced is None or is_contained_in_union_cqc(*reduced)

    def passes(self, inserted: tuple, local_relation: Iterable[tuple]) -> bool:
        """:meth:`passes_in` over a relation given as its tuples."""
        return self.passes_in(
            inserted, _database(self.local_predicate, local_relation)
        )


def _database(local_predicate: str, local_relation: Iterable[tuple]) -> Database:
    return Database({local_predicate: [tuple(v) for v in local_relation]})


def complete_local_test_insertion(
    constraint: Rule,
    local_predicate: str,
    inserted: tuple,
    local_relation: Iterable[tuple],
    assumed: Sequence[Rule] = (),
) -> bool:
    """Theorem 5.2's test.  True == "yes, C still holds"; False == "I
    don't know" (some remote state could now violate C).

    *assumed* lists additional CQC constraints over the same local
    predicate known to hold before the update; their reductions join the
    right-hand union.
    """
    return ContainmentLocalTest(constraint, local_predicate, assumed).passes(
        inserted, local_relation
    )


def completeness_witness(
    constraint: Rule,
    local_predicate: str,
    inserted: tuple,
    local_relation: Iterable[tuple],
    assumed: Sequence[Rule] = (),
) -> Optional[Database]:
    """When the local test is inconclusive, build the remote state it is
    worried about: a database for the remote predicates such that

    * the constraint (and each assumed constraint) held before the
      insertion, and
    * the constraint is violated once *inserted* joins the local relation.

    Returns ``None`` when the test passes (no such state exists — that is
    exactly what completeness means).
    """
    reduced = ContainmentLocalTest(constraint, local_predicate, assumed).reductions_in(
        inserted, _database(local_predicate, local_relation)
    )
    if reduced is None:
        return None
    target, union = reduced

    # Mirror the Theorem 5.1 refutation: ask for a model of A(target)
    # that falsifies every disjunct.  The disjuncts of the tuples the
    # selection dropped are false in every model of A(target) already.
    normalized_target = normalize_cqc(target)
    disjuncts = [
        comparisons for _, comparisons in theorem51_disjuncts(normalized_target, union)
    ]
    model = refuting_model(list(normalized_target.comparisons), disjuncts)
    if model is None:
        return None

    db = Database()
    for atom in normalized_target.ordinary_subgoals:
        fact = []
        for term in atom.args:
            if isinstance(term, Constant):
                fact.append(term.value)
            else:
                assert isinstance(term, Variable)
                # A variable in no comparison is unconstrained: any value
                # completes the witness.
                fact.append(model.get(term, 0))
        db.insert(atom.predicate, tuple(fact))
    return db
