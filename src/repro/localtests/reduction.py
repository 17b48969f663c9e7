"""The reduction operator RED(t, l, C) of Section 5.

"If t is a tuple that could be in the relation for predicate l, and C is
a CQC ..., then RED(t, l, C), the reduction of C by t in l, is obtained
by substituting the components of t for the corresponding variables in
the arguments of l, and then eliminating l."

The local subgoal may contain repeated variables or constants (the
arithmetic-free Theorem 5.3 exploits this); when the tuple does not unify
with the pattern the reduction *does not exist* — Example 5.4's
``RED(t, l, C1) does not exist, because b != c`` — and we return ``None``.

The compiled local tests of Theorems 5.2 and 5.3 work on the reduction
by a *generic* tuple, RED(tau, l, C) with tau a tuple of fresh
components (:class:`ReductionTemplate`), and on the *skeletons* between
two such templates (:func:`skeletons`): both are computed once per
constraint, independently of the data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.errors import NotApplicableError
from repro.datalog.atoms import Atom, ComparisonOp
from repro.datalog.rules import Rule
from repro.datalog.substitution import match_atom_against_fact
from repro.datalog.terms import Constant, Variable
from repro.relalg.expressions import Col, Condition, Lit

__all__ = [
    "local_subgoal",
    "reduce_by_tuple",
    "check_cqc_form",
    "Component",
    "TemplateAtom",
    "ReductionTemplate",
    "skeletons",
]


def check_cqc_form(constraint: Rule, local_predicate: str) -> None:
    """Validate the Section 5 CQC form w.r.t. *local_predicate*.

    Requirements: a single-rule panic query without negation, in which the
    local predicate occurs in exactly one subgoal, and every comparison
    variable appears in some ordinary subgoal (safety).
    """
    if constraint.negations:
        raise NotApplicableError("CQCs have no negated subgoals")
    occurrences = [
        atom for atom in constraint.ordinary_subgoals
        if atom.predicate == local_predicate
    ]
    if len(occurrences) != 1:
        raise NotApplicableError(
            f"the local predicate {local_predicate!r} must occur in exactly one "
            f"subgoal (found {len(occurrences)}); the paper's CQC form has one "
            f"local subgoal l"
        )
    bound: set[Variable] = set()
    for atom in constraint.ordinary_subgoals:
        bound.update(atom.variables())
    for comparison in constraint.comparisons:
        for variable in comparison.variables():
            if variable not in bound:
                raise NotApplicableError(
                    f"comparison variable {variable} appears in no ordinary subgoal"
                )


def local_subgoal(constraint: Rule, local_predicate: str) -> Atom:
    """The unique local subgoal l of the CQC."""
    check_cqc_form(constraint, local_predicate)
    for atom in constraint.ordinary_subgoals:
        if atom.predicate == local_predicate:
            return atom
    raise AssertionError("unreachable")  # pragma: no cover


def reduce_by_tuple(
    constraint: Rule, local_predicate: str, values: tuple
) -> Optional[Rule]:
    """RED(values, l, C): substitute the tuple into l and eliminate l.

    Returns ``None`` when the reduction does not exist (the tuple fails to
    unify with l's argument pattern, e.g. a repeated variable against
    distinct components, or a constant mismatch).
    """
    subgoal = local_subgoal(constraint, local_predicate)
    if len(values) != subgoal.arity:
        raise NotApplicableError(
            f"tuple arity {len(values)} does not match local subgoal "
            f"{subgoal.predicate}/{subgoal.arity}"
        )
    subst = match_atom_against_fact(subgoal, values)
    if subst is None:
        return None
    remaining = tuple(
        subst.apply_literal(lit)
        for lit in constraint.body
        if lit is not subgoal
    )
    return Rule(constraint.head, remaining)


# -- the reduction by a generic tuple ------------------------------------------


@dataclass(frozen=True, slots=True)
class Component:
    """Component *index* of the tuple a template is reduced by."""

    index: int


@dataclass(frozen=True, slots=True)
class TemplateAtom:
    """A remote subgoal of RED(tau, l, C)."""

    predicate: str
    args: tuple  # of Component | Variable | constant value


class ReductionTemplate:
    """RED(tau, l, C) for a tuple tau of fresh components.

    Each of l's variables becomes the :class:`Component` of its first
    position in l; l's repeated variables and constants become the
    *pattern* a tuple must match for its reduction to exist.  Remote
    variables stay variables and constants are unwrapped to their values.
    Substituting a tuple s for the components gives RED(s, l, C).
    """

    def __init__(self, constraint: Rule, local_predicate: str) -> None:
        subgoal = local_subgoal(constraint, local_predicate)
        self.constraint = constraint
        self.arity = subgoal.arity
        self._components: dict[Variable, int] = {}
        #: ``(a, b)``: components a and b must be equal
        self.pattern_eq_cols: list[tuple[int, int]] = []
        #: ``(column, value)``: the component must equal the constant
        self.pattern_const_cols: list[tuple[int, object]] = []
        for position, term in enumerate(subgoal.args):
            if isinstance(term, Constant):
                self.pattern_const_cols.append((position, term.value))
            elif term in self._components:
                self.pattern_eq_cols.append((self._components[term], position))
            else:
                self._components[term] = position
        self.atoms: tuple[TemplateAtom, ...] = tuple(
            TemplateAtom(atom.predicate, tuple(self.term(t) for t in atom.args))
            for atom in constraint.ordinary_subgoals
            if atom is not subgoal
        )

    def term(self, term):
        """*term* of C as it appears in the template."""
        if isinstance(term, Constant):
            return term.value
        position = self._components.get(term)
        return term if position is None else Component(position)

    def reduction_exists(self, values: tuple) -> bool:
        """Does RED(values, l, C) exist?  (The pattern of l.)"""
        if len(values) != self.arity:
            raise NotApplicableError(
                f"tuple arity {len(values)} does not match l/{self.arity}"
            )
        for a, b in self.pattern_eq_cols:
            if values[a] != values[b]:
                return False
        for column, value in self.pattern_const_cols:
            if values[column] != value:
                return False
        return True

    def pattern_conditions(self) -> list[Condition]:
        """The pattern as selection conditions on l."""
        conditions = [
            Condition(Col(a), ComparisonOp.EQ, Col(b))
            for a, b in self.pattern_eq_cols
        ]
        conditions.extend(
            Condition(Col(column), ComparisonOp.EQ, Lit(value))
            for column, value in self.pattern_const_cols
        )
        return conditions


def skeletons(
    source: ReductionTemplate, target: ReductionTemplate
) -> list[tuple[int, ...]]:
    """Every assignment of each remote atom of *source* to a remote atom
    of *target* with the same predicate and arity.

    These are the shapes of the containment mappings from a reduction by
    *source* into one by *target*: which mappings exist, and what they
    require of the two tuples, is up to the caller.  Empty when some
    remote atom of *source* has no candidate in *target*.
    """
    choices = [
        [
            j
            for j, candidate in enumerate(target.atoms)
            if candidate.predicate == atom.predicate
            and len(candidate.args) == len(atom.args)
        ]
        for atom in source.atoms
    ]
    return list(itertools.product(*choices))
