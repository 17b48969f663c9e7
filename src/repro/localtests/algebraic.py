"""Theorem 5.3: relational-algebra complete local tests, arithmetic-free.

    "In time at most exponential in the size of an arithmetic-free CQC it
    is possible to construct an expression of relational algebra whose
    nonemptiness is the complete local test for preservation of the CQC
    after an insertion to the local relation."

Construction (following the proof sketch and Example 5.4): let tau be a
tuple of fresh variables for the local relation L.  RED(tau, l, C) is the
reduction by a *generic* tuple; the pattern of l (repeated variables,
constants) becomes *pattern conditions* on tau.  Every containment
mapping from RED(tau, l, C) to RED(t, l, C) — enumerated structurally as
a *skeleton*: an assignment of each remote subgoal to a same-predicate
remote subgoal — yields equality constraints on tau's components, which
"can easily be translated into an algebraic expression on L".

Because the CQC is arithmetic-free, containment in a union reduces to
containment in one member (Sagiv–Yannakakis), so the union over skeletons
of selections over L is the complete test.  The skeleton enumeration
happens once, at construction time — exponential only in the size of the
CQC and **independent of the data**, which the T5.3 benchmark verifies.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import NotApplicableError
from repro.datalog.atoms import ComparisonOp
from repro.datalog.database import Database
from repro.datalog.rules import Rule
from repro.datalog.terms import Variable
from repro.localtests.reduction import Component, ReductionTemplate, skeletons
from repro.relalg.evaluate import is_nonempty
from repro.relalg.expressions import (
    Col,
    Condition,
    Expression,
    Lit,
    RelationRef,
    Select,
    Union,
)

__all__ = ["AlgebraicLocalTest"]


class AlgebraicLocalTest:
    """A compiled Theorem 5.3 test for one arithmetic-free CQC.

    Usage::

        test = AlgebraicLocalTest(rule, "l")
        test.passes_in(t, db)             # the complete local test on db
        test.passes(t, local_tuples)      # the same over a tuple list
        test.expression_for(t)            # the RA expression over L
    """

    def __init__(self, constraint: Rule, local_predicate: str) -> None:
        if constraint.comparisons:
            raise NotApplicableError(
                "Theorem 5.3 requires an arithmetic-free CQC; use the "
                "Theorem 5.2 engine or the ICQ machinery for comparisons"
            )
        self.constraint = constraint
        self.local_predicate = local_predicate
        # RED(tau, l, C) and its skeletons onto itself: each remote
        # subgoal maps to a same-predicate remote subgoal.  Enumerated
        # once — data-independent.
        self.template = ReductionTemplate(constraint, local_predicate)
        self.arity = self.template.arity
        self.skeletons: list[tuple[int, ...]] = skeletons(self.template, self.template)

    # -- tuple-level checks ------------------------------------------------------
    def reduction_exists(self, values: tuple) -> bool:
        """Does RED(values, l, C) exist?  (Pattern conditions of l.)"""
        return self.template.reduction_exists(values)

    def _skeleton_conditions(
        self, skeleton: tuple[int, ...], inserted: tuple
    ) -> Optional[list[Condition]]:
        """Selection conditions on L for one skeleton given the inserted
        tuple, or ``None`` when the skeleton is inconsistent with it.

        Arithmetic-free containment is an exact homomorphism, so every
        position constrains: a component meeting a value is a selection,
        and a constant meeting a variable, a variable meeting two
        different images, or two unequal constants kill the skeleton."""
        conditions: list[Condition] = []
        seen: set[tuple[int, object]] = set()
        var_image: dict[Variable, tuple] = {}  # remote var -> ('var', v)|('val', x)

        def resolve(term) -> tuple:
            if isinstance(term, Component):
                return ("val", inserted[term.index])
            if isinstance(term, Variable):
                return ("var", term)
            return ("val", term)

        atoms = self.template.atoms
        for i, target_index in enumerate(skeleton):
            source = atoms[i]
            target = atoms[target_index]
            for a, b in zip(source.args, target.args):
                image = resolve(b)
                if isinstance(a, Component):
                    # s's component must equal a concrete value of RED(t).
                    if image[0] == "var":
                        return None  # a constant cannot map onto a variable
                    key = (a.index, image[1])
                    if key not in seen:
                        seen.add(key)
                        conditions.append(
                            Condition(Col(a.index), ComparisonOp.EQ, Lit(image[1]))
                        )
                elif isinstance(a, Variable):
                    existing = var_image.get(a)
                    if existing is None:
                        var_image[a] = image
                    elif existing != image:
                        # Two images are compatible only when both are the
                        # same concrete value.
                        if existing[0] == "val" and image[0] == "val":
                            if existing[1] != image[1]:
                                return None
                        else:
                            return None
                else:
                    # A constant of C itself: its image must be that value.
                    if image[0] == "var" or image[1] != a:
                        return None
        return conditions

    # -- the public test -------------------------------------------------------
    def expression_for(self, inserted: tuple) -> Expression:
        """The relational algebra expression over L whose nonemptiness is
        the complete local test for inserting *inserted*.

        When the reduction of the inserted tuple does not exist the test
        is trivially true; we return the unrestricted relation L (always
        check :meth:`reduction_exists` first, as :meth:`passes_in` does).
        """
        inserted = tuple(inserted)
        relation = RelationRef(self.local_predicate, self.arity)
        if not self.reduction_exists(inserted):
            return relation
        pattern = self.template.pattern_conditions()
        branches: list[Expression] = []
        for skeleton in self.skeletons:
            conditions = self._skeleton_conditions(skeleton, inserted)
            if conditions is None:
                continue
            branches.append(Select(relation, tuple(pattern + conditions)))
        return Union(tuple(branches))

    def passes_in(self, inserted: tuple, db) -> bool:
        """The complete local test against the local relation as *db*
        stores it: True == the insertion cannot newly violate the
        constraint.  Each branch is an index probe on the live relation;
        nothing is copied."""
        inserted = tuple(inserted)
        if not self.reduction_exists(inserted):
            return True
        return is_nonempty(self.expression_for(inserted), db)

    def passes(self, inserted: tuple, local_relation: Iterable[tuple]) -> bool:
        """:meth:`passes_in` over a relation given as its tuples."""
        return self.passes_in(
            inserted,
            Database({self.local_predicate: [tuple(v) for v in local_relation]}),
        )
