"""Theorem 5.1: containment of conjunctive queries with comparisons (CQCs).

    Let C1 and C2 be CQCs.  Then C1 subseteq C2 iff H — the set of all
    containment mappings from O(C2) to O(C1) — is nonempty... and A(C1)
    logically implies  OR_{h in H} h(A(C2)).

(When H is empty the containment holds iff A(C1) is unsatisfiable; the
paper folds that into the two cases of the proof sketch, and
:func:`~repro.arith.implication.implies_disjunction` does the same: an
empty disjunction is implied only by an unsatisfiable base.)

The theorem requires the preconditions handled by
:mod:`repro.containment.normalize`; the public functions normalize both
sides first, so arbitrary CQCs are accepted (Example 5.2 shows why the
normalization is not optional).

The generalizations noted in the paper are provided too:

* containment of a CQC in a **union** of CQCs ("we must include
  containment mappings from any member of the union to C1") —
  :func:`is_contained_in_union_cqc`;
* non-0-ary heads work unchanged (the mapping enumerator already pins
  head onto head).
"""

from __future__ import annotations

from typing import Iterable

from repro.arith.implication import implies_disjunction
from repro.containment.mappings import containment_mappings
from repro.containment.normalize import normalize_cqc
from repro.datalog.atoms import Comparison
from repro.datalog.rules import Rule
from repro.datalog.substitution import Substitution
from repro.errors import NotApplicableError

__all__ = [
    "is_contained_cqc",
    "is_contained_in_union_cqc",
    "equivalent_cqc",
    "theorem51_certificate",
    "theorem51_disjuncts",
]


def _check_cqc(rule: Rule, role: str) -> None:
    if rule.negations:
        raise NotApplicableError(
            f"{role} has negated subgoals; Theorem 5.1 covers CQCs "
            f"(conjunctive queries with arithmetic comparisons) only"
        )


def theorem51_disjuncts(
    normalized_c1: Rule, union: Iterable[Rule]
) -> list[tuple[Substitution, list[Comparison]]]:
    """The right-hand side of Theorem 5.1's implication: for every
    containment mapping h from a (normalized) member of *union* into
    *normalized_c1*, the pair ``(h, h(A(member)))``."""
    disjuncts = []
    for member in union:
        normalized = normalize_cqc(member)
        for mapping in containment_mappings(normalized, normalized_c1):
            disjuncts.append(
                (mapping, [mapping.apply_comparison(c) for c in normalized.comparisons])
            )
    return disjuncts


def is_contained_in_union_cqc(c1: Rule, union: Iterable[Rule]) -> bool:
    """Decide ``C1 subseteq union(C2s)`` for CQCs via Theorem 5.1.

    This is the form the complete local test of Theorem 5.2 needs:
    Example 5.3 shows a CQC contained in a union of CQCs without being
    contained in any single member, so the disjunction over *all* members'
    mappings is essential.
    """
    _check_cqc(c1, "C1")
    members = tuple(union)
    for member in members:
        _check_cqc(member, "union member")

    n1 = normalize_cqc(c1)
    disjuncts = [comparisons for _, comparisons in theorem51_disjuncts(n1, members)]
    return implies_disjunction(list(n1.comparisons), disjuncts)


def is_contained_cqc(c1: Rule, c2: Rule) -> bool:
    """Decide ``C1 subseteq C2`` for two CQCs (Theorem 5.1 proper)."""
    return is_contained_in_union_cqc(c1, (c2,))


def equivalent_cqc(c1: Rule, c2: Rule) -> bool:
    """CQC equivalence: containment both ways."""
    return is_contained_cqc(c1, c2) and is_contained_cqc(c2, c1)


def theorem51_certificate(c1: Rule, c2: Rule) -> dict:
    """An explainable record of the Theorem 5.1 test for ``C1 subseteq C2``.

    Returns a dict with the normalized queries, the containment mappings
    found, the implication's base and disjuncts, and the verdict — useful
    for teaching, debugging, and the worked examples in the test suite.
    """
    _check_cqc(c1, "C1")
    _check_cqc(c2, "C2")
    n1 = normalize_cqc(c1)
    n2 = normalize_cqc(c2)
    pairs = theorem51_disjuncts(n1, (n2,))
    disjuncts = [comparisons for _, comparisons in pairs]
    base = list(n1.comparisons)
    return {
        "normalized_c1": n1,
        "normalized_c2": n2,
        "mappings": [mapping for mapping, _ in pairs],
        "base": base,
        "disjuncts": disjuncts,
        "contained": implies_disjunction(base, disjuncts),
    }
