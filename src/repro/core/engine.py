"""The partial-information constraint checker: the paper's pipeline.

:class:`PartialInfoChecker` orchestrates the three information levels of
Section 2 for a set of constraints at a site that owns the *local*
predicates:

0. **constraints only** — constraints subsumed by the rest of the set
   (Theorem 3.1) are never checked at all;
1. **constraints + update** — the Section 4 rewrite-and-contain test
   (:func:`~repro.updates.independence.cannot_cause_violation`);
2. **+ local data** — the complete local tests of Sections 5/6, chosen by
   shape: the Theorem 5.3 algebraic test for arithmetic-free CQCs, the
   Fig. 6.1 interval machinery for single-variable ICQs, the box sweep
   for multi-variable ICQs, and the Theorem 5.2 containment engine for
   everything else CQC-shaped; purely local constraints are evaluated
   outright (the one case the paper notes can answer a definite "no");
3. **full database** — the expensive fallback, only on request.

Every stage is *correct* (YES really means satisfied) and level 2 is
*complete* (an UNKNOWN really does leave room for a violating remote
state), as the test suite verifies against exhaustive ground truth.

The class is a thin stateless facade: all static analysis lives in
:class:`~repro.core.compiler.ConstraintCompiler` (built once in the
constructor), and callers that process update *streams* should prefer
:class:`~repro.core.session.CheckSession`, which shares the same compiled
core but additionally maintains materializations incrementally.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.compiler import ConstraintCompiler
from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.datalog.database import Database, merged_view
from repro.updates.update import Insertion, Modification, Update

__all__ = ["PartialInfoChecker"]


class PartialInfoChecker:
    """Checks a constraint set against updates with minimal information.

    Parameters
    ----------
    constraints:
        The constraint set, all assumed to hold initially.
    local_predicates:
        The predicates stored at this site.  Everything else is remote.
    use_interval_datalog:
        When True, single-variable ICQs run the generated Fig. 6.1
        datalog program instead of the direct interval algebra (slower,
        but exercises the Theorem 6.1 artifact; the two are equivalent).
    site_of:
        Optional federation placement (predicate -> owning remote site
        name, ``None`` for local) recorded per compiled constraint as
        its minimal site-need set.
    """

    def __init__(
        self,
        constraints: ConstraintSet | Iterable[Constraint],
        local_predicates: Iterable[str],
        use_interval_datalog: bool = False,
        site_of=None,
    ) -> None:
        self.compiler = ConstraintCompiler(
            constraints, local_predicates, use_interval_datalog, site_of=site_of
        )
        self.constraints = self.compiler.constraints
        self.local_predicates = self.compiler.local_predicates
        self.use_interval_datalog = use_interval_datalog

    # -- helpers ---------------------------------------------------------------
    def is_local_constraint(self, constraint: Constraint) -> bool:
        """True when the constraint reads only local predicates."""
        return self.compiler.is_local_constraint(constraint)

    # -- the pipeline -----------------------------------------------------------
    def check_constraint(
        self,
        constraint: Constraint,
        update: Update,
        local_db: Database,
        remote_db: Optional[Database] = None,
        max_level: CheckLevel = CheckLevel.FULL_DATABASE,
    ) -> CheckReport:
        """Run the level pipeline for one constraint and one update.

        ``local_db`` holds the local relations *before* the update;
        ``remote_db`` (optional) enables the level-3 fallback.
        """
        compiler = self.compiler

        if not compiler.mentions(constraint, update.predicate):
            return CheckReport(
                constraint.name, Outcome.SATISFIED, CheckLevel.CONSTRAINTS_ONLY,
                remote_accessed=False, detail="update predicate not mentioned",
            )

        # Level 0: subsumption by the other constraints.
        if compiler.compiled(constraint).subsumed:
            return CheckReport(
                constraint.name, Outcome.SATISFIED, CheckLevel.CONSTRAINTS_ONLY,
                remote_accessed=False, detail="subsumed by other constraints",
            )
        if max_level < CheckLevel.WITH_UPDATE:
            return CheckReport(
                constraint.name, Outcome.UNKNOWN, CheckLevel.CONSTRAINTS_ONLY,
                remote_accessed=False,
            )

        # Level 1: constraints + update.
        if compiler.level1_verdict(constraint, update):
            return CheckReport(
                constraint.name, Outcome.SATISFIED, CheckLevel.WITH_UPDATE,
                remote_accessed=False, detail="update-independence containment",
            )
        if max_level < CheckLevel.WITH_LOCAL_DATA:
            return CheckReport(
                constraint.name, Outcome.UNKNOWN, CheckLevel.WITH_UPDATE,
                remote_accessed=False,
            )

        # Level 2: + local data.
        if compiler.is_local_constraint(constraint):
            # Purely local: evaluate outright — the one case a definite
            # "no" is possible without remote data.
            after = update.applied_copy(local_db)
            outcome = Outcome.SATISFIED if constraint.holds(after) else Outcome.VIOLATED
            return CheckReport(
                constraint.name, outcome, CheckLevel.WITH_LOCAL_DATA,
                remote_accessed=False, detail="constraint is purely local",
            )
        if update.predicate in self.local_predicates:
            probe: Optional[Insertion] = None
            if isinstance(update, Insertion):
                probe = update
            elif isinstance(update, Modification):
                # The deleted tuple still contributes its reduction: the
                # constraint held while it was stored, so its forbidden
                # region is known clear — test the new tuple against the
                # FULL pre-update relation.
                probe = update.insertion
            if probe is not None:
                plan = compiler.local_test_plan(constraint, update.predicate)
                result = plan.run_against(probe.values, local_db)
                if result is True:
                    return CheckReport(
                        constraint.name, Outcome.SATISFIED, CheckLevel.WITH_LOCAL_DATA,
                        remote_accessed=False, detail="complete local test",
                    )
        if max_level < CheckLevel.FULL_DATABASE or remote_db is None:
            return CheckReport(
                constraint.name, Outcome.UNKNOWN, CheckLevel.WITH_LOCAL_DATA,
                remote_accessed=False,
            )

        # Level 3: the full database.
        after = merged_view(local_db, (remote_db,), private=(update.predicate,))
        update.apply(after)
        outcome = Outcome.SATISFIED if constraint.holds(after) else Outcome.VIOLATED
        return CheckReport(
            constraint.name, outcome, CheckLevel.FULL_DATABASE,
            remote_accessed=True, detail="full evaluation",
        )

    def check(
        self,
        update: Update,
        local_db: Database,
        remote_db: Optional[Database] = None,
        max_level: CheckLevel = CheckLevel.FULL_DATABASE,
    ) -> list[CheckReport]:
        """Run the pipeline for every constraint; reports in set order."""
        return [
            self.check_constraint(constraint, update, local_db, remote_db, max_level)
            for constraint in self.constraints
        ]

    def explain(self, constraint: Constraint, predicate: str) -> str:
        """Describe the level-2 strategy an insertion into *predicate*
        would use for *constraint* — for operators and tests.

        One of: ``"subsumed"``, ``"purely-local"``, ``"algebraic"``
        (Theorem 5.3), ``"interval"`` (Fig. 6.1), ``"containment"``
        (Theorem 5.2), ``"union-containment"`` (Theorem 5.2 per
        disjunct), or ``"none"``.
        """
        return self.compiler.explain(constraint, predicate)
