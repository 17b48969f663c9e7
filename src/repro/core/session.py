"""Incremental check sessions: the execute-many half of the pipeline.

A :class:`CheckSession` owns the local database and processes a *stream*
of updates against a compiled constraint set.  Across the stream it
maintains state the stateless checker rebuilds per call:

* one :class:`~repro.datalog.evaluation.Materialization` per purely-local
  constraint, kept current by delta maintenance instead of re-evaluating
  the constraint program against a fresh copy of the database;
* the compiler's bounded level-1 verdict cache (update streams repeat
  shapes);
* copy-on-write snapshots and :class:`~repro.datalog.database.Delta`
  application with undo tokens, so a rejected update rolls back in time
  proportional to the update, not the database.

Every update flows through the same Section 2 level pipeline as
:class:`~repro.core.engine.PartialInfoChecker` and produces identical
:class:`~repro.core.outcomes.CheckReport` verdicts — the facade and the
session are two drivers over one compiled core.

Every update takes one maintenance path: apply its delta, maintain each
live materialization once, read the verdicts.
:meth:`CheckSession.process_transaction` checks a sequence atomically:
each update is validated against the state its predecessors left, and
an abort replays the recorded :class:`~repro.datalog.database.UndoToken`\\ s
in reverse (see :mod:`repro.core.transaction`), restoring the database
*and* every maintained materialization exactly.

Remote escalation is fault-tolerant: a remote source that raises
:class:`~repro.errors.RemoteUnavailableError` (e.g. a
:class:`~repro.distributed.remote.RemoteLink` whose retries are
exhausted) degrades the level-3 verdict to DEFERRED — the paper-faithful
"local tests inconclusive, remote unreachable; some remote state could
violate C".  The update is queued as a :class:`PendingVerdict` (applied
optimistically or held, per ``apply_on_unknown``) and
:meth:`CheckSession.resolve_pending` re-runs the queued checks when the
link recovers — covered updates keep flowing while uncovered ones wait.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Optional, Union

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.compiler import ConstraintCompiler
from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.core.transaction import Transaction, rollback_token
from repro.datalog.database import Database, Delta, UndoToken, merged_view
from repro.datalog.evaluation import Materialization, MaterializationUndo
from repro.errors import RemoteUnavailableError
from repro.updates.update import Insertion, Modification, Update

__all__ = [
    "CheckSession",
    "PendingVerdict",
    "SessionStats",
    "aborts_transaction",
]

#: A remote database may be handed to :meth:`CheckSession.process` either
#: directly or as a callable fetched only on escalation (so the caller
#: can meter round trips).  A callable accepting a ``predicates=`` kwarg
#: (``Site.snapshot``, ``RemoteLink.fetch``) is asked only for the remote
#: predicates the unresolved constraints actually mention; it may raise
#: :class:`~repro.errors.RemoteUnavailableError`, which the session turns
#: into DEFERRED verdicts instead of propagating.
RemoteSource = Union[Database, Callable[[], Database], None]


def _accepts_predicates(fetch: Callable) -> bool:
    """Does the remote source take a ``predicates=`` restriction kwarg?"""
    try:
        signature = inspect.signature(fetch)
    except (TypeError, ValueError):
        return False
    return any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        or parameter.name == "predicates"
        for parameter in signature.parameters.values()
    )


def aborts_transaction(
    reports: Iterable[CheckReport], apply_on_unknown: bool
) -> bool:
    """Does an update with these final *reports* abort its transaction?

    A rejection does, and so does a member nobody could verify: DEFERRED
    because the remote was unreachable, or UNKNOWN when only SATISFIED
    updates apply."""
    return any(
        r.outcome in (Outcome.VIOLATED, Outcome.DEFERRED)
        or (not apply_on_unknown and r.outcome is Outcome.UNKNOWN)
        for r in reports
    )


def _fetch_remote(
    remote: RemoteSource, predicates: Optional[set[str]]
) -> Database:
    """Resolve a :data:`RemoteSource` into a database, restricting the
    fetch to *predicates* when the source supports it.  May raise
    :class:`~repro.errors.RemoteUnavailableError`."""
    if not callable(remote):
        return remote
    if predicates and _accepts_predicates(remote):
        return remote(predicates=sorted(predicates))
    return remote()


@dataclass
class SessionStats:
    """Counters describing how much work the session reused vs. redid."""

    updates: int = 0
    applied: int = 0
    rejected: int = 0
    #: updates left unapplied because a verdict stayed UNKNOWN while the
    #: session runs with ``apply_on_unknown=False``
    deferred_unknown: int = 0
    #: constraint-program materializations built from scratch
    materializations_built: int = 0
    #: checks answered from an already-maintained materialization
    materialization_reuses: int = 0
    #: delta-maintenance passes over materializations (incl. rollbacks)
    incremental_deltas: int = 0
    #: full remote fetches (level-3 escalations)
    remote_fetches: int = 0
    #: shard mode: sibling-shard fetches for the cross-shard union view
    #: (site-local, never counted as remote round trips)
    peer_fetches: int = 0
    #: transactions started / aborted via exact token rollback
    transactions: int = 0
    transactions_rolled_back: int = 0
    #: updates whose level-3 verdict was DEFERRED (remote unreachable)
    #: and queued for later resolution
    deferred_remote: int = 0
    #: queued deferred verdicts settled by :meth:`CheckSession.resolve_pending`
    deferred_resolved: int = 0
    #: optimistically applied deferred updates rolled back because the
    #: resolved verdict was VIOLATED
    deferred_rolled_back: int = 0

    def summary_rows(self) -> list[tuple[str, object]]:
        return [
            ("updates", self.updates),
            ("applied", self.applied),
            ("rejected", self.rejected),
            ("deferred on unknown", self.deferred_unknown),
            ("materializations built", self.materializations_built),
            ("materialization reuses", self.materialization_reuses),
            ("incremental deltas", self.incremental_deltas),
            ("remote fetches", self.remote_fetches),
            ("peer (cross-shard) fetches", self.peer_fetches),
            ("transactions", self.transactions),
            ("transactions rolled back", self.transactions_rolled_back),
            ("deferred (remote unreachable)", self.deferred_remote),
            ("deferred resolved", self.deferred_resolved),
            ("deferred rolled back", self.deferred_rolled_back),
        ]

    def to_dict(self) -> dict:
        """Plain-dict form for checkpoint manifests (JSON-safe)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "SessionStats":
        return cls(**payload)


@dataclass
class PendingVerdict:
    """One update whose level-3 check could not reach the remote site.

    The per-constraint reports in :attr:`reports` carry DEFERRED for the
    constraints in :attr:`unresolved` until
    :meth:`CheckSession.resolve_pending` settles them; ``applied`` says
    whether the update is currently in the database (optimistic policy)
    or held back (pessimistic), and ``token`` records the effective
    changes of an applied update so a VIOLATED resolution can reverse
    them exactly.
    """

    seq: int
    update: Update
    unresolved: tuple[str, ...]
    reports: dict[str, CheckReport]
    applied: bool
    token: Optional[UndoToken] = None
    #: overlapped escalation: the in-flight fetch future issued when this
    #: entry deferred (``RemoteLink.fetch_nowait``), consumed by the drain
    future: Optional[object] = None
    #: the predicate restriction the future's fetch was issued with
    #: (``None`` = unrestricted, covers everything); a settle whose needs
    #: exceed it discards the future and fetches synchronously
    future_predicates: Optional[frozenset] = None

    @property
    def resolved(self) -> bool:
        return not self.unresolved

    def ordered_reports(self, constraints: Iterable[Constraint]) -> list[CheckReport]:
        return [self.reports[constraint.name] for constraint in constraints]


class CheckSession:
    """Check a stream of updates against one evolving local database.

    Parameters
    ----------
    constraints:
        The constraint set, or an already-built
        :class:`~repro.core.compiler.ConstraintCompiler` via *compiler*.
    local_predicates:
        The predicates stored at this site (ignored when *compiler* is
        given).
    local_db:
        The local database the session owns and mutates.  Updates that
        pass every check are applied; rejected updates are rolled back.
    apply_on_unknown:
        The application policy for updates whose final verdict includes
        UNKNOWN.  ``True`` (the default) applies them optimistically —
        only a definite VIOLATED rejects.  ``False`` applies an update
        only when every verdict is SATISFIED, leaving UNKNOWN updates
        unapplied (counted in :attr:`SessionStats.deferred_unknown`).
    peer_predicates / peer_source:
        Shard mode (see :class:`~repro.distributed.sharded.ShardedChecker`):
        predicates that are *site-local but stored in sibling shards*,
        and a fetch for them.  A constraint whose missing predicates all
        live on peers is settled against the lazily materialized
        cross-shard union view at ``WITH_LOCAL_DATA`` — peer data is
        site-local, so consulting it is not a remote access and can
        never defer.  When *local_predicates* is passed alongside a
        shared *compiler*, it narrows this session's view of "local" to
        the shard's own predicates.
    seq_source:
        Optional shared counter for :class:`PendingVerdict` sequence
        numbers, so several shard sessions order their deferred-verdict
        queues on one global clock (the quarantine must reverse
        optimistic facts newest-first *across* shards).
    """

    def __init__(
        self,
        constraints: ConstraintSet | Iterable[Constraint] | None = None,
        local_predicates: Optional[Iterable[str]] = None,
        local_db: Optional[Database] = None,
        use_interval_datalog: bool = False,
        compiler: Optional[ConstraintCompiler] = None,
        apply_on_unknown: bool = True,
        peer_predicates: Iterable[str] = (),
        peer_source: RemoteSource = None,
        seq_source: Optional[Callable[[], int]] = None,
    ) -> None:
        if compiler is None:
            if constraints is None:
                raise ValueError("CheckSession needs constraints or a compiler")
            compiler = ConstraintCompiler(
                constraints,
                local_predicates if local_predicates is not None else (),
                use_interval_datalog,
            )
        self.compiler = compiler
        self.constraints = compiler.constraints
        # An explicit (possibly empty) set narrows this session's view of
        # "local" below the compiler's site-wide set — the shard case.
        self.local_predicates = (
            frozenset(local_predicates)
            if local_predicates is not None
            else compiler.local_predicates
        )
        self.peer_predicates = frozenset(peer_predicates)
        self.peer_source = peer_source
        self.local_db = local_db if local_db is not None else Database()
        self.apply_on_unknown = apply_on_unknown
        self.stats = SessionStats()
        #: one maintained materialization per purely-local constraint
        #: checked so far, keyed by constraint name (the constraint set
        #: bounds it)
        self._materializations: dict[str, Materialization] = {}
        #: updates whose level-3 verdicts await a reachable remote (FIFO)
        self._pending: list[PendingVerdict] = []
        self._pending_seq = 0
        self._seq_source = seq_source
        #: optional durability sink (see :mod:`repro.durability.journal`):
        #: an object with ``record_update(update, reports, applied, token,
        #: entry)`` called once per stream update in arrival order, and
        #: ``safe_point()`` called whenever the session is back at a
        #: consistent between-updates boundary (the journal batches its
        #: fsyncs and takes checkpoints there).  Drain settles never
        #: record — recovery restores the pre-drain state and re-drains.
        self.effect_log = None

    # -- materialization plumbing ---------------------------------------------
    def _materialization(self, constraint: Constraint) -> Materialization:
        """The maintained evaluation of a purely-local constraint; built
        from the current database on first use, maintained afterwards."""
        mat = self._materializations.get(constraint.name)
        if mat is None:
            mat = constraint.engine.materialize(self.local_db)
            self._materializations[constraint.name] = mat
            self.stats.materializations_built += 1
        else:
            self.stats.materialization_reuses += 1
        return mat

    def _propagate(
        self, effective: Delta
    ) -> list[tuple[Materialization, MaterializationUndo]]:
        """Maintain every existing materialization after a database change.

        Returns (materialization, undo) pairs so a rejected update can
        roll the maintained state back exactly, without re-running
        maintenance on the inverse delta."""
        if effective.is_empty():
            return []
        undos = []
        for mat in self._materializations.values():
            undos.append((mat, mat.apply_delta(effective)))
            self.stats.incremental_deltas += 1
        return undos

    def transaction(self) -> Transaction:
        """A fresh exact-rollback transaction scoped to this session.

        Pass it to :meth:`process` (or :meth:`apply_unchecked`) so the
        effective :class:`~repro.datalog.database.UndoToken` of each
        applied update is recorded; ``rollback()`` then restores the
        database and every maintained materialization to the state at
        this call — including facts a redundant insertion did *not* add.
        """
        self.stats.transactions += 1
        return Transaction(
            self.local_db, lambda: list(self._materializations.values())
        )

    def apply_unchecked(
        self, update: Update, transaction: Optional[Transaction] = None
    ) -> None:
        """Apply *update* without checking (the caller already decided),
        keeping the maintained materializations in sync."""
        token = self.local_db.apply(update.as_delta())
        undos = self._propagate(token.as_delta())
        if transaction is not None:
            transaction.record(token, undos)

    # -- the stream pipeline -----------------------------------------------------
    def _static_checks(
        self, update: Update, max_level: CheckLevel
    ) -> tuple[
        dict[str, CheckReport],
        list[Constraint],
        list[tuple[Constraint, CheckLevel]],
    ]:
        """Levels 0-2 without touching session state: every verdict
        decidable from the compiled constraints, the update, and the
        *pre-update* database.

        Returns the decided reports plus two pending lists: purely-local
        constraints (decidable from the post-update materialization) and
        constraints needing level-3 remote data.
        """
        reports: dict[str, CheckReport] = {}
        pending_local: list[Constraint] = []
        pending_unknown: list[tuple[Constraint, CheckLevel]] = []
        predicate = update.predicate

        for constraint in self.constraints:
            name = constraint.name
            compiled = self.compiler.compiled(name)
            if not self.compiler.mentions(constraint, predicate):
                reports[name] = CheckReport(
                    name, Outcome.SATISFIED, CheckLevel.CONSTRAINTS_ONLY,
                    remote_accessed=False, detail="update predicate not mentioned",
                )
                continue

            # Level 0: subsumption by the other constraints.
            if compiled.subsumed:
                reports[name] = CheckReport(
                    name, Outcome.SATISFIED, CheckLevel.CONSTRAINTS_ONLY,
                    remote_accessed=False, detail="subsumed by other constraints",
                )
                continue
            if max_level < CheckLevel.WITH_UPDATE:
                reports[name] = CheckReport(
                    name, Outcome.UNKNOWN, CheckLevel.CONSTRAINTS_ONLY,
                    remote_accessed=False,
                )
                continue

            # Level 1: constraints + update (LRU-cached verdict).
            if self.compiler.level1_verdict(constraint, update):
                reports[name] = CheckReport(
                    name, Outcome.SATISFIED, CheckLevel.WITH_UPDATE,
                    remote_accessed=False, detail="update-independence containment",
                )
                continue
            if max_level < CheckLevel.WITH_LOCAL_DATA:
                reports[name] = CheckReport(
                    name, Outcome.UNKNOWN, CheckLevel.WITH_UPDATE,
                    remote_accessed=False,
                )
                continue

            # Level 2: + local data.  Purely-local constraints evaluate
            # against the post-update state (in the stateful tail, after
            # the delta is applied); the others run their precompiled
            # local test against the pre-update relation.  Locality is
            # judged against *this session's* view — a shard session
            # treats sibling-shard predicates as non-local.
            if constraint.predicates() <= self.local_predicates:
                pending_local.append(constraint)
                continue
            if predicate in self.local_predicates:
                probe: Optional[Insertion] = None
                if isinstance(update, Insertion):
                    probe = update
                elif isinstance(update, Modification):
                    # The deleted tuple still contributes its reduction:
                    # the constraint held while it was stored, so its
                    # forbidden region is known clear — test the new
                    # tuple against the FULL pre-update relation.
                    probe = update.insertion
                if probe is not None:
                    plan = self.compiler.local_test_plan(constraint, predicate)
                    result = plan.run_against(probe.values, self.local_db)
                    if result is True:
                        reports[name] = CheckReport(
                            name, Outcome.SATISFIED, CheckLevel.WITH_LOCAL_DATA,
                            remote_accessed=False, detail="complete local test",
                        )
                        continue
            pending_unknown.append((constraint, CheckLevel.WITH_LOCAL_DATA))

        return reports, pending_local, pending_unknown

    def _finish(
        self,
        update: Update,
        reports: dict[str, CheckReport],
        pending_local: list[Constraint],
        pending_unknown: list[tuple[Constraint, CheckLevel]],
        remote: RemoteSource,
        max_level: CheckLevel,
        apply_when_safe: bool,
        transaction: Optional[Transaction],
        record: bool = True,
    ) -> list[CheckReport]:
        """The stateful tail of :meth:`process`: apply the delta, settle
        the pending verdicts against the post-update state, and keep or
        roll back the update.

        *record* gates the effect-log hook: drain settles re-enter this
        tail for an update the journal already holds a record for, so
        they pass ``record=False``.
        """
        pending_before = len(self._pending)
        # Apply the delta once; all post-state evaluation below shares it.
        token = self.local_db.apply(update.as_delta())
        effective = token.as_delta()
        undos = self._propagate(effective)

        # Purely local: evaluate outright via the maintained
        # materialization — the one case a definite "no" is possible
        # without remote data.
        for constraint in pending_local:
            mat = self._materialization(constraint)
            outcome = Outcome.VIOLATED if mat.fires() else Outcome.SATISFIED
            reports[constraint.name] = CheckReport(
                constraint.name, outcome, CheckLevel.WITH_LOCAL_DATA,
                remote_accessed=False, detail="constraint is purely local",
            )

        # Constraints whose missing predicates all live on sibling
        # shards are settled against the cross-shard union view: that
        # data is site-local, always reachable, so the verdict lands at
        # WITH_LOCAL_DATA and can never defer.
        if pending_unknown and self.peer_source is not None:
            pending_unknown = self._settle_with_peers(reports, pending_unknown)

        # Level 3: the full database, on request.  A remote source that
        # raises RemoteUnavailableError degrades the unresolved verdicts
        # to DEFERRED instead of crashing the stream; the update is then
        # queued for resolve_pending().
        defer_future = None
        defer_future_predicates: Optional[frozenset] = None
        if pending_unknown:
            remote_db: Optional[Database] = None
            peer_db: Optional[Database] = None
            unreachable: Optional[RemoteUnavailableError] = None
            if max_level >= CheckLevel.FULL_DATABASE and remote is not None:
                needed = self._remote_predicates(
                    constraint for constraint, _ in pending_unknown
                )
                # A constraint spanning sibling shards *and* the true
                # remote needs both; only the remote part can fail.
                peer_needed = needed & self.peer_predicates
                if self.peer_source is not None and peer_needed:
                    peer_db = _fetch_remote(self.peer_source, peer_needed)
                    self.stats.peer_fetches += 1
                    needed -= peer_needed
                try:
                    remote_db = _fetch_remote(remote, needed)
                except RemoteUnavailableError as exc:
                    unreachable = exc
                    # An overlapped link raises with the fetch still in
                    # flight; remember the future so the drain can settle
                    # from its result instead of re-fetching.
                    defer_future = getattr(exc, "future", None)
                    if defer_future is not None:
                        defer_future_predicates = getattr(
                            exc, "predicates", None
                        )
                else:
                    # A Database handed in directly (e.g. by the
                    # resolve_pending drain, which fetched it itself and
                    # already counted the trip) is not a fetch.
                    if callable(remote):
                        self.stats.remote_fetches += 1
            if remote_db is not None:
                merged = merged_view(self.local_db, (peer_db, remote_db))
                for constraint, _level in pending_unknown:
                    outcome = (
                        Outcome.SATISFIED
                        if constraint.holds(merged)
                        else Outcome.VIOLATED
                    )
                    reports[constraint.name] = CheckReport(
                        constraint.name, outcome, CheckLevel.FULL_DATABASE,
                        remote_accessed=True, detail="full evaluation",
                    )
            elif unreachable is not None:
                for constraint, level in pending_unknown:
                    reports[constraint.name] = CheckReport(
                        constraint.name, Outcome.DEFERRED, level,
                        remote_accessed=False,
                        detail=f"remote unreachable: {unreachable}",
                    )
            else:
                for constraint, level in pending_unknown:
                    reports[constraint.name] = CheckReport(
                        constraint.name, Outcome.UNKNOWN, level,
                        remote_accessed=False,
                    )

        ordered = [reports[c.name] for c in self.constraints]
        rejected = any(r.outcome is Outcome.VIOLATED for r in ordered)
        deferred = tuple(
            r.constraint_name for r in ordered if r.outcome is Outcome.DEFERRED
        )
        held = not self.apply_on_unknown and any(
            r.outcome in (Outcome.UNKNOWN, Outcome.DEFERRED) for r in ordered
        )
        if rejected or held or not apply_when_safe:
            self.local_db.undo(token)
            # Materializations that saw the delta are reverted exactly;
            # ones built mid-call (post-state) take the inverse delta.
            maintained = {id(mat) for mat, _ in undos}
            for mat, undo in undos:
                mat.revert(undo)
            if not effective.is_empty():
                inverse = effective.inverted()
                for mat in self._materializations.values():
                    if id(mat) not in maintained:
                        mat.apply_delta(inverse)
                        self.stats.incremental_deltas += 1
            if rejected:
                self.stats.rejected += 1
            elif held and apply_when_safe:
                if deferred:
                    self.stats.deferred_remote += 1
                else:
                    self.stats.deferred_unknown += 1
            if deferred and not rejected and apply_when_safe and transaction is None:
                # Pessimistic policy: the update is *held* — nothing in
                # the database — until resolution retries it.  (Inside a
                # transaction the DEFERRED verdict aborts the transaction
                # instead; a held retry after the abort would resurrect a
                # rolled-back update.)
                self._queue_pending(
                    update, deferred, reports, applied=False,
                    future=defer_future,
                    future_predicates=defer_future_predicates,
                )
        else:
            self.stats.applied += 1
            if transaction is not None:
                transaction.record(token, undos)
            if deferred:
                # Optimistic policy: the update stays applied while the
                # verdict is pending; the token lets a VIOLATED
                # resolution reverse exactly what this update changed.
                # Inside a transaction nothing is queued — the DEFERRED
                # verdict aborts the transaction instead, and an abort's
                # rollback would strand the queued entry.
                self.stats.deferred_remote += 1
                if transaction is None:
                    self._queue_pending(
                        update, deferred, reports, applied=True, token=token,
                        future=defer_future,
                        future_predicates=defer_future_predicates,
                    )
        if record and self.effect_log is not None:
            applied_now = not (rejected or held or not apply_when_safe)
            queued = (
                self._pending[-1]
                if len(self._pending) > pending_before
                else None
            )
            self.effect_log.record_update(
                update,
                ordered,
                applied=applied_now,
                token=token if applied_now else None,
                entry=queued,
            )
        return ordered

    def process(
        self,
        update: Update,
        remote: RemoteSource = None,
        max_level: CheckLevel = CheckLevel.FULL_DATABASE,
        apply_when_safe: bool = True,
        transaction: Optional[Transaction] = None,
    ) -> list[CheckReport]:
        """Check one update; apply or withhold it per the session policy.

        Levels 0-2 consult only the session state.  Constraints still
        UNKNOWN afterwards escalate to *remote* (a database, or a
        callable fetched once on first need) when *max_level* allows.
        The update stays applied to the owned database when
        *apply_when_safe* is true, no verdict is VIOLATED, and — unless
        the session was built with ``apply_on_unknown=True`` (the
        default) — every verdict is SATISFIED; otherwise it is rolled
        back exactly.  When *transaction* is given, an applied update's
        effective changes are recorded there so the whole sequence can
        be rolled back later.
        """
        self.stats.updates += 1
        reports, pending_local, pending_unknown = self._static_checks(
            update, max_level
        )
        ordered = self._finish(
            update, reports, pending_local, pending_unknown,
            remote, max_level, apply_when_safe, transaction,
        )
        if self.effect_log is not None:
            self.effect_log.safe_point()
        return ordered

    def check(
        self,
        update: Update,
        remote: RemoteSource = None,
        max_level: CheckLevel = CheckLevel.FULL_DATABASE,
    ) -> list[CheckReport]:
        """Like :meth:`process` but never keeps the update applied."""
        return self.process(update, remote, max_level, apply_when_safe=False)

    def process_transaction(
        self,
        updates: Iterable[Update],
        remote: RemoteSource = None,
        max_level: CheckLevel = CheckLevel.FULL_DATABASE,
    ) -> tuple[bool, list[list[CheckReport]]]:
        """Process a sequence of updates atomically.

        Each update is checked against the local state left by its
        predecessors (the standard deferred-abort model).  If any update
        is rejected — or stays UNKNOWN while the session applies only on
        SATISFIED, or comes back DEFERRED because the remote was
        unreachable (a transaction cannot commit with an unverified
        member) — the recorded effective tokens are replayed in reverse,
        restoring the database and every maintained materialization to
        the exact pre-transaction state.

        Returns ``(committed, reports_per_update)``; processing stops at
        the aborting update.
        """
        txn = self.transaction()
        all_reports: list[list[CheckReport]] = []
        for update in updates:
            reports = self.process(update, remote, max_level, transaction=txn)
            all_reports.append(reports)
            if aborts_transaction(reports, self.apply_on_unknown):
                txn.rollback()
                self.stats.transactions_rolled_back += 1
                return False, all_reports
        txn.commit()
        return True, all_reports

    # -- deferred verdicts -----------------------------------------------------
    def _remote_predicates(self, constraints: Iterable[Constraint]) -> set[str]:
        """The remote predicates a level-3 check of *constraints* needs —
        the restriction passed to predicate-aware remote sources so an
        escalation ships two tables, not the whole remote database."""
        needed: set[str] = set()
        for constraint in constraints:
            needed |= constraint.predicates() - self.local_predicates
        return needed

    def _settle_with_peers(
        self,
        reports: dict[str, CheckReport],
        pending_unknown: list[tuple[Constraint, CheckLevel]],
    ) -> list[tuple[Constraint, CheckLevel]]:
        """Decide the constraints whose missing predicates all live on
        sibling shards, using the lazily materialized union view.

        Returns the entries that still need the true remote.  Peer data
        is part of the same site, so these verdicts count as level 2
        (``WITH_LOCAL_DATA``) with no remote access — exactly what an
        unsharded session reports for a purely-local constraint."""
        peer_pending: list[tuple[Constraint, CheckLevel]] = []
        remaining: list[tuple[Constraint, CheckLevel]] = []
        needed: set[str] = set()
        for constraint, level in pending_unknown:
            missing = constraint.predicates() - self.local_predicates
            if missing and missing <= self.peer_predicates:
                peer_pending.append((constraint, level))
                needed |= missing
            else:
                remaining.append((constraint, level))
        if not peer_pending:
            return remaining
        peer_db = _fetch_remote(self.peer_source, needed)
        self.stats.peer_fetches += 1
        merged = merged_view(self.local_db, (peer_db,))
        for constraint, _level in peer_pending:
            outcome = (
                Outcome.SATISFIED
                if constraint.holds(merged)
                else Outcome.VIOLATED
            )
            reports[constraint.name] = CheckReport(
                constraint.name, outcome, CheckLevel.WITH_LOCAL_DATA,
                remote_accessed=False, detail="cross-shard union view",
            )
        return remaining

    def _next_seq(self) -> int:
        if self._seq_source is not None:
            return self._seq_source()
        self._pending_seq += 1
        return self._pending_seq

    def _queue_pending(
        self,
        update: Update,
        unresolved: tuple[str, ...],
        reports: dict[str, CheckReport],
        applied: bool,
        token: Optional[UndoToken] = None,
        future: Optional[object] = None,
        future_predicates: Optional[frozenset] = None,
    ) -> None:
        self._pending.append(
            PendingVerdict(
                seq=self._next_seq(),
                update=update,
                unresolved=unresolved,
                reports=dict(reports),
                applied=applied,
                token=token,
                future=future,
                future_predicates=future_predicates,
            )
        )

    @property
    def pending(self) -> tuple[PendingVerdict, ...]:
        """The queued deferred verdicts, oldest first (read-only view)."""
        return tuple(self._pending)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def resolve_pending(
        self,
        remote: RemoteSource,
        max_level: CheckLevel = CheckLevel.FULL_DATABASE,
    ) -> list[PendingVerdict]:
        """Drain the deferred-verdict queue while the remote answers.

        The paper's level-3 test is a *global* consistency check, sound
        because the pre-update state is known consistent.  Optimistically
        applied deferred updates break that premise: one bad unverified
        fact would implicate every entry checked after it.  The drain
        therefore **quarantines** first — every applied pending entry's
        effective token is reversed (newest first) so the session holds
        verified facts only — and then settles entries oldest-first,
        re-running each through the full level pipeline against the
        verified state plus the fetched remote data and re-applying it
        when safe, exactly as if the entries were arriving now in their
        original order.  A previously applied entry whose re-check comes
        back VIOLATED simply stays reversed (counted in
        :attr:`SessionStats.deferred_rolled_back`).

        Returns the entries settled by this call, their ``reports``
        updated in place with the final verdicts.  The drain survives
        **partial recovery**: a fetch failure that names the failed
        sites (:attr:`~repro.errors.RemoteUnavailableError.sites`, as a
        federated fan-out raises it) marks only those sites *dark* and
        the walk continues, settling exactly the entries whose full
        site-need set is still covered.  An entry is skipped when (a) it
        needs a dark site, or (b) settling it out of order would not
        commute with an already-skipped entry — i.e. some constraint
        mentions both its update predicate and a skipped one; every
        skipped entry's predicate joins the *blocked* set so the guard
        is transitive.  Out-of-order settling is sound because the
        quarantine has already stripped every unverified fact (the
        settle runs against verified state only) and the commutation
        guard means the skipped updates could equally well have arrived
        after the settled ones.  An unattributed failure (a legacy
        single-site source with unknown needs) stops the walk as
        before.  Either way un-settled quarantined entries are re-applied
        exactly (rolling back the reversal) and the remainder stays
        queued; the call never raises
        :class:`~repro.errors.RemoteUnavailableError`.
        """
        quarantined: dict[int, UndoToken] = {}
        resolved: list[PendingVerdict] = []
        try:
            # Quarantine: strip the unverified optimistic facts, newest
            # first.
            for entry in reversed(self._pending):
                reversal = self._quarantine_entry(entry)
                if reversal is not None:
                    quarantined[entry.seq] = reversal
            dark: set[str] = set()
            blocked: set[str] = set()
            index = 0
            while index < len(self._pending):
                entry = self._pending[index]
                if self._drain_blocked(entry, dark, blocked):
                    blocked.add(entry.update.predicate)
                    index += 1
                    continue
                try:
                    resolved.append(
                        self._settle_at(index, remote, max_level, quarantined)
                    )
                except RemoteUnavailableError as exc:
                    failed = set(exc.sites) or self._entry_site_needs(entry)
                    if not failed:
                        break
                    dark |= failed
                    blocked.add(entry.update.predicate)
                    index += 1
        finally:
            self._redo_quarantined(quarantined)
        return resolved

    # -- drain building blocks (shared with ShardedChecker) --------------------
    def _entry_needed_predicates(self, entry: PendingVerdict) -> set[str]:
        """The off-site predicates a settle of *entry* must fetch."""
        needed = self._remote_predicates(
            constraint
            for constraint in self.constraints
            if self.compiler.mentions(constraint, entry.update.predicate)
        )
        # Sibling-shard predicates come from the always-reachable peer
        # source (the settle re-fetches them itself); only the true
        # off-site part is the fetch's job.
        return needed - self.peer_predicates

    def _entry_site_needs(self, entry: PendingVerdict) -> frozenset[str]:
        """The minimal set of remote sites that can settle *entry*."""
        return self.compiler.predicate_sites(self._entry_needed_predicates(entry))

    def _drain_blocked(
        self, entry: PendingVerdict, dark: set[str], blocked: set[str]
    ) -> bool:
        """Must the partial-recovery walk skip *entry*?

        Yes when its site needs touch a dark site, or when settling it
        out of order would not commute with an already-skipped entry: a
        constraint ties its update predicate to a *different* skipped
        predicate, or to the *same* one through a self-join or negation
        (:meth:`~repro.core.compiler.ConstraintCompiler.single_binding`
        clears the common same-predicate stream case)."""
        if dark and self._entry_site_needs(entry) & dark:
            return True
        if blocked:
            predicate = entry.update.predicate
            for constraint in self.constraints:
                if not self.compiler.mentions(constraint, predicate):
                    continue
                others = blocked - {predicate}
                if any(
                    self.compiler.mentions(constraint, other)
                    for other in others
                ):
                    return True
            if predicate in blocked and not self.compiler.single_binding(
                predicate
            ):
                return True
        return False

    def _quarantine_entry(self, entry: PendingVerdict) -> Optional[UndoToken]:
        """Reverse one applied pending entry's effective token (no-op for
        held entries); returns the reversal for the redo."""
        if entry.applied and entry.token is not None:
            return rollback_token(
                self.local_db, entry.token, self._materializations.values()
            )
        return None

    def _settle_at(
        self,
        position: int,
        remote: RemoteSource,
        max_level: CheckLevel,
        quarantined: dict[int, UndoToken],
    ) -> PendingVerdict:
        """Fetch for and settle the queued entry at *position*.

        The whole pipeline is re-run, and its level-2 outcome may differ
        against today's state — the fetch covers every remote predicate
        any constraint on the entry's relation could escalate for.
        Raises :class:`~repro.errors.RemoteUnavailableError` (leaving the
        entry queued) when the remote stays unreachable, or when the
        entry's overlapped escalation future is still in flight — the
        drain must not settle from data it does not have yet.

        An entry carrying a completed future settles from that result as
        long as the future's predicate restriction covers today's needs
        (an unrestricted fetch always does); a too-narrow snapshot would
        silently treat the missing relations as empty, so it is discarded
        and the settle falls back to a synchronous fetch.  A future that
        *failed* is cleared too — the next drain round re-fetches.
        """
        entry = self._pending[position]
        needed = self._entry_needed_predicates(entry)
        remote_db: Optional[Database] = None
        future = entry.future
        if future is not None:
            covered = (
                entry.future_predicates is None
                or needed <= set(entry.future_predicates)
            )
            if not covered:
                entry.future = None
                entry.future_predicates = None
            elif not future.done():
                raise RemoteUnavailableError(
                    "escalation fetch still in flight", reason="in-flight"
                )
            else:
                entry.future = None
                entry.future_predicates = None
                # Raises RemoteUnavailableError on a failed fetch, which
                # stops the drain exactly like a synchronous failure; the
                # cleared future makes the next round fetch fresh.
                remote_db = future.result()
        if remote_db is None:
            remote_db = _fetch_remote(remote, needed)
        self.stats.remote_fetches += 1
        self._pending.pop(position)
        quarantined.pop(entry.seq, None)
        self._settle_pending(entry, remote_db, max_level)
        self.stats.deferred_resolved += 1
        return entry

    def _redo_quarantined(self, quarantined: dict[int, UndoToken]) -> None:
        """Re-apply the reversals of entries still queued.  rollback_token
        returned the effectively-reversed subset *in the original
        orientation*, so the redo is a forward application, oldest
        first."""
        for entry in self._pending:
            reversal = quarantined.pop(entry.seq, None)
            if reversal is not None:
                redo = self.local_db.apply(reversal.as_delta())
                effective = redo.as_delta()
                if not effective.is_empty():
                    for mat in self._materializations.values():
                        mat.apply_delta(effective)

    def _settle_pending(
        self,
        entry: PendingVerdict,
        remote_db: Database,
        max_level: CheckLevel,
        record: bool = False,
    ) -> None:
        """Finalize one queue entry against a successfully fetched remote.

        The entry's quarantine reversal (if it was applied) has already
        happened; the update is simply retried end to end against the
        current verified state.  ``stats.updates`` was counted at defer
        time, so the pipeline is driven directly rather than through
        :meth:`process`.  Drains settle with ``record=False`` (they are
        never journalled); the process-pool escalation bounce settles the
        just-deferred tail entry with ``record=True`` so the journal gets
        the *final* record — settled verdicts and the fresh apply token —
        instead of the provisional deferred one.
        """
        was_applied = entry.applied
        reports, pending_local, pending_unknown = self._static_checks(
            entry.update, max_level
        )
        ordered = self._finish(
            entry.update, reports, pending_local, pending_unknown,
            remote_db, max_level, True, None, record=record,
        )
        entry.reports = {r.constraint_name: r for r in ordered}
        entry.unresolved = ()
        entry.token = None
        rejected = any(r.outcome is Outcome.VIOLATED for r in ordered)
        entry.applied = not rejected
        if was_applied:
            # Applied was counted at defer time; _finish just counted the
            # re-application (or nothing, on a rejection that makes the
            # quarantine reversal permanent).
            self.stats.applied -= 1
            if rejected:
                self.stats.deferred_rolled_back += 1

    def process_stream(
        self,
        updates: Iterable[Update],
        remote: RemoteSource = None,
        max_level: CheckLevel = CheckLevel.FULL_DATABASE,
        transaction: Optional[Transaction] = None,
    ) -> list[list[CheckReport]]:
        """Process a sequence of updates, applying each safe one.

        Updates are pulled one at a time, so a generator may prepare
        per-update state just before its update is processed (the
        sharded checker stamps the arrival sequence number a deferral
        reads).  With a *transaction*, every applied update's effective
        changes are recorded there so the caller can roll the whole
        stream back exactly.
        """
        return [
            self.process(update, remote, max_level, transaction=transaction)
            for update in updates
        ]
