"""Process-pool shard execution: the sharded protocol across processes.

:class:`~repro.distributed.sharded.ShardedChecker` with
``executor="process"`` runs each shard's level pipeline in its own
worker **process** instead of a thread.  The GIL then stops being the
ceiling for CPU-bound maintenance work — but nothing object-shaped can
cross the boundary.  The contract (DESIGN.md §11):

* each worker owns a serialized *state slice*: its shard's facts plus a
  :class:`~repro.core.session.CheckSession` rebuilt over a prewarmed
  :class:`~repro.core.compiler.ConstraintCompiler` from constraint
  *source strings* (:class:`ShardConfig` — a pure-data pickle, no live
  stores or sessions ever cross);
* only picklable messages cross: update objects in,
  :class:`~repro.core.outcomes.CheckReport` lists, fact tuples, and
  :class:`~repro.core.session.SessionStats` snapshots out;
* a worker can never reach the remote site.  Its session runs against a
  raising remote source, so an escalation defers at the process
  boundary and the **parent bounces it**: the worker reports the needed
  predicates, the parent fetches through its fault-tolerant link, and
  either ships the facts back (the worker settles the just-queued entry
  tail — verdicts land exactly where the serial run's would) or ships
  the failure detail (the entry stays queued, byte-identical DEFERRED
  reports).  The breaker therefore sees the same fetch sequence as the
  serial run;
* the deferred-verdict drain is parent-coordinated: per-worker
  quarantine (``drain_begin``), a global oldest-first walk over the
  shard queues with the parent evaluating the partial-recovery
  dark/blocked guards on its own compiler, one fetch +
  ``drain_settle`` per eligible entry, and ``drain_end`` to redo what
  stayed queued.  Shard databases are disjoint, so per-worker
  quarantine order is physically equivalent to the global newest-first
  order the thread executor uses.

Verdicts and final database state are byte-identical to the serial
checker, and so is every protocol counter except the level-1 cache hit
counts of the per-process compilers (an escalation-capable update always
runs as its own slice so the worker never defers mid-stream).

The parent additionally **supervises** its workers: a worker process
that dies (OOM-killed, segfaulted, ``kill -9``-ed) surfaces as
``BrokenProcessPool`` on the next command, and the runner respawns it
from the shard's :class:`ShardConfig` baseline, replays the parent-held
log of mutating commands since that baseline (every command is
deterministic because the parent injects all remote and sibling-shard
data with the command itself), and retries the command that found the
pool broken — it never reached the worker's state, so the retry is
exact.  The baseline is refreshed from the live worker every
``_REFRESH_EVERY`` mutating commands so a respawn replays a short
suffix, not the whole history.  Each respawn counts into
``ProtocolStats.worker_restarts``; once a shard exhausts
``max_worker_restarts``, the typed
:class:`~repro.errors.ShardWorkerCrashed` (shard index + last
dispatched sequence number) propagates instead of the raw pool error.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Iterable, Mapping, Optional, Sequence

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.compiler import ConstraintCompiler
from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.core.session import CheckSession, _fetch_remote
from repro.datalog.database import Database
from repro.distributed.rebalance import extract_range, inject_range
from repro.errors import RemoteUnavailableError, ShardWorkerCrashed
from repro.updates.update import Update

__all__ = ["ShardConfig", "ProcessShardRunner"]


@dataclass(frozen=True)
class ShardConfig:
    """Everything a worker process needs to rebuild one shard's session.

    Pure data: constraints travel as ``(name, source)`` pairs and facts
    as tuples, so the pickle carries no live engine, database, or lock.
    """

    shard: int
    constraint_sources: tuple[tuple[str, str], ...]
    site_predicates: frozenset
    local_predicates: frozenset
    peer_predicates: frozenset
    #: predicate -> owning remote site name (the federation placement)
    placement: tuple[tuple[str, str], ...]
    use_interval_datalog: bool
    apply_on_unknown: bool
    facts: tuple[tuple[str, tuple], ...]
    #: stage effect records in the worker for the parent's journal
    #: (workers never touch the journal file — effects ride the
    #: command results; see ``_WorkerEffectLog``)
    journal: bool = False


# ---------------------------------------------------------------------------
# Worker-side state and commands.  Everything below the line runs inside
# the shard's worker process; the module-global ``_WORKER`` dict is that
# process's whole mutable state (single-worker pools serialize commands,
# so no locking is needed).
# ---------------------------------------------------------------------------

_WORKER: dict = {}


class _WorkerEffectLog:
    """Worker-side stand-in for the journal's effect log.

    A worker process must never touch the journal file — the parent owns
    the single append stream and its commit order.  Instead the session
    stages its would-be records here, and each stream command drains the
    staged list into its (picklable) result; the parent commits them
    through its :class:`~repro.durability.journal.OrderedJournalCommitter`.
    Replayed commands during a worker revive stage again, but the parent
    discards replay results, so every effect journals exactly once.
    """

    __slots__ = ("staged",)

    def __init__(self) -> None:
        self.staged: list[tuple] = []

    def record_update(self, update, reports, *, applied, token, entry) -> None:
        self.staged.append((update, list(reports), applied, token, entry))

    def safe_point(self) -> None:
        """Sync/checkpoint cadence is parent-side (per committed record)."""


def _clear_effects() -> None:
    log = _WORKER["session"].effect_log
    if log is not None:
        log.staged = []


def _drain_effects() -> Optional[list[tuple]]:
    log = _WORKER["session"].effect_log
    if log is None:
        return None
    staged = log.staged
    log.staged = []
    return staged


def _boundary_remote(predicates=None):
    """The worker's remote source: always unreachable.  An escalation
    defers and queues exactly as behind a dead link; the parent then
    bounces the fetch through its own link."""
    raise RemoteUnavailableError(
        "escalation crosses the process boundary", reason="process-boundary"
    )


def _peer_source(predicates=None):
    """Serve the sibling-shard facts the parent injected with the
    current command.  Fence scheduling guarantees a spanning read only
    ever happens under a command that carried them."""
    peer_db = _WORKER.get("peer_db")
    if peer_db is None:
        raise RuntimeError(
            "spanning read without injected peer facts (fence protocol bug)"
        )
    if predicates is None:
        return peer_db
    restricted = Database()
    wanted = set(predicates)
    for predicate in peer_db.predicates():
        if predicate in wanted:
            for fact in peer_db.facts(predicate):
                restricted.insert(predicate, fact)
    return restricted


def _build_db(facts: Mapping[str, Iterable[tuple]]) -> Database:
    db = Database()
    for predicate, rows in facts.items():
        for row in rows:
            db.insert(predicate, tuple(row))
    return db


def _watch_parent(parent_pid: int) -> None:
    """Exit the worker once its parent is gone (reparented to init).

    A ``kill -9`` of the parent cannot run executor shutdown, and the
    pool's call-queue pipe never sees EOF (every worker inherits the
    write end), so orphaned workers would otherwise block on the queue
    forever — and keep the crashed run's stdout/stderr pipes open,
    wedging any supervisor that waits for them.  The crash-safety story
    (journal + ``--resume``) only works if a hard kill actually ends
    the whole tree.
    """
    while os.getppid() == parent_pid:
        time.sleep(1.0)
    os._exit(2)


def _init_worker(config: ShardConfig) -> None:
    threading.Thread(
        target=_watch_parent, args=(os.getppid(),), daemon=True
    ).start()
    constraints = ConstraintSet(
        [
            Constraint(source, name)
            for name, source in config.constraint_sources
        ]
    )
    placement = dict(config.placement)
    compiler = ConstraintCompiler(
        constraints,
        config.site_predicates,
        config.use_interval_datalog,
        site_of=placement.get,
    )
    compiler.prewarm()
    seq_cell = [0]
    session = CheckSession(
        compiler=compiler,
        local_predicates=config.local_predicates,
        local_db=_build_db(dict(config.facts)),
        apply_on_unknown=config.apply_on_unknown,
        peer_predicates=config.peer_predicates,
        peer_source=_peer_source,
        seq_source=lambda: seq_cell[0],
    )
    if config.journal:
        session.effect_log = _WorkerEffectLog()
    _WORKER.clear()
    _WORKER.update(
        {
            "session": session,
            "compiler": compiler,
            "seq": seq_cell,
            "peer_db": None,
        }
    )


def _cmd_ping() -> bool:
    return "session" in _WORKER


def _cmd_run_slice(items: Sequence[tuple[int, Update]]) -> dict:
    """One fence-free, escalation-free run of updates through the
    worker's session, in stream order.  Returns the per-update report
    lists plus the staged journal effects (one per update, slice order)
    when the worker journals."""
    session = _WORKER["session"]
    cell = _WORKER["seq"]
    _clear_effects()

    def feed():
        # Stamp each update's arrival just before the session pulls it.
        for seq, update in items:
            cell[0] = seq
            yield update

    results = session.process_stream(feed(), remote=_boundary_remote)
    for reports in results:
        if any(r.outcome is Outcome.DEFERRED for r in reports):
            raise RuntimeError(
                "escalation inside a fence-free slice (routing bug: the "
                "parent must dispatch escalation-capable updates alone)"
            )
    return {"results": results, "effects": _drain_effects()}


def _cmd_run_one(
    seq: int,
    update: Update,
    peer_facts: Mapping[str, Iterable[tuple]],
) -> dict:
    """One update that may read peers (fenced) or escalate (bounced).

    Returns the reports plus, when the update deferred at the process
    boundary, the off-site predicates the parent must fetch — and
    whether the deferral queued a pending entry (it does not when
    another constraint already rejected the update outright).
    """
    session = _WORKER["session"]
    _WORKER["peer_db"] = _build_db(peer_facts)
    _WORKER["seq"][0] = seq
    _clear_effects()
    pending_before = session.pending_count
    reports = session.process(update, remote=_boundary_remote)
    needed: Optional[list[str]] = None
    if any(r.outcome is Outcome.DEFERRED for r in reports):
        needed = sorted(
            session._remote_predicates(
                constraint
                for constraint in session.constraints
                if session.compiler.mentions(constraint, update.predicate)
            )
            - session.peer_predicates
        )
    return {
        "reports": reports,
        "needed": needed,
        "queued": session.pending_count > pending_before,
        "effects": _drain_effects(),
    }


def _cmd_settle_tail(facts: Mapping[str, Iterable[tuple]]) -> dict:
    """Settle the just-bounced tail entry with the facts the parent
    fetched, leaving verdicts, state, and counters exactly as if the
    worker had reached the remote itself.  Under journaling the settle
    re-records, so the bounced update's journal slot gets the *final*
    verdicts and a fresh application token instead of the deferred
    stand-ins staged by ``_cmd_run_one``."""
    session = _WORKER["session"]
    _clear_effects()
    entry = session._pending.pop()
    session._quarantine_entry(entry)
    was_applied = entry.applied
    session._settle_pending(
        entry, _build_db(facts), CheckLevel.FULL_DATABASE,
        record=session.effect_log is not None,
    )
    # The serial run never deferred here: it fetched (one remote fetch)
    # and settled in-stream.  Compensate the defer-time counters.
    session.stats.remote_fetches += 1
    session.stats.deferred_remote -= 1
    if was_applied and not entry.applied:
        session.stats.deferred_rolled_back -= 1
    return {
        "reports": entry.ordered_reports(session.constraints),
        "effects": _drain_effects(),
    }


def _cmd_rerun_with_remote(
    update: Update, facts: Mapping[str, Iterable[tuple]]
) -> dict:
    """Re-run an update that deferred *without* queueing (a sibling
    constraint rejected it outright, so ``_finish`` rolled it back and
    left nothing pending) now that the parent has the remote facts.
    The serial run fetched in-stream and produced definite FULL-level
    verdicts alongside the rejection; replaying against the identical
    pre-state reproduces them.  The deferred attempt already counted
    the update and the rejection — compensate before recounting."""
    session = _WORKER["session"]
    _clear_effects()
    session.stats.updates -= 1
    session.stats.rejected -= 1
    reports = session.process(update, remote=_build_db(facts))
    return {"reports": reports, "effects": _drain_effects()}


def _cmd_patch_defer_detail(detail: str) -> list[CheckReport]:
    """The parent's bounce fetch failed: the entry stays queued, but its
    DEFERRED reports take the *link's* failure detail so the stream
    output is byte-identical to the serial run's."""
    session = _WORKER["session"]
    entry = session._pending[-1]
    for name in entry.unresolved:
        old = entry.reports[name]
        entry.reports[name] = CheckReport(
            name, old.outcome, old.level,
            remote_accessed=False,
            detail=f"remote unreachable: {detail}",
        )
    return entry.ordered_reports(session.constraints)


def _cmd_contains(predicate: str, values: tuple) -> bool:
    return tuple(values) in _WORKER["session"].local_db.facts(predicate)


def _cmd_apply_unchecked(update: Update) -> None:
    _WORKER["session"].apply_unchecked(update)


def _cmd_dump_facts(
    predicates: Optional[Sequence[str]] = None,
) -> dict[str, list[tuple]]:
    db = _WORKER["session"].local_db
    names = db.predicates() if predicates is None else (
        set(predicates) & db.predicates()
    )
    return {
        predicate: sorted(db.facts(predicate), key=repr)
        for predicate in names
    }


def _cmd_stats() -> dict:
    session = _WORKER["session"]
    return {
        "stats": session.stats,
        "level1": _WORKER["compiler"].level1_cache_info(),
        "pending": session.pending_count,
    }


def _cmd_drain_begin() -> list[dict]:
    """Enter the drain: quarantine every applied pending entry (newest
    first within the shard — the shard databases are disjoint, so this
    is physically equivalent to the thread executor's global
    newest-first order), and describe the queue so the parent can walk
    it globally oldest-first."""
    session = _WORKER["session"]
    quarantined = {}
    for entry in reversed(session._pending):
        reversal = session._quarantine_entry(entry)
        if reversal is not None:
            quarantined[entry.seq] = reversal
    _WORKER["drain_quarantine"] = quarantined
    return [
        {
            "seq": entry.seq,
            "predicate": entry.update.predicate,
            "needed": sorted(session._entry_needed_predicates(entry)),
            "sites": sorted(session._entry_site_needs(entry)),
        }
        for entry in session._pending
    ]


def _cmd_drain_settle(
    seq: int,
    facts: Mapping[str, Iterable[tuple]],
    peer_facts: Mapping[str, Iterable[tuple]],
) -> tuple[Update, list[CheckReport]]:
    session = _WORKER["session"]
    _WORKER["peer_db"] = _build_db(peer_facts)
    for position, entry in enumerate(session._pending):
        if entry.seq == seq:
            break
    else:
        raise RuntimeError(f"drain_settle: no pending entry with seq {seq}")
    entry = session._settle_at(
        position,
        _build_db(facts),
        CheckLevel.FULL_DATABASE,
        _WORKER["drain_quarantine"],
    )
    return entry.update, entry.ordered_reports(session.constraints)


def _cmd_drain_end() -> dict:
    session = _WORKER["session"]
    session._redo_quarantined(_WORKER.pop("drain_quarantine", {}))
    return _cmd_stats()


def _cmd_extract_range(predicate: str, lo, hi) -> dict:
    """Worker wrapper over :func:`repro.distributed.rebalance.extract_range`
    (pure-data result: facts and entry descriptions pickle as-is — the
    boundary remote never hands a worker entry a live future)."""
    return extract_range(_WORKER["session"], predicate, lo, hi)


def _cmd_inject_range(
    predicate: str, facts: Sequence[tuple], entries: Sequence[dict]
) -> None:
    """Worker wrapper over :func:`repro.distributed.rebalance.inject_range`."""
    inject_range(_WORKER["session"], predicate, facts, entries)


def _cmd_dump_state() -> dict:
    """The worker's whole rebuildable state, for the parent's
    supervision baseline: the current facts (applied optimistic deltas
    included), the pending queue verbatim (entries are pure data here —
    undo tokens are plain fact-set dicts, and a worker entry never
    carries a fetch future because its remote source always raises),
    and the session stats snapshot."""
    session = _WORKER["session"]
    for entry in session._pending:
        if entry.future is not None:
            raise RuntimeError(
                "worker pending entry carries a future (boundary bug)"
            )
    return {
        "facts": _cmd_dump_facts(None),
        "pending": list(session._pending),
        "stats": session.stats,
    }


def _cmd_restore_state(pending: Sequence, stats) -> None:
    """Install a supervision baseline into a freshly respawned worker.
    The facts already arrived through the :class:`ShardConfig` pickle;
    the pending queue and stats land verbatim — the queued tokens undo
    by value, so they stay valid against the rebuilt database."""
    session = _WORKER["session"]
    session._pending[:] = list(pending)
    session.stats = stats


def _cmd_set_journal(on: bool) -> None:
    """Attach (or detach) the worker's staging effect log on a live
    worker.  Respawned workers get it through ``ShardConfig.journal``
    instead, so a revive mid-journalled-stream stages replays too."""
    session = _WORKER["session"]
    session.effect_log = _WorkerEffectLog() if on else None


def _cmd_checkpoint_state() -> dict:
    """The manifest-shaped slice of worker state: the pending queue
    (pure data — a worker entry never carries a live future), the
    session stats, and the last arrival seq stamped on this worker."""
    session = _WORKER["session"]
    for entry in session._pending:
        if entry.future is not None:
            raise RuntimeError(
                "worker pending entry carries a future (boundary bug)"
            )
    return {
        "pending": list(session._pending),
        "stats": session.stats,
        "seq": _WORKER["seq"][0],
    }


#: commands that change worker state — the ones the parent's
#: supervision log must replay into a respawned worker
_MUTATING = frozenset(
    {
        _cmd_run_slice,
        _cmd_run_one,
        _cmd_settle_tail,
        _cmd_rerun_with_remote,
        _cmd_patch_defer_detail,
        _cmd_apply_unchecked,
        _cmd_drain_begin,
        _cmd_drain_settle,
        _cmd_drain_end,
        _cmd_extract_range,
        _cmd_inject_range,
    }
)

#: mutating commands between supervision-baseline refreshes
_REFRESH_EVERY = 64


def _patch_detail(
    reports: list[CheckReport], detail: str
) -> list[CheckReport]:
    """Rewrite DEFERRED reports with the parent link's failure detail
    (the unqueued-rejection case — no worker entry to patch)."""
    return [
        CheckReport(
            report.constraint_name, report.outcome, report.level,
            remote_accessed=False,
            detail=f"remote unreachable: {detail}",
        )
        if report.outcome is Outcome.DEFERRED
        else report
        for report in reports
    ]


# ---------------------------------------------------------------------------
# Parent side.
# ---------------------------------------------------------------------------


class ProcessShardRunner:
    """Drive one single-worker :class:`ProcessPoolExecutor` per shard on
    behalf of a :class:`~repro.distributed.sharded.ShardedChecker`.

    The runner owns no protocol logic of its own: routing, fence
    classification, and the partial-recovery guards all come from the
    parent checker's compiler, and every verdict is produced by the
    worker sessions.  Single-worker pools serialize commands per shard,
    so worker-held state (the drain's quarantine) is safe without
    locks.
    """

    def __init__(self, checker) -> None:
        self.checker = checker
        self._pools: list[ProcessPoolExecutor] = []
        self._stats_cache: list[Optional[dict]] = [None] * checker.shards
        #: per-shard respawn baseline: the (refreshed) ShardConfig plus
        #: the pending queue / stats captured with it
        self._configs: list[ShardConfig] = []
        self._baselines: list[Optional[dict]] = [None] * checker.shards
        #: mutating commands successfully applied since the baseline
        self._log: list[list[tuple]] = [[] for _ in range(checker.shards)]
        self._restarts = [0] * checker.shards
        self._last_seq = [0] * checker.shards
        self._in_drain = False
        #: the parent-held OrderedJournalCommitter once a journal is
        #: attached; workers only ever see the staging stand-in
        self._journal = None
        placement = tuple(
            sorted(
                (predicate, site)
                for predicate in self._constraint_predicates()
                if (site := checker.sites.site_of(predicate)) is not None
            )
        )
        sources = tuple(
            (constraint.name, str(constraint.program))
            for constraint in checker.constraints
        )
        for shard in range(checker.shards):
            local = checker._owned[shard] | checker.key_aligned
            db = checker._shard_dbs[shard]
            config = ShardConfig(
                shard=shard,
                constraint_sources=sources,
                site_predicates=checker.site_predicates,
                local_predicates=local,
                peer_predicates=(
                    checker.site_predicates - local
                ),
                placement=placement,
                use_interval_datalog=checker.compiler.use_interval_datalog,
                apply_on_unknown=checker.apply_on_unknown,
                facts=tuple(
                    (predicate, tuple(db.facts(predicate)))
                    for predicate in sorted(db.predicates())
                ),
            )
            self._configs.append(config)
            self._pools.append(self._spawn(config))
        # Spawn the workers now, single-threaded, so no fork happens
        # later under segment driver threads — and so a config that
        # cannot pickle or rebuild fails here, not mid-stream.
        for future in [pool.submit(_cmd_ping) for pool in self._pools]:
            if not future.result():
                raise RuntimeError("shard worker failed to initialize")

    def _constraint_predicates(self) -> set[str]:
        predicates: set[str] = set(self.checker.site_predicates)
        for constraint in self.checker.constraints:
            predicates |= constraint.predicates()
        return predicates

    @staticmethod
    def _spawn(config: ShardConfig) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            initializer=_init_worker,
            initargs=(config,),
        )

    def _submit(self, shard: int, command, *args):
        # A pool whose worker already died raises at submit time, not
        # just at result time — revive before dispatching.
        while True:
            try:
                return self._pools[shard].submit(command, *args)
            except BrokenProcessPool:
                self._revive(shard)

    def _call(self, shard: int, command, *args):
        return self._result(
            shard, self._submit(shard, command, *args), command, args
        )

    # -- worker supervision ---------------------------------------------------
    def _result(self, shard: int, future, command, args=()):
        """Await one command, supervising the worker: a dead process
        surfaces as ``BrokenProcessPool``, the shard is revived (respawn
        from baseline + command-log replay), and the command retried —
        it never reached the revived worker's state, so the retry is
        exact.  Mutating commands join the replay log only once they
        succeed."""
        try:
            value = future.result()
        except BrokenProcessPool:
            value = self._retry(shard, command, args)
        if command in _MUTATING:
            self._log[shard].append((command, args))
            self._maybe_refresh(shard)
        return value

    def _retry(self, shard: int, command, args):
        while True:
            self._revive(shard)
            try:
                return self._pools[shard].submit(command, *args).result()
            except BrokenProcessPool:
                continue

    def _revive(self, shard: int) -> None:
        """Respawn a dead shard worker and rehydrate it: baseline config
        (facts) through the initializer, baseline pending queue + stats
        through ``_cmd_restore_state``, then the mutating-command log
        replayed in order.  Raises :class:`ShardWorkerCrashed` once the
        shard's restart budget is exhausted."""
        checker = self.checker
        self._restarts[shard] += 1
        if self._restarts[shard] > checker.max_worker_restarts:
            raise ShardWorkerCrashed(
                f"shard {shard} worker process died and its restart "
                f"budget (max_worker_restarts="
                f"{checker.max_worker_restarts}) is exhausted",
                shard=shard,
                last_seq=self._last_seq[shard],
            )
        checker.stats.worker_restarts += 1
        self._pools[shard].shutdown(wait=False)
        pool = self._spawn(self._configs[shard])
        self._pools[shard] = pool
        self._stats_cache[shard] = None
        try:
            if not pool.submit(_cmd_ping).result():
                raise RuntimeError(
                    "respawned shard worker failed to initialize"
                )
            baseline = self._baselines[shard]
            if baseline is not None:
                pool.submit(
                    _cmd_restore_state, baseline["pending"], baseline["stats"]
                ).result()
            for command, args in self._log[shard]:
                pool.submit(command, *args).result()
        except BrokenProcessPool:
            # Died again mid-rehydration: charge another restart and
            # rebuild from the baseline (the budget bounds the loop).
            self._revive(shard)
            return
        checker._chaos_hit("worker-revive")

    def _maybe_refresh(self, shard: int) -> None:
        """Re-baseline every ``_REFRESH_EVERY`` mutating commands, so a
        respawn replays a short suffix instead of the whole history —
        but never mid-drain: the drain's worker-held quarantine must stay
        inside one replayable begin..end command span."""
        if self._in_drain or len(self._log[shard]) < _REFRESH_EVERY:
            return
        try:
            state = self._pools[shard].submit(_cmd_dump_state).result()
        except BrokenProcessPool:
            return  # the next command revives and replays the old log
        self._configs[shard] = replace(
            self._configs[shard],
            facts=tuple(
                (predicate, tuple(tuple(fact) for fact in facts))
                for predicate, facts in sorted(state["facts"].items())
            ),
        )
        self._baselines[shard] = {
            "pending": state["pending"],
            "stats": state["stats"],
        }
        self._log[shard].clear()

    # -- journal plumbing -----------------------------------------------------
    def attach_journal(self, committer) -> None:
        """Route worker effects into the parent's write-ahead journal.

        Workers never touch the journal file: each stream command stages
        its would-be records in a :class:`_WorkerEffectLog` and returns
        them with its result, and the parent commits them here — in
        arrival order per shard, folded into stream-position order by
        the :class:`~repro.durability.journal.OrderedJournalCommitter`.
        The flag also lands in the respawn configs, so a worker revived
        mid-stream stages its replayed commands too (the parent discards
        replay results, so each effect journals exactly once).
        """
        self._journal = committer
        self._configs = [
            replace(config, journal=True) for config in self._configs
        ]
        for shard in range(self.checker.shards):
            self._call(shard, _cmd_set_journal, True)

    def _stage_effect(self, journal_pos: Optional[int], effect) -> None:
        if self._journal is None:
            return
        if effect is None:
            raise RuntimeError(
                "journal attached but the worker returned no effect "
                "record (worker/parent journal wiring bug)"
            )
        pos = (
            journal_pos
            if journal_pos is not None
            else self._journal.reserve_next()
        )
        update, reports, applied, token, entry = effect
        self._journal.stage(pos, ("u", update, reports, applied, token, entry))

    @staticmethod
    def _patch_effect(effect, detail: str):
        """Mirror ``_cmd_patch_defer_detail`` / ``_patch_detail`` on the
        parent's copy of a staged effect, so the journalled reports (and
        the pending descriptor's) carry the link's failure detail."""
        if effect is None:
            return None
        update, reports, applied, token, entry = effect
        patched = _patch_detail(reports, detail)
        if entry is not None:
            for name in entry.unresolved:
                old = entry.reports[name]
                entry.reports[name] = CheckReport(
                    name, old.outcome, old.level,
                    remote_accessed=False,
                    detail=f"remote unreachable: {detail}",
                )
        return (update, patched, applied, token, entry)

    # -- fact plumbing --------------------------------------------------------
    def gather_facts(
        self, predicates: set[str], exclude: Optional[int] = None
    ) -> dict[str, list[tuple]]:
        """Merge the requested predicates' facts from every shard but
        *exclude* — the cross-shard part of a union view."""
        if not predicates:
            return {}
        wanted = sorted(predicates)
        futures = [
            (shard, self._submit(shard, _cmd_dump_facts, wanted))
            for shard in range(self.checker.shards)
            if shard != exclude
        ]
        merged: dict[str, list[tuple]] = {}
        for shard, future in futures:
            dumped = self._result(shard, future, _cmd_dump_facts, (wanted,))
            for predicate, facts in dumped.items():
                merged.setdefault(predicate, []).extend(
                    tuple(fact) for fact in facts
                )
        return merged

    def contains(self, shard: int, predicate: str, values: tuple) -> bool:
        return self._call(shard, _cmd_contains, predicate, tuple(values))

    def apply_unchecked(self, shard: int, update: Update) -> None:
        self._call(shard, _cmd_apply_unchecked, update)

    def local_facts(self) -> Database:
        merged = Database()
        futures = [
            (shard, self._submit(shard, _cmd_dump_facts, None))
            for shard in range(self.checker.shards)
        ]
        for shard, future in futures:
            dumped = self._result(shard, future, _cmd_dump_facts, (None,))
            for predicate, facts in dumped.items():
                for fact in facts:
                    merged.insert(predicate, tuple(fact))
        return merged

    # -- the protocol ---------------------------------------------------------
    def _peer_needs(self, shard: int, predicate: str) -> set[str]:
        """The sibling-shard predicates a check of *predicate* on *shard*
        could read through the union view."""
        checker = self.checker
        needed: set[str] = set()
        for constraint in checker.constraints:
            if checker.compiler.compiled(constraint).subsumed:
                continue
            if predicate not in constraint.predicates():
                continue
            needed |= constraint.predicates() & checker.site_predicates
        return needed - (checker._owned[shard] | checker.key_aligned)

    def run_one(
        self, shard: int, update: Update,
        journal_pos: Optional[int] = None,
    ) -> list[CheckReport]:
        """One update through its shard's worker: peers pre-gathered for
        a fenced spanning read, the escalation bounced through the
        parent's link when the worker defers at the boundary.  With a
        journal attached, the update's *final* effect (post-bounce) is
        staged at ``journal_pos`` for the committer."""
        checker = self.checker
        seq = next(checker._arrival)
        self._last_seq[shard] = max(self._last_seq[shard], seq)
        peer_facts = self.gather_facts(
            self._peer_needs(shard, update.predicate), exclude=shard
        )
        out = self._call(shard, _cmd_run_one, seq, update, peer_facts)
        self._stats_cache[shard] = None
        reports, fetched, effect = self._escalate(shard, update, out)
        if fetched:
            checker.stats.remote_round_trips += 1
        self._stage_effect(journal_pos, effect)
        return reports

    def _escalate(
        self, shard: int, update: Update, out: dict
    ) -> tuple[list[CheckReport], bool, Optional[tuple]]:
        """Finish a ``_cmd_run_one`` result: bounce the deferred fetch
        through the parent's link when the worker hit the process
        boundary.  Returns the final reports, whether a remote fetch
        succeeded (the caller attributes the round trip — directly on
        the fenced path, folded at the segment barrier inside slices),
        and the update's final journal effect (``None`` off-journal).
        A settle or rerun replaces the deferred effect wholesale; a
        failed bounce patches the parent's copy in place."""
        effects = out.get("effects")
        effect = effects[0] if effects else None
        if out["needed"] is None:
            return out["reports"], False, effect
        try:
            remote_db = _fetch_remote(
                self.checker._drain_source, set(out["needed"])
            )
        except RemoteUnavailableError as exc:
            if out["queued"]:
                return (
                    self._call(shard, _cmd_patch_defer_detail, str(exc)),
                    False,
                    self._patch_effect(effect, str(exc)),
                )
            return (
                _patch_detail(out["reports"], str(exc)),
                False,
                self._patch_effect(effect, str(exc)),
            )
        facts = self._dump_db(remote_db)
        if out["queued"]:
            settled = self._call(shard, _cmd_settle_tail, facts)
            final = settled["effects"]
            return settled["reports"], True, (final[0] if final else effect)
        rerun = self._call(shard, _cmd_rerun_with_remote, update, facts)
        final = rerun["effects"]
        return rerun["reports"], True, (final[0] if final else effect)

    def run_slice(
        self,
        shard: int,
        items: Sequence[tuple[int, Update]],
        journal_base: Optional[int] = None,
    ) -> tuple[list[tuple[int, list[CheckReport]]], int]:
        """One shard's slice of a parallel segment (driver-thread body;
        mirrors ``ShardedChecker._run_shard_slice``).

        Escalation-capable updates run as their own singleton command —
        the worker's stream must never defer mid-slice, or its later
        verdicts would read unsettled optimistic state the serial run
        settled in place.  The bounce happens here on the driver thread,
        so sibling shards keep streaming while this one waits on the
        link.  Returns ``(position, reports)`` pairs plus the number of
        successful bounce fetches (the segment barrier folds them into
        ``remote_round_trips`` in stream order, like thread mode).
        """
        checker = self.checker
        pairs: list[tuple[int, list[CheckReport]]] = []
        fetches = 0
        chunk: list[tuple[int, int, Update]] = []  # (pos, seq, update)

        def journal_pos(pos: int) -> Optional[int]:
            return None if journal_base is None else journal_base + pos + 1

        def flush_chunk() -> None:
            if not chunk:
                return
            stamped = [(seq, update) for _pos, seq, update in chunk]
            out = self._call(shard, _cmd_run_slice, stamped)
            results = out["results"]
            effects = out["effects"] or [None] * len(results)
            for (pos, _seq, _update), reports, effect in zip(
                chunk, results, effects
            ):
                pairs.append((pos, reports))
                self._stage_effect(journal_pos(pos), effect)
            chunk.clear()

        for pos, update in items:
            seq = next(checker._arrival)
            self._last_seq[shard] = max(self._last_seq[shard], seq)
            if checker._escalation_capable(update.predicate):
                flush_chunk()
                # Fence-free by construction, so no peers to gather.
                out = self._call(shard, _cmd_run_one, seq, update, {})
                reports, fetched, effect = self._escalate(shard, update, out)
                if fetched:
                    fetches += 1
                pairs.append((pos, reports))
                self._stage_effect(journal_pos(pos), effect)
                continue
            chunk.append((pos, seq, update))
        flush_chunk()
        self._stats_cache[shard] = None
        return pairs, fetches

    @staticmethod
    def _dump_db(db: Database) -> dict[str, list[tuple]]:
        return {
            predicate: list(db.facts(predicate))
            for predicate in db.predicates()
        }

    # -- drain ----------------------------------------------------------------
    def _drain_blocked(self, desc: dict, dark: set, blocked: set) -> bool:
        """The partial-recovery skip guard, evaluated on the parent's
        compiler from a worker's entry descriptor (mirrors
        ``CheckSession._drain_blocked``)."""
        checker = self.checker
        if dark and set(desc["sites"]) & dark:
            return True
        if blocked:
            predicate = desc["predicate"]
            for constraint in checker.constraints:
                if not checker.compiler.mentions(constraint, predicate):
                    continue
                others = blocked - {predicate}
                if any(
                    checker.compiler.mentions(constraint, other)
                    for other in others
                ):
                    return True
            if predicate in blocked and not checker.compiler.single_binding(
                predicate
            ):
                return True
        return False

    def resolve_pending(self) -> list[tuple[Update, list[CheckReport]]]:
        """The global drain across the worker processes (mirrors
        ``ShardedChecker.resolve_pending``; same soundness argument —
        quarantine everywhere first, settle globally oldest-first,
        dark/blocked partial recovery, redo on the way out)."""
        checker = self.checker
        shards = range(checker.shards)
        queues: dict[int, list[dict]] = {}
        self._in_drain = True
        begin = [(shard, self._submit(shard, _cmd_drain_begin)) for shard in shards]
        for shard, future in begin:
            queues[shard] = self._result(shard, future, _cmd_drain_begin)
        settled: list[tuple[Update, list[CheckReport]]] = []
        try:
            checker._chaos_hit("mid-drain")
            dark: set[str] = set()
            blocked: set[str] = set()
            skipped: set[int] = set()
            while True:
                head = None
                for shard, entries in queues.items():
                    for desc in entries:
                        if desc["seq"] in skipped:
                            continue
                        if head is None or desc["seq"] < head[1]["seq"]:
                            head = (shard, desc)
                if head is None:
                    break
                shard, desc = head
                if self._drain_blocked(desc, dark, blocked):
                    skipped.add(desc["seq"])
                    blocked.add(desc["predicate"])
                    continue
                try:
                    remote_db = _fetch_remote(
                        checker._drain_source, set(desc["needed"])
                    )
                except RemoteUnavailableError as exc:
                    failed = set(exc.sites) or set(desc["sites"])
                    if not failed:
                        break
                    dark |= failed
                    skipped.add(desc["seq"])
                    blocked.add(desc["predicate"])
                    continue
                peer_facts = self.gather_facts(
                    self._peer_needs(shard, desc["predicate"]), exclude=shard
                )
                update, reports = self._call(
                    shard,
                    _cmd_drain_settle,
                    desc["seq"],
                    self._dump_db(remote_db),
                    peer_facts,
                )
                checker.stats.remote_round_trips += 1
                queues[shard].remove(desc)
                settled.append((update, reports))
        finally:
            ends = [(shard, self._submit(shard, _cmd_drain_end)) for shard in shards]
            for shard, future in ends:
                self._stats_cache[shard] = self._result(
                    shard, future, _cmd_drain_end
                )
            self._in_drain = False
        return settled

    # -- stats / lifecycle ----------------------------------------------------
    def _payloads(self) -> list[dict]:
        missing = [
            (shard, self._submit(shard, _cmd_stats))
            for shard, cached in enumerate(self._stats_cache)
            if cached is None
        ]
        for shard, future in missing:
            self._stats_cache[shard] = self._result(
                shard, future, _cmd_stats
            )
        return list(self._stats_cache)

    def stats_view(self) -> tuple[list, object]:
        """Fresh worker snapshots shaped for ``sync_session_gauges``:
        stats-bearing session stand-ins plus a compiler stand-in whose
        level-1 cache info is the sum over the workers'."""
        payloads = self._payloads()
        sessions = [
            SimpleNamespace(stats=payload["stats"]) for payload in payloads
        ]
        info = {
            "hits": sum(p["level1"]["hits"] for p in payloads),
            "misses": sum(p["level1"]["misses"] for p in payloads),
        }
        compiler = SimpleNamespace(level1_cache_info=lambda: info)
        return sessions, compiler

    def pending_count(self) -> int:
        return sum(payload["pending"] for payload in self._payloads())

    def migrate_range(
        self, predicate: str, lo, hi, source: int, target: int
    ) -> int:
        """Move the key range ``[lo, hi)`` of *predicate* from *source*
        to *target*: verified facts plus reversed pending entries out,
        replayed in sequence order on the other side."""
        out = self._call(source, _cmd_extract_range, predicate, lo, hi)
        self._call(
            target, _cmd_inject_range, predicate, out["facts"], out["entries"]
        )
        self._stats_cache[source] = None
        self._stats_cache[target] = None
        return len(out["facts"])

    def checkpoint_state(self) -> list[dict]:
        """Per-shard manifest payloads (pending queue, stats, last seq)
        for checkpoint manifests — one round trip per shard."""
        futures = [
            (shard, self._submit(shard, _cmd_checkpoint_state))
            for shard in range(self.checker.shards)
        ]
        return [
            self._result(shard, future, _cmd_checkpoint_state)
            for shard, future in futures
        ]

    def restart_counts(self) -> list[int]:
        return list(self._restarts)

    def restore_checkpoint(
        self,
        pending_per_shard: Sequence[Sequence],
        stats_per_shard: Sequence,
        restarts: Optional[Sequence[int]] = None,
    ) -> None:
        """Install recovered per-shard state into the fresh workers (the
        facts already arrived through ``ShardConfig``).  The restored
        queues/stats become each shard's supervision *baseline*, so a
        later revive rehydrates the recovered state, not the empty
        boot state; restart counters carry the crashed run's budget
        spend forward."""
        for shard in range(self.checker.shards):
            pending = list(pending_per_shard[shard])
            stats = stats_per_shard[shard]
            self._call(shard, _cmd_restore_state, pending, stats)
            self._baselines[shard] = {"pending": pending, "stats": stats}
            self._stats_cache[shard] = None
        if restarts:
            self._restarts = [int(count) for count in restarts]

    def close(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)
        self._pools = []
