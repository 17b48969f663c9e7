"""Sharded check sessions: partition the local site, keep the verdicts.

The paper's protocol distinguishes *local* data (cheap, always
reachable) from *remote* data (expensive, possibly unreachable).  A
large local site is itself often partitioned — by predicate, or by key
range within a predicate — across processes that each want to run the
Section 2 level pipeline over their own slice.  :class:`ShardedChecker`
does exactly that while preserving the protocol's verdicts:

* the local database is split into disjoint per-shard
  :class:`~repro.datalog.database.Database` slices
  (:meth:`~repro.distributed.site.Site.partition`), one
  :class:`~repro.core.session.CheckSession` per shard, all sharing one
  read-only :class:`~repro.core.compiler.ConstraintCompiler` (the
  subsumption analysis, level-1 verdict LRU, and local test plans are
  database-independent, hence shard-safe);
* every update is routed to its owning shard; constraints are
  classified **shard-local** (decidable inside one shard — the
  maintained-materialization fast path) vs **spanning** (site-local but
  crossing shards — settled against a lazily materialized cross-shard
  union view, still at ``WITH_LOCAL_DATA``, since sibling-shard data is
  part of the same site and can never defer) vs **remote** (escalating
  off-site exactly as unsharded);
* deferred verdicts keep their *global* ordering: the shard sessions
  share one sequence counter, so the drain quarantines optimistic facts
  newest-first and settles oldest-first **across** shards — byte-for-
  byte the unsharded FIFO semantics.

The win is maintenance locality: an update's delta pass touches only
its shard's materializations, so the summed per-shard maintenance work
is strictly below one session maintaining everything (measured by
``benchmarks/bench_sharded.py``).  One shard is the serial checker: its
session adopts the local site's database and runs the Section 1
protocol — local tests first, remote data only when they are
inconclusive — with no partitioning at all.

With ``parallelism > 1`` the checker additionally converts shard
independence into wall-clock overlap: updates whose constraint
footprint is confined to their owning shard run concurrently on a
thread pool, one worker per shard, while updates that would read across
shards (spanning or mixed constraints, split predicates, cross-shard
modifications) act as **fences** — the scheduler drains the open
parallel segment first and runs them alone.  Verdicts stay byte-
identical to the serial checker (see DESIGN.md §9 for the fence
argument); ``benchmarks/bench_parallel.py`` measures the overlap.
"""

from __future__ import annotations

import itertools
import zlib
from bisect import bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.compiler import ConstraintCompiler
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.terms import Variable
from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.core.session import (
    CheckSession,
    PendingVerdict,
    aborts_transaction,
)
from repro.core.transaction import Transaction
from repro.datalog.database import Database, UndoToken
from repro.distributed.rebalance import (
    RebalancePlan,
    RebalancePolicy,
    ShardLoadTracker,
    extract_range,
    inject_range,
    propose_split,
    routing_values,
)
from repro.distributed.faults import CrashInjector
from repro.distributed.remote import RemoteLink, resolve_escalation_link
from repro.distributed.site import FederatedDatabase
from repro.distributed.stats import ProtocolStats, sync_session_gauges
from repro.errors import RemoteUnavailableError, ReproError
from repro.updates.update import Insertion, Modification, Update

#: outcome severity for merging the two halves of a decomposed
#: cross-shard modification into one per-constraint report
_OUTCOME_SEVERITY = {
    Outcome.SATISFIED: 0,
    Outcome.UNKNOWN: 1,
    Outcome.DEFERRED: 2,
    Outcome.VIOLATED: 3,
}

__all__ = ["PredicatePartitioner", "KeyRangePartitioner", "ShardedChecker"]


class PredicatePartitioner:
    """Assign each site-local predicate wholly to one shard.

    Predicates known up front are dealt round-robin over their sorted
    order (balanced and deterministic); a predicate first seen later
    hashes to a stable slot.
    """

    def __init__(self, shards: int, predicates: Iterable[str] = ()) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self._assigned: dict[str, int] = {
            predicate: index % shards
            for index, predicate in enumerate(sorted(predicates))
        }

    #: predicates split *across* shards by value (none for this class)
    @property
    def split_predicates(self) -> frozenset[str]:
        return frozenset()

    def owner(self, predicate: str, values: Optional[tuple] = None) -> int:
        """The shard index owning ``predicate(values)``."""
        slot = self._assigned.get(predicate)
        if slot is None:
            # Stable across processes (unlike the salted builtin hash).
            slot = zlib.crc32(predicate.encode("utf-8")) % self.shards
            self._assigned[predicate] = slot
        return slot

    def owned_predicates(self, predicates: Iterable[str]) -> list[set[str]]:
        """Partition *predicates* into per-shard ownership sets (split
        predicates belong to no single shard)."""
        owned: list[set[str]] = [set() for _ in range(self.shards)]
        for predicate in predicates:
            if predicate not in self.split_predicates:
                owned[self.owner(predicate)].add(predicate)
        return owned


class KeyRangePartitioner(PredicatePartitioner):
    """A :class:`PredicatePartitioner` that additionally splits selected
    predicates *across* shards by their first column.

    ``boundaries[pred]`` gives ``shards - 1`` sorted cut points; a fact
    with first value ``v`` lands in the shard whose range contains it
    (``bisect``).  A split predicate belongs to no single shard: every
    shard holds a slice, every session treats it as peer data, and
    constraints over it are settled against the cross-shard union view.
    """

    def __init__(
        self,
        shards: int,
        boundaries: dict[str, Sequence],
        predicates: Iterable[str] = (),
    ) -> None:
        super().__init__(shards, predicates)
        self._boundaries: dict[str, tuple] = {}
        for predicate, cuts in boundaries.items():
            self.set_boundaries(predicate, cuts)

    def set_boundaries(self, predicate: str, cuts: Sequence) -> None:
        """Install (or replace) the cut vector of a split predicate.

        Live rebalancing moves cut points at a fence; the routing
        contract is the constructor's: ``shards - 1`` sorted cuts.
        """
        cuts = tuple(cuts)
        if len(cuts) != self.shards - 1:
            raise ValueError(
                f"key-range split of {predicate!r} needs {self.shards - 1} "
                f"boundaries for {self.shards} shards, got {len(cuts)}"
            )
        if list(cuts) != sorted(cuts):
            raise ValueError(
                f"key-range boundaries for {predicate!r} must be sorted"
            )
        self._boundaries[predicate] = cuts

    def boundaries(self, predicate: str) -> tuple:
        """The current cut vector of a split predicate."""
        return self._boundaries[predicate]

    @property
    def split_predicates(self) -> frozenset[str]:
        return frozenset(self._boundaries)

    def owner(self, predicate: str, values: Optional[tuple] = None) -> int:
        cuts = self._boundaries.get(predicate)
        if cuts is None:
            return super().owner(predicate, values)
        if not values:
            raise ValueError(
                f"{predicate!r} is key-range split: routing needs the fact"
            )
        return bisect_right(cuts, values[0])


class _StagedEffectLog:
    """Per-shard ``CheckSession.effect_log`` for thread-parallel journaling.

    A pool-thread session emits effect records at settle time, but the
    journal must commit them in contiguous stream order — so this stand-in
    stages each record into the shared
    :class:`~repro.durability.journal.OrderedJournalCommitter` under the
    stream position the driver queued for it (:meth:`begin_slice`), and
    the committer flushes whatever prefix the races have made contiguous.
    ``safe_point`` is a no-op: the committer accounts sync/checkpoint
    cadence per *committed* record, not per settled one.
    """

    __slots__ = ("committer", "_positions")

    def __init__(self, committer) -> None:
        self.committer = committer
        self._positions: deque[int] = deque()

    def begin_slice(self, positions: Iterable[int]) -> None:
        """Queue the journal positions of the slice about to stream."""
        self._positions.extend(positions)

    def record_update(self, update, reports, applied, token, entry) -> None:
        if self._positions:
            pos = self._positions.popleft()
        else:
            # Positionless path (direct ``process()`` between streams):
            # synchronous, so the next unstaged position is this record's.
            pos = self.committer.reserve_next()
        self.committer.stage(
            pos, ("u", update, list(reports), applied, token, entry)
        )

    def safe_point(self) -> None:
        pass


class ShardedChecker:
    """Enforce constraints at the local site of a federated database.

    The one checker behind ``check-stream`` (``process`` /
    ``check_stream`` / ``process_transaction`` / ``resolve_pending`` /
    ``stats``).  Its verdicts match a single unsharded
    :class:`~repro.core.session.CheckSession` over the union database:
    shard-local constraints take the maintained-materialization path,
    spanning constraints read the lazily built union view at the same
    ``WITH_LOCAL_DATA`` level, and remote escalation (including DEFERRED
    degradation and the drain) behaves identically because sibling-shard
    fetches can never fail.  With ``shards=1`` that one session is the
    whole checker: it works on the local site's own database and has no
    union view and no fences.

    Escalations go through the link :func:`resolve_escalation_link`
    builds from *remote_links* (one entry per remote site name).
    """

    def __init__(
        self,
        constraints: ConstraintSet | Iterable[Constraint],
        sites: FederatedDatabase,
        shards: int = 2,
        partitioner: Optional[PredicatePartitioner] = None,
        use_interval_datalog: bool = False,
        apply_on_unknown: bool = True,
        parallelism: int = 1,
        overlap_remote: bool = False,
        session_factory: Optional[Callable[..., CheckSession]] = None,
        remote_links: Optional[Mapping[str, RemoteLink]] = None,
        parallel_fanout: bool = True,
        snapshot_ttl: Optional[float] = None,
        executor: str = "thread",
        rebalance: Optional[RebalancePolicy | bool] = None,
        chaos: Optional[CrashInjector] = None,
        max_worker_restarts: int = 2,
    ) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        if executor == "process":
            if overlap_remote:
                raise ValueError(
                    "overlap_remote requires the thread executor: an async "
                    "fetch future cannot cross the process boundary"
                )
            if session_factory is not None:
                raise ValueError(
                    "session_factory requires the thread executor: live "
                    "sessions cannot cross the process boundary"
                )
        resolved = resolve_escalation_link(
            sites, remote_links,
            parallel_fanout=parallel_fanout,
            snapshot_ttl=snapshot_ttl,
        )
        if overlap_remote and resolved is None:
            raise ValueError(
                "overlap_remote needs a RemoteLink (the raw site has no "
                "async fetch queue)"
            )
        self.sites = sites
        self.site_predicates = frozenset(sites.local_predicates)
        if partitioner is None:
            partitioner = PredicatePartitioner(shards, self.site_predicates)
        self.partitioner = partitioner
        self.shards = partitioner.shards
        self.compiler = ConstraintCompiler(
            constraints, self.site_predicates, use_interval_datalog,
            site_of=sites.site_of,
        )
        self.constraints = self.compiler.constraints
        self.apply_on_unknown = apply_on_unknown
        self.remote_link = resolved
        self.parallelism = parallelism
        self.overlap_remote = overlap_remote
        self.executor = executor
        self.stats = ProtocolStats()
        #: named crash-point injector (chaos testing; see faults.py)
        self.chaos = chaos
        if max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be non-negative")
        #: process-executor supervision: worker respawns allowed per
        #: shard before ShardWorkerCrashed propagates
        self.max_worker_restarts = max_worker_restarts
        #: attached durability sink (see :meth:`attach_effect_log`)
        self._effect_log = None
        #: ordered commit front for parallel/process journaling
        self._committer = None

        if self.shards == 1:
            # The serial run: one session owns every site predicate and
            # works on the site's own database — no partition copy, no
            # sibling to fetch from, nothing to fence.
            self._shard_dbs = [sites.local.unmetered()]
            owned = [set(self.site_predicates)]
        else:
            self._shard_dbs = sites.local.partition(
                self.partitioner.owner, self.shards
            )
            owned = self.partitioner.owned_predicates(self.site_predicates)
        self._owned = [frozenset(preds) for preds in owned]
        #: split predicates whose constraints confine every derivation
        #: to one key range — local to *every* shard, never fencing
        self.key_aligned: frozenset[str] = self._compute_key_aligned()
        #: (shard, predicate) -> does an update there fence the pipeline?
        self._fence_cache: dict[tuple[int, str], bool] = {}
        #: predicate -> could an update there escalate off-site?
        self._escalation_cache: dict[str, bool] = {}
        if rebalance is True:
            rebalance = RebalancePolicy()
        self.rebalance_policy: Optional[RebalancePolicy] = rebalance or None
        if self.rebalance_policy and not self.partitioner.split_predicates:
            raise ValueError(
                "rebalancing moves key-range cut points; the partitioner "
                "has no split predicates to move them on"
            )
        self._load_tracker = (
            ShardLoadTracker(self.shards, self.rebalance_policy)
            if self.rebalance_policy
            else None
        )
        self._since_rebalance = 0
        # One shared monotone arrival clock for PendingVerdict sequence
        # numbers: the drain's global newest-first quarantine /
        # oldest-first settle order is meaningful only on a cross-shard
        # timeline.  Each shard reads its own stamp cell, written just
        # before its session processes an update — under parallel
        # execution a shared next()-per-queue-call counter would hand
        # out numbers in settle-race order, not arrival order.
        self._arrival = itertools.count(1)
        self._seq_cells: list[list[int]] = [[0] for _ in range(self.shards)]
        self._procpool = None
        if executor == "process":
            # No parent-side sessions: the worker processes rebuild them
            # from ShardConfig pickles and the parent keeps only the
            # protocol surface (routing, fences, stats, the link).
            self.sessions: list[CheckSession] = []
            from repro.distributed.procpool import ProcessShardRunner

            self._procpool = ProcessShardRunner(self)
            # The slices were handed off; keeping them here would leave a
            # stale copy silently available to future code.
            self._shard_dbs = None
        else:
            if session_factory is None:
                session_factory = CheckSession
            self.sessions = [
                session_factory(
                    compiler=self.compiler,
                    local_predicates=owned[index] | self.key_aligned,
                    local_db=self._shard_dbs[index],
                    apply_on_unknown=apply_on_unknown,
                    peer_predicates=(
                        self.site_predicates - owned[index] - self.key_aligned
                    ),
                    peer_source=(
                        self._peer_source(index) if self.shards > 1 else None
                    ),
                    seq_source=(lambda cell=self._seq_cells[index]: cell[0]),
                )
                for index in range(self.shards)
            ]
        if parallelism > 1 or executor == "process":
            # Force the per-constraint lazy engines/classifications on
            # this thread before any worker touches them (segment driver
            # threads consult the parent compiler in process mode too).
            self.compiler.prewarm()

    # -- topology ---------------------------------------------------------------
    def _compute_key_aligned(self) -> frozenset[str]:
        """Split predicates whose every derivation is confined to one
        key — hence to one shard's slice.

        A split predicate ``P`` is *key-aligned* when every non-subsumed
        constraint mentioning it (i) is a single rule, (ii) has
        site-local predicate footprint exactly ``{P}``, and (iii) keeps
        one shared key: every ``P``-literal in the rule — positive or
        negated — carries the same column-0 variable, bound by at least
        one positive ``P``-atom.  Any violation derivation then joins
        only ``P``-facts of a single key value, all of which live in the
        key's owning shard, so that shard's slice alone decides the
        constraint: the sessions treat ``P`` as *local* (maintained
        materializations, no union view) and updates on it never fence.
        A negated ``P``-literal is safe because its key variable is
        bound by a positive ``P``-atom against the own slice, so absence
        is only ever tested for keys the shard owns completely.
        """
        aligned: set[str] = set()
        for predicate in self.partitioner.split_predicates:
            if self._key_confined(predicate):
                aligned.add(predicate)
        return frozenset(aligned)

    def _key_confined(self, predicate: str) -> bool:
        for constraint in self.constraints:
            if predicate not in constraint.predicates():
                continue
            if self.compiler.compiled(constraint).subsumed:
                continue
            if not constraint.is_single_rule:
                return False
            site_part = constraint.predicates() & self.site_predicates
            if site_part != {predicate}:
                return False
            keys: set = set()
            positive_keys: set = set()
            for literal in constraint.as_rule().body:
                if isinstance(literal, Comparison):
                    continue
                if literal.predicate != predicate:
                    continue
                if not literal.args:
                    return False
                keys.add(literal.args[0])
                if isinstance(literal, Atom):
                    positive_keys.add(literal.args[0])
            if len(keys) != 1:
                return False
            (key,) = keys
            if not isinstance(key, Variable) or key not in positive_keys:
                return False
        return True

    def _peer_source(self, index: int) -> Callable[..., Database]:
        """A fetch over every *sibling* shard's slice — the lazily
        materialized part of the cross-shard union view (the caller's
        own slice is already its ``local_db``)."""

        def fetch(predicates: Optional[Iterable[str]] = None) -> Database:
            merged = Database()
            wanted = set(predicates) if predicates is not None else None
            for sibling, db in enumerate(self._shard_dbs):
                if sibling == index:
                    continue
                names = (
                    db.predicates() if wanted is None
                    else wanted & db.predicates()
                )
                for predicate in names:
                    for fact in db.facts(predicate):
                        merged.insert(predicate, fact)
            return merged

        return fetch

    def shard_of(self, update: Update) -> int:
        """The shard that owns *update* — and the validity checks that
        keep the shards disjoint: only site-local predicates may be
        updated.  A modification that moves a fact between shards has no
        single owner; :meth:`process` and :meth:`check_stream` decompose
        it into its delete/insert halves instead (this method still
        raises, for callers that need one index).  A one-shard checker
        has nothing to keep disjoint: every update goes to its session,
        without asking the partitioner."""
        if self.shards == 1:
            return 0
        predicate = update.predicate
        if predicate not in self.site_predicates:
            raise ValueError(
                f"update targets non-local predicate {predicate!r}; a "
                f"sharded checker owns only the local site"
            )
        if isinstance(update, Modification):
            old = self.partitioner.owner(predicate, update.old_values)
            new = self.partitioner.owner(predicate, update.new_values)
            if old != new:
                raise ValueError(
                    f"modification moves {predicate!r} fact across shards "
                    f"({old} -> {new}); process()/check_stream() decompose "
                    f"it into -old / +new halves under a fence"
                )
            return old
        return self.partitioner.owner(predicate, update.values)

    def _cross_shard_modification(self, update: Update) -> Optional[tuple[int, int]]:
        """``(delete_shard, insert_shard)`` when *update* is a
        modification whose halves land in different shards, else None."""
        if self.shards == 1 or not isinstance(update, Modification):
            return None
        predicate = update.predicate
        if predicate not in self.site_predicates:
            return None
        old = self.partitioner.owner(predicate, update.old_values)
        new = self.partitioner.owner(predicate, update.new_values)
        return (old, new) if old != new else None

    def shard_local_constraints(self) -> dict[str, int]:
        """Constraints decidable wholly inside one shard, by name."""
        placed: dict[str, int] = {}
        for index in range(self.shards):
            local = self._owned[index] | self.key_aligned
            for constraint in self.constraints:
                if constraint.predicates() <= local:
                    placed[constraint.name] = index
        return placed

    def spanning_constraints(self) -> tuple[str, ...]:
        """Site-local constraints that cross shard boundaries — the only
        ones whose settlement reads the cross-shard union view."""
        placed = self.shard_local_constraints()
        return tuple(
            constraint.name
            for constraint in self.constraints
            if constraint.name not in placed
            and constraint.predicates() <= self.site_predicates
        )

    def remote_constraints(self) -> tuple[str, ...]:
        """Constraints mentioning true off-site predicates; these
        escalate (and may defer) exactly as in the unsharded protocol."""
        return tuple(
            constraint.name
            for constraint in self.constraints
            if not constraint.predicates() <= self.site_predicates
        )

    @property
    def remote_source(self) -> Callable[..., Database]:
        """Off-site escalation: the fault-tolerant link when configured,
        the raw metered remote site otherwise.  With ``overlap_remote``
        the in-stream source is the link's async queue — a slow-but-
        healthy fetch defers the update (future in tow) instead of
        stalling the stream."""
        if self.remote_link is not None:
            if self.overlap_remote:
                return self.remote_link.fetch_nowait
            return self.remote_link.fetch
        # No link resolves only in the single-remote case.
        return next(iter(self.sites.remotes.values())).snapshot

    @property
    def _drain_source(self) -> Callable[..., Database]:
        """The *blocking* fetch the drain settles against — never the
        async queue: a nowait raise mid-settle would leak an unconsumed
        future on the entry it was trying to settle."""
        if self.remote_link is not None:
            return self.remote_link.fetch
        return self.remote_source

    def local_database(self) -> Database:
        """The union of the shard slices — equal, update for update, to
        the single database an unsharded session would maintain."""
        if self._procpool is not None:
            return self._procpool.local_facts()
        merged = Database()
        for db in self._shard_dbs:
            for predicate in db.predicates():
                for fact in db.facts(predicate):
                    merged.insert(predicate, fact)
        return merged

    @property
    def pending_count(self) -> int:
        if self._procpool is not None:
            return self._procpool.pending_count()
        return sum(session.pending_count for session in self.sessions)

    def close(self) -> None:
        """Shut down the process-pool workers (thread mode: no-op).  The
        checker is unusable afterwards."""
        if self._procpool is not None:
            self._procpool.close()

    def __enter__(self) -> "ShardedChecker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- durability / chaos ------------------------------------------------------
    def _chaos_hit(self, name: str) -> None:
        """Visit a named crash point (no-op without an injector)."""
        if self.chaos is not None:
            self.chaos.hit(name)

    def attach_effect_log(self, writer) -> None:
        """Journal this checker's stream through *writer* (the
        ``CheckSession.effect_log`` protocol — see
        :class:`repro.durability.journal.JournalWriter`).

        The serial in-process configuration shares the writer across the
        shard sessions directly (updates settle in arrival order).  With
        ``parallelism > 1`` or the process executor, effects instead go
        through an :class:`~repro.durability.journal.OrderedJournalCommitter`
        — pool threads (or the process runner's drivers) stage records at
        settle time and the committer flushes the contiguous stream
        prefix; fence/flush barriers assert the prefix whole and cut any
        due checkpoint manifest (:meth:`_journal_barrier`).  Rebalances
        journal their cut-vector changes (:meth:`_apply_rebalance`); a
        cross-shard split modification is rejected at runtime because its
        delete/insert halves would write two journal records for one
        stream update.
        """
        self._effect_log = writer
        if self.parallelism > 1 or self._procpool is not None:
            from repro.durability.journal import OrderedJournalCommitter

            self._committer = OrderedJournalCommitter(writer)
            if self._procpool is not None:
                self._procpool.attach_journal(self._committer)
            else:
                for session in self.sessions:
                    session.effect_log = _StagedEffectLog(self._committer)
        else:
            for session in self.sessions:
                session.effect_log = writer

    def _journal_barrier(self) -> None:
        """Journal bookkeeping at a fence/flush barrier: every staged
        record must now be committed, and a deferred checkpoint cadence
        may fire (the in-memory state equals the committed prefix exactly
        here)."""
        if self._committer is not None:
            self._committer.barrier()

    # -- the protocol -----------------------------------------------------------
    def _process_on_shard(
        self,
        shard: int,
        update: Update,
        journal_pos: Optional[int] = None,
        txns: Optional[list[Transaction]] = None,
    ) -> list[CheckReport]:
        """Stamp the shard's arrival cell and run one update through its
        session (main-thread path; workers go through
        :meth:`_run_shard_slice`).  *journal_pos* is the stream position
        the update's journal record commits under when a parallel-mode
        journal is attached (``None`` routes through the positionless
        fallback).  *txns* holds one open transaction per shard (see
        :meth:`process_transaction`)."""
        if self._procpool is not None:
            return self._procpool.run_one(shard, update, journal_pos=journal_pos)
        session = self.sessions[shard]
        if journal_pos is not None and isinstance(
            session.effect_log, _StagedEffectLog
        ):
            session.effect_log.begin_slice((journal_pos,))
        self._seq_cells[shard][0] = next(self._arrival)
        before = session.stats.remote_fetches
        if txns is None:
            reports = session.process(update, remote=self.remote_source)
        else:
            reports = session.process(
                update, remote=self._drain_source, transaction=txns[shard]
            )
        self.stats.remote_round_trips += (
            session.stats.remote_fetches - before
        )
        return reports

    def _backend_contains(
        self, shard: int, predicate: str, values: tuple
    ) -> bool:
        if self._procpool is not None:
            return self._procpool.contains(shard, predicate, values)
        return values in self._shard_dbs[shard].facts(predicate)

    def _backend_apply_unchecked(
        self,
        shard: int,
        update: Update,
        txns: Optional[list[Transaction]] = None,
    ) -> None:
        if self._procpool is not None:
            self._procpool.apply_unchecked(shard, update)
        else:
            self.sessions[shard].apply_unchecked(
                update, txns[shard] if txns is not None else None
            )

    def process(self, update: Update) -> list[CheckReport]:
        """Route one update to its shard and run the level pipeline.

        A modification whose halves land in different shards is
        decomposed into its delete + insert halves (see
        :meth:`_process_split_modification`).
        """
        if self._rebalance_due:
            # process() is synchronous: between calls *is* a fence.
            self.maybe_rebalance()
        reports = self._process_routed(update)
        self._sync_gauges()
        return reports

    def _process_routed(
        self, update: Update, txns: Optional[list[Transaction]] = None
    ) -> list[CheckReport]:
        """Run *update* on its shard, or as the two halves of a
        cross-shard modification, and fold its reports into the stats."""
        if self._cross_shard_modification(update) is not None:
            return self._process_split_modification(update, txns)
        shard = self.shard_of(update)
        self._observe(shard, update)
        reports = self._process_on_shard(shard, update, txns=txns)
        self.stats.updates += 1
        self.stats.record_reports(reports, self.apply_on_unknown)
        return reports

    def process_transaction(
        self, updates: Iterable[Update]
    ) -> tuple[bool, list[list[CheckReport]]]:
        """Process a sequence of updates atomically.

        Each update is routed as :meth:`process` routes it and checked
        against the state its predecessors left, inside one
        :meth:`CheckSession.transaction` per shard.  A transaction needs
        settled verdicts, so escalations fetch through the blocking link,
        never the async queue.  If any update aborts the transaction
        (:func:`~repro.core.session.aborts_transaction`), every shard's
        transaction rolls back, restoring each slice and its maintained
        materializations exactly.  The slices are disjoint, so the
        per-shard rollbacks add up to the global one.  Rebalancing waits
        until the transaction ends.

        Returns ``(committed, reports_per_update)``; processing stops at
        the aborting update.  The process executor is refused: its
        worker processes hold the shard state.
        """
        if self._procpool is not None:
            raise ValueError(
                "transactions need the thread executor: the worker "
                "processes hold the shard state"
            )
        self.stats.transactions += 1
        txns = [session.transaction() for session in self.sessions]
        all_reports: list[list[CheckReport]] = []
        committed = True
        for update in updates:
            reports = self._process_routed(update, txns)
            all_reports.append(reports)
            if aborts_transaction(reports, self.apply_on_unknown):
                committed = False
                break
        for txn in txns:
            if committed:
                txn.commit()
            else:
                txn.rollback()
        if not committed:
            self.stats.transactions_rolled_back += 1
        self._sync_gauges()
        return committed, all_reports

    def _process_split_modification(
        self, update: Update, txns: Optional[list[Transaction]] = None
    ) -> list[CheckReport]:
        """Run a cross-shard modification as delete(old) then insert(new).

        The delete half runs first on the old fact's shard; if it is
        VIOLATED the modification is rejected whole and the insert half
        never runs.  Otherwise the insert half runs on the new fact's
        shard; if *it* is VIOLATED the already-applied delete is undone
        (the old fact is restored unchecked — removing a fact from the
        supported constraint classes cannot introduce a violation), so
        the modification stays atomic.  The restore is skipped when the
        delete half itself was DEFERRED or held: a deferred delete's
        token is owned by the pending queue and will be reconciled by
        the drain.  The per-constraint reports of both halves merge by
        outcome severity (VIOLATED > DEFERRED > UNKNOWN > SATISFIED).
        """
        if self._effect_log is not None:
            raise ReproError(
                f"cannot journal cross-shard modification {update}: its "
                "delete/insert halves would write two journal records for "
                "one stream update"
            )
        del_shard, ins_shard = self._cross_shard_modification(update)
        predicate = update.predicate
        deletion, insertion = update.deletion, update.insertion
        was_present = self._backend_contains(
            del_shard, predicate, update.old_values
        )

        self.stats.updates += 1
        self.stats.cross_shard_modifications += 1
        del_reports = self._process_on_shard(del_shard, deletion, txns=txns)
        del_rejected = any(
            r.outcome is Outcome.VIOLATED for r in del_reports
        )
        if del_rejected:
            self.stats.record_reports(del_reports, self.apply_on_unknown)
            return del_reports
        del_deferred = any(
            r.outcome is Outcome.DEFERRED for r in del_reports
        )
        del_held = not self.apply_on_unknown and any(
            r.outcome in (Outcome.UNKNOWN, Outcome.DEFERRED)
            for r in del_reports
        )

        ins_reports = self._process_on_shard(ins_shard, insertion, txns=txns)
        ins_rejected = any(
            r.outcome is Outcome.VIOLATED for r in ins_reports
        )
        if ins_rejected and was_present and not (del_deferred or del_held):
            self._backend_apply_unchecked(
                del_shard, Insertion(predicate, update.old_values), txns
            )

        merged: dict[str, CheckReport] = {r.constraint_name: r for r in del_reports}
        for report in ins_reports:
            other = merged[report.constraint_name]
            merged[report.constraint_name] = max(
                other,
                report,
                key=lambda r: (_OUTCOME_SEVERITY[r.outcome], r.level),
            )
        ordered = [merged[c.name] for c in self.constraints]
        self.stats.record_reports(ordered, self.apply_on_unknown)
        return ordered

    def check_stream(
        self, updates: Iterable[Update]
    ) -> list[list[CheckReport]]:
        """Stream mode over the shards.

        Every update runs as :meth:`process` runs it, and its reports
        are folded into the stats before the next update starts (a
        journal checkpoint cut inside one update then misses only that
        update's stats).

        With ``parallelism > 1`` — or the process executor, whose
        parallelism lives in the worker pool itself — the stream runs on
        the fence-scheduled path instead
        (:meth:`_check_stream_parallel`); verdicts are identical either
        way.
        """
        if self.parallelism > 1 or self._procpool is not None:
            return self._check_stream_parallel(updates)
        results: list[list[CheckReport]] = []
        for update in updates:
            if self._rebalance_due:
                self.maybe_rebalance()
            results.append(self._process_routed(update))
        self._sync_gauges()
        return results

    # -- live rebalancing --------------------------------------------------------
    def _observe(self, shard: int, update: Update) -> None:
        """Feed the load gauges: one call per routed update, at routing
        time on the main thread (workers never touch the tracker)."""
        if self._load_tracker is None:
            return
        key = None
        if update.predicate in self.partitioner.split_predicates:
            values = routing_values(update)
            key = values[0] if values else None
        self._load_tracker.observe(shard, update.predicate, key)
        self._since_rebalance += 1

    @property
    def _rebalance_due(self) -> bool:
        return (
            self._load_tracker is not None
            and self._since_rebalance >= self.rebalance_policy.interval
        )

    def maybe_rebalance(self) -> Optional[RebalancePlan]:
        """Inspect the load gauges and, when one shard runs hot, move a
        cut point: split the hot shard's range at the median of its
        sampled keys and merge the coldest adjacent range pair
        (:func:`~repro.distributed.rebalance.propose_split`).

        Must only be called at a fence — no open parallel segment —
        because routing and shard data change together (the stream
        drivers call it between segments; direct callers get the same
        guarantee from ``process()`` being synchronous).  Returns the
        applied plan, or None when the load is even or no productive cut
        exists.
        """
        if self._load_tracker is None:
            return None
        self._since_rebalance = 0
        tracker = self._load_tracker
        hot = tracker.hot_shard()
        if hot is None:
            return None
        loads = tracker.loads()
        plan = None
        for predicate in sorted(self.partitioner.split_predicates):
            plan = propose_split(
                predicate,
                self.partitioner.boundaries(predicate),
                hot,
                tracker.keys(predicate, hot),
                loads,
            )
            if plan is not None:
                break
        if plan is None:
            return None
        self._apply_rebalance(plan)
        return plan

    def _apply_rebalance(self, plan: RebalancePlan) -> None:
        """The two-phase fence handoff: migrate every key range whose
        owner changes, then install the new cut vector.  Data moves
        before routing changes, so a crash between the phases leaves
        facts findable under the *old* routing — never orphaned."""
        moved = 0
        for lo, hi, source, target in plan.moves:
            moved += self._migrate_range(plan.predicate, lo, hi, source, target)
        # Chaos point: data has moved but the old routing is still live
        # — the window the two-phase argument above is about.
        self._chaos_hit("mid-rebalance")
        self.partitioner.set_boundaries(plan.predicate, plan.new_cuts)
        self.stats.rebalances += 1
        self.stats.rebalance_moved_facts += moved
        if self._effect_log is not None:
            self._effect_log.record_rebalance(plan.predicate, plan.new_cuts)
        # The window describes the topology that no longer exists.
        self._load_tracker.reset()

    def _migrate_range(
        self, predicate: str, lo, hi, source: int, target: int
    ) -> int:
        """Move the half-open key range ``[lo, hi)`` of *predicate* from
        *source* to *target*: verified facts plus reversed pending
        entries out, replayed in sequence order on the other side.
        Returns the number of facts moved."""
        if source == target:
            return 0
        if self._procpool is not None:
            return self._procpool.migrate_range(
                predicate, lo, hi, source, target
            )
        out = extract_range(self.sessions[source], predicate, lo, hi)
        inject_range(
            self.sessions[target], predicate, out["facts"], out["entries"]
        )
        return len(out["facts"])

    # -- parallel execution ------------------------------------------------------
    def _requires_fence(self, shard: int, predicate: str) -> bool:
        """Must an update of *predicate* on *shard* run alone?

        No fence is needed exactly when every non-subsumed constraint
        mentioning the predicate keeps its site-local footprint inside
        the owning shard: then the whole pipeline — including a remote
        escalation's ``own-slice + remote`` merge — reads nothing a
        concurrent sibling could be writing.  A constraint whose
        site-local part crosses shards (spanning, or remote-mixed)
        would materialize the cross-shard union view, so it fences;
        split predicates are owned by no shard and fence *unless* they
        are key-aligned (see :meth:`_compute_key_aligned`), in which
        case the owning shard's slice already decides every constraint
        and the update is as parallel-safe as a shard-local one.
        """
        key = (shard, predicate)
        cached = self._fence_cache.get(key)
        if cached is not None:
            return cached
        owned = self._owned[shard] | self.key_aligned
        fence = predicate not in owned
        if not fence:
            for constraint in self.constraints:
                if self.compiler.compiled(constraint).subsumed:
                    continue
                if predicate not in constraint.predicates():
                    continue
                site_part = constraint.predicates() & self.site_predicates
                if not site_part <= owned:
                    fence = True
                    break
        self._fence_cache[key] = fence
        return fence

    def _escalation_capable(self, predicate: str) -> bool:
        """Could an update of *predicate* escalate off-site?  True when
        some non-subsumed constraint mentioning it reads beyond the
        local site.  The process executor runs such updates as singleton
        commands: a worker stream must never defer mid-slice."""
        cached = self._escalation_cache.get(predicate)
        if cached is not None:
            return cached
        capable = False
        for constraint in self.constraints:
            if self.compiler.compiled(constraint).subsumed:
                continue
            if predicate not in constraint.predicates():
                continue
            if not constraint.predicates() <= self.site_predicates:
                capable = True
                break
        self._escalation_cache[predicate] = capable
        return capable

    def _run_shard_slice(
        self,
        shard: int,
        items: Sequence[tuple[int, Update]],
        journal_base: Optional[int] = None,
    ) -> tuple[list[tuple[int, list[CheckReport]]], int]:
        """Worker body: one shard's slice of a parallel segment.

        Runs on a pool thread.  Touches only this shard's session,
        database, and stamp cell (plus the locked shared compiler /
        link / sites), and returns ``(position, reports)`` pairs and the
        session's remote-fetch delta so the main thread folds protocol
        stats in stream order at the barrier — pool threads never mutate
        ``ProtocolStats``.  When a journal is attached, *journal_base* is
        the committed stream position before this stream started: each
        slice item at enumerate position ``pos`` journals at
        ``journal_base + pos + 1``, emitted here at settle time and
        committed by the shared reorder buffer in stream order.
        """
        if self._procpool is not None:
            return self._procpool.run_slice(
                shard, items, journal_base=journal_base
            )
        session = self.sessions[shard]
        if journal_base is not None and isinstance(
            session.effect_log, _StagedEffectLog
        ):
            session.effect_log.begin_slice(
                journal_base + pos + 1 for pos, _item in items
            )
        cell = self._seq_cells[shard]

        def feed():
            # process_stream pulls one update at a time, so the stamp
            # written here is the one _queue_pending reads if that
            # update defers.
            for _pos, item in items:
                cell[0] = next(self._arrival)
                yield item

        before = session.stats.remote_fetches
        run_results = session.process_stream(feed(), remote=self.remote_source)
        pairs = [
            (pos, reports)
            for (pos, _item), reports in zip(items, run_results)
        ]
        return pairs, session.stats.remote_fetches - before

    def _check_stream_parallel(
        self, updates: Iterable[Update]
    ) -> list[list[CheckReport]]:
        """Fence-scheduled parallel stream execution.

        Updates accumulate into a *segment* as long as none of them
        fences; a segment is executed by handing each shard's slice
        (stream order preserved within the shard) to the pool at once
        and waiting for all of them — shard databases are disjoint and
        fence-free updates by construction read nothing outside their
        shard, so the interleaving cannot change any verdict.  A fencing
        update drains the segment (a counted barrier) and then runs
        alone on this thread with every worker idle, exactly as in
        serial mode.  Stats are folded only at barriers, in stream
        order, so the counters match the serial run's.
        """
        results_map: dict[int, list[CheckReport]] = {}
        segment: list[tuple[int, int, Update]] = []  # (pos, shard, update)
        stats = self.stats
        # Journal base: stream position already committed before this
        # stream starts (0 fresh, the recovered pos on --resume); slice
        # item `pos` journals at `jbase + pos + 1`.
        jbase = (
            self._committer.prefix_pos if self._committer is not None else None
        )
        # Thread mode: the pool threads *are* the parallelism.  Process
        # mode: they are cheap drivers blocking on worker futures, one
        # per shard, so the worker processes all stream concurrently.
        workers = (
            self.shards
            if self._procpool is not None
            else min(self.parallelism, self.shards)
        )
        with ThreadPoolExecutor(
            max_workers=workers,
            thread_name_prefix="shard",
        ) as executor:

            def run_segment() -> None:
                if not segment:
                    return
                by_shard: dict[int, list[tuple[int, Update]]] = {}
                for pos, shard, item in segment:
                    by_shard.setdefault(shard, []).append((pos, item))
                segment.clear()
                stats.parallel_segments += 1
                # Chaos point: the segment is about to fan out — nothing
                # of it has run, the journal prefix ends at the previous
                # barrier.
                self._chaos_hit("segment-dispatch")
                futures = [
                    executor.submit(self._run_shard_slice, shard, items, jbase)
                    for shard, items in by_shard.items()
                ]
                # Wait for every slice even if one fails: a worker must
                # never still be running once the barrier returns.
                outcomes = []
                for future in futures:
                    try:
                        outcomes.append((future.result(), None))
                    except BaseException as exc:  # noqa: BLE001
                        outcomes.append((None, exc))
                errors = [exc for _out, exc in outcomes if exc is not None]
                # Chaos point: every slice has settled (and journalled),
                # but the barrier has not folded stats or checkpointed.
                self._chaos_hit("barrier-fold")
                recorded: list[tuple[int, list[CheckReport]]] = []
                for out, exc in outcomes:
                    if exc is not None:
                        continue
                    pairs, fetch_delta = out
                    stats.remote_round_trips += fetch_delta
                    recorded.extend(pairs)
                for pos, reports in sorted(recorded, key=lambda p: p[0]):
                    stats.updates += 1
                    stats.record_reports(reports, self.apply_on_unknown)
                    results_map[pos] = reports
                if errors:
                    raise errors[0]
                self._journal_barrier()

            position = -1
            for position, update in enumerate(updates):
                if self._rebalance_due:
                    # Barrier first: the open segment was routed under
                    # the old cuts and must land before they move.
                    run_segment()
                    self.maybe_rebalance()
                if self._cross_shard_modification(update) is not None:
                    run_segment()
                    stats.fences += 1
                    self._chaos_hit("fence")
                    results_map[position] = self._process_split_modification(
                        update
                    )
                    continue
                shard = self.shard_of(update)
                self._observe(shard, update)
                if self._requires_fence(shard, update.predicate):
                    run_segment()
                    stats.fences += 1
                    # Chaos point: the segment barrier has drained but
                    # the fencing update has not run yet.
                    self._chaos_hit("fence")
                    reports = self._process_on_shard(
                        shard, update,
                        journal_pos=(
                            None if jbase is None else jbase + position + 1
                        ),
                    )
                    stats.updates += 1
                    stats.record_reports(reports, self.apply_on_unknown)
                    results_map[position] = reports
                    self._journal_barrier()
                    continue
                segment.append((position, shard, update))
            run_segment()
        self._sync_gauges()
        return [results_map[index] for index in range(position + 1)]

    def resolve_pending(self) -> list[tuple[Update, list[CheckReport]]]:
        """Drain every shard's deferred-verdict queue as one global FIFO.

        The single-session drain's soundness argument (quarantine all
        optimistic unverified facts, then settle oldest-first against
        verified state only) holds site-wide, not per shard: a spanning
        re-check reads sibling slices through the union view, so a
        sibling's unverified optimistic fact would contaminate it.  The
        drain therefore quarantines across **all** shards first
        (newest-first on the shared sequence clock) and settles globally
        oldest-first — always the smallest still-eligible sequence
        number among the shard queues.  Partial
        recovery works exactly as in the single-session drain: a fetch
        failure attributing its failed ``sites`` marks only those sites
        dark and the global walk continues, skipping entries that need a
        dark site or whose settle would not commute with an already
        skipped entry (the dark/blocked sets are shared across the
        shards — the compiler, and hence the commutation guard, is);
        an unattributed failure (an entry whose overlapped escalation
        future is still in flight counts: the drain must not settle from
        data it does not have yet) stops the walk as before.  Every
        still-queued reversal is re-applied on the way out.  The drain
        always settles through the *blocking* fetch source, never the
        async queue.
        Returns ``(update, final_reports)`` pairs in settle order; never
        raises on an unreachable remote.

        With the process executor the same walk runs parent-coordinated
        over the worker queues
        (:meth:`~repro.distributed.procpool.ProcessShardRunner.resolve_pending`).
        """
        if self._procpool is not None:
            results = self._procpool.resolve_pending()
            for _update, reports in results:
                self._record_resolved(reports)
            self._sync_gauges()
            return results
        sessions = self.sessions
        quarantined: list[dict[int, UndoToken]] = [{} for _ in sessions]
        settled: list[PendingVerdict] = []
        try:
            timeline = sorted(
                (
                    (entry.seq, index, entry)
                    for index, session in enumerate(sessions)
                    for entry in session._pending
                ),
                reverse=True,
            )
            for seq, index, entry in timeline:
                reversal = sessions[index]._quarantine_entry(entry)
                if reversal is not None:
                    quarantined[index][seq] = reversal
            # Chaos point: every optimistic fact is reversed but nothing
            # has settled — a hard kill here must resume to the pre-drain
            # state and re-drain from scratch.
            self._chaos_hit("mid-drain")
            dark: set[str] = set()
            blocked: set[str] = set()
            skipped: set[int] = set()
            while True:
                head = None
                for index, session in enumerate(sessions):
                    for position, entry in enumerate(session._pending):
                        if entry.seq in skipped:
                            continue
                        if head is None or entry.seq < head[0]:
                            head = (entry.seq, index, position, entry)
                if head is None:
                    break
                seq, index, position, entry = head
                session = sessions[index]
                if session._drain_blocked(entry, dark, blocked):
                    skipped.add(seq)
                    blocked.add(entry.update.predicate)
                    continue
                before = session.stats.remote_fetches
                try:
                    entry = session._settle_at(
                        position,
                        self._drain_source,
                        CheckLevel.FULL_DATABASE,
                        quarantined[index],
                    )
                except RemoteUnavailableError as exc:
                    failed = set(exc.sites) or session._entry_site_needs(entry)
                    if not failed:
                        break
                    dark |= failed
                    skipped.add(seq)
                    blocked.add(entry.update.predicate)
                    continue
                self.stats.remote_round_trips += (
                    session.stats.remote_fetches - before
                )
                settled.append(entry)
        finally:
            # Shard databases are disjoint, so per-shard redo order is
            # physically equivalent to the global one.
            for index, session in enumerate(sessions):
                session._redo_quarantined(quarantined[index])
        results: list[tuple[Update, list[CheckReport]]] = []
        for entry in settled:
            reports = entry.ordered_reports(self.constraints)
            self._record_resolved(reports)
            results.append((entry.update, reports))
        self._sync_gauges()
        return results

    def _record_resolved(self, reports: list[CheckReport]) -> None:
        """Fold one settled entry's final reports into the protocol
        stats (shared by the thread- and process-mode drains)."""
        self.stats.deferred_resolved += 1
        deciding = (
            max(report.level for report in reports)
            if reports
            else CheckLevel.CONSTRAINTS_ONLY
        )
        self.stats.resolved_at_level[deciding] += 1
        if any(r.outcome is Outcome.VIOLATED for r in reports):
            self.stats.rejected += 1

    def _sync_gauges(self) -> None:
        if self._procpool is not None:
            sessions, compiler = self._procpool.stats_view()
        else:
            sessions, compiler = self.sessions, self.compiler
        sync_session_gauges(
            self.stats, sessions, compiler, self.remote_link
        )
        self.stats.deferred_rolled_back = sum(
            session.stats.deferred_rolled_back for session in sessions
        )
