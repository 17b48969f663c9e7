"""Protocol statistics of the distributed checker.

:class:`ProtocolStats` is the counter surface
:class:`~repro.distributed.sharded.ShardedChecker` reports through, and
:func:`sync_session_gauges` is the one place the cumulative session /
compiler / link gauges get mirrored into it.  Journal recovery folds
journalled verdicts through the same :meth:`ProtocolStats.record_reports`
the live checker uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Optional

from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.core.session import CheckSession, counters_from_dict
from repro.errors import ReproError

__all__ = ["ProtocolStats", "sync_session_gauges"]


@dataclass
class ProtocolStats:
    """Aggregated statistics across processed updates."""

    updates: int = 0
    resolved_at_level: dict[CheckLevel, int] = field(
        default_factory=lambda: {level: 0 for level in CheckLevel}
    )
    remote_round_trips: int = 0
    #: shard mode: sibling-shard fetches for cross-shard union views
    #: (site-local data, so never counted as remote round trips)
    peer_fetches: int = 0
    rejected: int = 0
    #: updates withheld because a verdict stayed UNKNOWN while the
    #: checker runs with ``apply_on_unknown=False``
    deferred_unknown: int = 0
    #: stream mode: constraint materializations built from scratch
    materializations_built: int = 0
    #: stream mode: checks answered from a maintained materialization
    materialization_reuses: int = 0
    #: stream mode: delta-maintenance passes over materializations
    incremental_deltas: int = 0
    #: transactions started / aborted via exact token rollback
    transactions: int = 0
    transactions_rolled_back: int = 0
    #: parallel shard mode: fence-free segments drained at a barrier,
    #: and updates that fenced (ran alone between barriers)
    parallel_segments: int = 0
    fences: int = 0
    #: modifications decomposed into cross-shard delete+insert halves
    cross_shard_modifications: int = 0
    #: live rebalancing: cut-vector changes applied at a fence, and the
    #: total facts migrated between shards by them
    rebalances: int = 0
    rebalance_moved_facts: int = 0
    #: level-1 verdict LRU accounting (shared by both modes)
    level1_cache_hits: int = 0
    level1_cache_misses: int = 0
    #: updates whose level-3 verdict was DEFERRED (remote unreachable)
    deferred_remote: int = 0
    #: deferred verdicts settled by ``resolve_pending``
    deferred_resolved: int = 0
    #: optimistically applied deferred updates reversed on a VIOLATED resolution
    deferred_rolled_back: int = 0
    #: fault-tolerant link accounting (gauges mirrored from ``LinkStats``;
    #: with a federation these are sums across every site link)
    remote_retries: int = 0
    remote_failures: int = 0
    remote_fast_fails: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    #: process-executor supervision: dead shard workers respawned from
    #: their ``ShardConfig`` pickle and rehydrated by command replay
    worker_restarts: int = 0

    @property
    def resolved_locally(self) -> int:
        return (
            self.resolved_at_level[CheckLevel.CONSTRAINTS_ONLY]
            + self.resolved_at_level[CheckLevel.WITH_UPDATE]
            + self.resolved_at_level[CheckLevel.WITH_LOCAL_DATA]
        )

    @property
    def local_resolution_rate(self) -> float:
        if self.updates == 0:
            return 1.0
        return self.resolved_locally / self.updates

    def summary_rows(self) -> list[tuple[str, object]]:
        rows: list[tuple[str, object]] = [("updates", self.updates)]
        rows.extend(
            (f"resolved at {level}", self.resolved_at_level[level])
            for level in CheckLevel
        )
        rows.append(("remote round trips", self.remote_round_trips))
        rows.append(("peer (cross-shard) fetches", self.peer_fetches))
        rows.append(("rejected (violations)", self.rejected))
        rows.append(("deferred on unknown", self.deferred_unknown))
        rows.append(("local resolution rate", round(self.local_resolution_rate, 4)))
        rows.append(("materializations built", self.materializations_built))
        rows.append(("materialization reuses", self.materialization_reuses))
        rows.append(("incremental deltas", self.incremental_deltas))
        rows.append(("transactions", self.transactions))
        rows.append(("transactions rolled back", self.transactions_rolled_back))
        rows.append(("parallel segments", self.parallel_segments))
        rows.append(("fences", self.fences))
        rows.append(
            ("cross-shard modifications", self.cross_shard_modifications)
        )
        rows.append(("rebalances", self.rebalances))
        rows.append(("rebalance moved facts", self.rebalance_moved_facts))
        rows.append(("level-1 cache hits", self.level1_cache_hits))
        rows.append(("level-1 cache misses", self.level1_cache_misses))
        rows.append(("deferred (remote unreachable)", self.deferred_remote))
        rows.append(("deferred resolved", self.deferred_resolved))
        rows.append(("deferred rolled back", self.deferred_rolled_back))
        rows.append(("remote retries", self.remote_retries))
        rows.append(("remote failures", self.remote_failures))
        rows.append(("remote fast-fails (breaker open)", self.remote_fast_fails))
        rows.append(("breaker opens", self.breaker_opens))
        rows.append(("breaker half-opens", self.breaker_half_opens))
        rows.append(("breaker closes", self.breaker_closes))
        rows.append(("worker restarts", self.worker_restarts))
        return rows

    def to_dict(self) -> dict:
        """Plain-dict form for checkpoint manifests (JSON-safe).

        ``resolved_at_level`` is keyed by the integer level value; every
        other field is already a plain int.
        """
        payload = {
            field_.name: getattr(self, field_.name)
            for field_ in fields(self)
            if field_.name != "resolved_at_level"
        }
        payload["resolved_at_level"] = {
            str(int(level)): count
            for level, count in self.resolved_at_level.items()
        }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ProtocolStats":
        data = dict(payload)
        levels = data.pop("resolved_at_level", {})
        stats = counters_from_dict(cls, data)
        for key, count in levels.items():
            try:
                level = CheckLevel(int(key))
            except ValueError as exc:
                raise ReproError(
                    f"checkpoint ProtocolStats carries a level this build "
                    f"does not know: {key}"
                ) from exc
            stats.resolved_at_level[level] = count
        return stats

    def record_reports(
        self, reports: list[CheckReport], apply_on_unknown: bool = True
    ) -> None:
        """Fold one update's final reports into the counters (shared by
        :class:`~repro.distributed.sharded.ShardedChecker` and journal
        recovery)."""
        if any(report.outcome is Outcome.VIOLATED for report in reports):
            self.rejected += 1
        elif any(report.outcome is Outcome.DEFERRED for report in reports):
            # The deciding level is genuinely unknown while the remote is
            # unreachable: nothing is added to resolved_at_level until
            # resolve_pending settles the verdict, so local_resolution_rate
            # never counts a deferral as local.
            self.deferred_remote += 1
            return
        deciding = (
            max(report.level for report in reports)
            if reports
            else CheckLevel.CONSTRAINTS_ONLY
        )
        self.resolved_at_level[deciding] += 1
        if not apply_on_unknown and any(
            report.outcome is Outcome.UNKNOWN for report in reports
        ):
            self.deferred_unknown += 1


#: cumulative :class:`~repro.core.session.SessionStats` gauges mirrored
#: (summed across sessions) into :class:`ProtocolStats` by
#: :func:`sync_session_gauges`
_SESSION_GAUGES = (
    "materializations_built",
    "materialization_reuses",
    "incremental_deltas",
    "peer_fetches",
)


def sync_session_gauges(
    stats: ProtocolStats,
    sessions: Iterable[Optional[CheckSession]],
    compiler,
    remote_link=None,
) -> None:
    """Mirror the cumulative session/compiler/link gauges into *stats*.

    Session gauges are *summed* across the given sessions — one per
    shard of a :class:`~repro.distributed.sharded.ShardedChecker`; they
    are cumulative gauges, not per-call increments, so the copy is a
    wholesale overwrite.  *remote_link* may be a single
    :class:`~repro.distributed.remote.RemoteLink` or a
    :class:`~repro.distributed.remote.FederationLink` — both expose a
    ``stats`` aggregate with the mirrored fields (the federation's is
    the sum over its site links)."""
    live = [session for session in sessions if session is not None]
    if live:
        for gauge in _SESSION_GAUGES:
            setattr(
                stats, gauge, sum(getattr(s.stats, gauge) for s in live)
            )
    info = compiler.level1_cache_info()
    stats.level1_cache_hits = info["hits"]
    stats.level1_cache_misses = info["misses"]
    if remote_link is not None:
        ls = remote_link.stats
        stats.remote_retries = ls.retries
        stats.remote_failures = ls.failures
        stats.remote_fast_fails = ls.fetches_fast_failed
        stats.breaker_opens = ls.breaker_opens
        stats.breaker_half_opens = ls.breaker_half_opens
        stats.breaker_closes = ls.breaker_closes
