"""Live shard rebalancing: move key-range cut points at a fence.

A :class:`~repro.distributed.sharded.KeyRangePartitioner` splits
selected predicates across shards by their first column.  A static cut
vector chosen up front goes stale the moment the workload skews: one
shard soaks up the hot key range while its siblings idle, and the
parallel stream degenerates to the hot shard's serial throughput.  This
module supplies the pieces :class:`~repro.distributed.sharded.ShardedChecker`
composes into *live* rebalancing (DESIGN.md §11):

* :class:`ShardLoadTracker` — a sliding window of per-shard routed
  update counts plus sampled routing keys (the load gauges);
* :func:`propose_split` — when one shard runs hot, split its range at
  the median of its sampled keys and merge the coldest adjacent pair of
  ranges elsewhere, keeping the shard count fixed;
* :func:`migration_moves` — the exact half-open key intervals whose
  owner changes between two cut vectors (the union of both vectors cuts
  the key space into intervals inside which ownership is constant, so
  the diff is a short list of ``(lo, hi, source, target)`` moves);
* :func:`extract_range` / :func:`inject_range` — the two halves of the
  fence-protected handoff, operating on a
  :class:`~repro.core.session.CheckSession`: the source shard reverses
  in-range pending entries (quarantine), deletes in-range facts through
  the maintained-materialization delta path, and emits verified facts
  plus replayable entry descriptions; the target re-inserts the facts
  and replays the entries in global sequence order, re-applying each
  optimistic delta for a fresh, locally valid undo token.  Pending
  entries keep their global sequence numbers, so the drain's
  oldest-first FIFO and the quarantine discipline survive the move.

The checker only ever applies a plan **at a fence** — the parallel
scheduler's segment barrier or the serial stream's flush boundary —
when no worker holds a slice, so routing and data move atomically with
respect to verdicts (the two-phase fence protocol in DESIGN.md §11).
The same primitives drive both executors: the thread checker calls
:func:`extract_range` / :func:`inject_range` on its own sessions, the
process runner ships them to the shard workers
(:meth:`~repro.distributed.procpool.ProcessShardRunner.migrate_range`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.session import CheckSession, PendingVerdict
from repro.updates.update import Deletion, Insertion, Update

__all__ = [
    "RebalancePolicy",
    "RebalancePlan",
    "ShardLoadTracker",
    "migration_moves",
    "propose_split",
    "extract_range",
    "inject_range",
    "replay_entries",
    "routing_values",
]


def routing_values(update: Update) -> tuple:
    """The value tuple a partitioner routes *update* by (a
    modification routes by its new fact; see ``shard_of``)."""
    values = getattr(update, "values", None)
    if values is None:
        values = update.new_values
    return values


@dataclass(frozen=True)
class RebalancePolicy:
    """Knobs for the checker's automatic rebalancing loop.

    ``interval``
        Routed updates between hot-shard inspections (each inspection
        costs a barrier on the parallel path).
    ``window``
        Sliding-window size of the load gauges — how much history a
        hotness verdict looks at.
    ``hot_factor``
        A shard is *hot* when its windowed load exceeds
        ``hot_factor * total / shards`` (1.0 = perfectly even).
    ``min_observations``
        No verdict before the window holds at least this many routed
        updates — a cold start must not trigger a migration.
    """

    interval: int = 256
    window: int = 512
    hot_factor: float = 1.5
    min_observations: int = 64

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("rebalance interval must be >= 1")
        if self.window < 1:
            raise ValueError("rebalance window must be >= 1")
        if self.hot_factor <= 1.0:
            raise ValueError(
                "hot_factor must exceed 1.0 (1.0 is a perfectly even load)"
            )
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")


@dataclass(frozen=True)
class RebalancePlan:
    """One cut-vector change plus the exact data moves it entails."""

    predicate: str
    hot_shard: int
    old_cuts: tuple
    new_cuts: tuple
    #: ``(lo, hi, source, target)`` half-open key ranges to migrate
    moves: tuple


class ShardLoadTracker:
    """Sliding-window per-shard load gauges with routing-key samples.

    ``observe`` is called once per routed update (by the checker, on the
    main thread — never from workers), so the window is an exact recent
    history, not a sample of one."""

    def __init__(
        self, shards: int, policy: Optional[RebalancePolicy] = None
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        self.policy = policy or RebalancePolicy()
        #: (shard, predicate, routing key | None), newest last
        self._window: deque = deque(maxlen=self.policy.window)

    def observe(
        self, shard: int, predicate: str, key: object = None
    ) -> None:
        self._window.append((shard, predicate, key))

    @property
    def observations(self) -> int:
        return len(self._window)

    def loads(self) -> list[int]:
        """Windowed routed-update count per shard (the queue-depth
        proxy the hotness verdict reads)."""
        counts = [0] * self.shards
        for shard, _predicate, _key in self._window:
            counts[shard] += 1
        return counts

    def hot_shard(self) -> Optional[int]:
        """The hottest shard, when it is hot enough to act on."""
        if self.observations < self.policy.min_observations:
            return None
        loads = self.loads()
        total = sum(loads)
        if total == 0:
            return None
        hottest = max(range(self.shards), key=lambda s: loads[s])
        threshold = self.policy.hot_factor * total / self.shards
        if loads[hottest] <= threshold:
            return None
        return hottest

    def keys(self, predicate: str, shard: int) -> list:
        """The routing keys sampled for *predicate* on *shard*, in
        observation order."""
        return [
            key
            for obs_shard, obs_predicate, key in self._window
            if obs_shard == shard and obs_predicate == predicate
            and key is not None
        ]

    def reset(self) -> None:
        """Drop the window — after a migration the history describes a
        topology that no longer exists."""
        self._window.clear()


def migration_moves(old_cuts: tuple, new_cuts: tuple) -> list[tuple]:
    """The half-open key intervals whose owning shard changes between
    two cut vectors, as ``(lo, hi, source, target)`` with ``None`` for
    an unbounded end.

    The union of both vectors partitions the key space into intervals
    containing no cut of either, so within each interval both
    ``bisect_right`` owners are constant; the diff is exact, not
    sampled.
    """
    combined = sorted(set(old_cuts) | set(new_cuts))
    moves: list[tuple] = []
    for index in range(len(combined) + 1):
        lo = combined[index - 1] if index > 0 else None
        hi = combined[index] if index < len(combined) else None
        # For any key k in [lo, hi): the cuts <= k are exactly the cuts
        # <= lo (the next cut either way is hi), so lo stands in for
        # the whole interval; the leftmost interval precedes every cut
        # of both vectors, hence owner 0 on both sides.
        source = bisect_right(old_cuts, lo) if lo is not None else 0
        target = bisect_right(new_cuts, lo) if lo is not None else 0
        if source != target:
            moves.append((lo, hi, source, target))
    return moves


def propose_split(
    predicate: str,
    cuts: Sequence,
    hot: int,
    hot_keys: Sequence,
    loads: Sequence[int],
) -> Optional[RebalancePlan]:
    """Split the hot shard's range at the median of its sampled keys,
    merging the coldest adjacent range pair to keep the shard count.

    Returns None when no productive cut exists: no key samples, a
    median that falls on the range boundary (all load on one key — a
    split would just relocate the hotspot), or a no-op vector.
    """
    cuts = tuple(cuts)
    if not hot_keys:
        return None
    ordered = sorted(hot_keys)
    median = ordered[len(ordered) // 2]
    if median == ordered[0]:
        # Everything at or below the median is one key; cut just above
        # it instead so the split actually parts the load in two.
        higher = [key for key in ordered if key > median]
        if not higher:
            return None
        median = higher[0]
    lo = cuts[hot - 1] if hot > 0 else None
    hi = cuts[hot] if hot < len(cuts) else None
    if lo is not None and median <= lo:
        return None
    if hi is not None and median >= hi:
        return None
    if not cuts:
        return None
    # Dropping cuts[j] merges ranges j and j+1.  Prefer a pair that
    # does not touch the hot range (merging the range we are trying to
    # relieve would undo the split); with two shards there is no such
    # pair and dropping the only cut *is* the median split.
    candidates = []
    for j in range(len(cuts)):
        touches_hot = 1 if hot in (j, j + 1) else 0
        candidates.append((touches_hot, loads[j] + loads[j + 1], j))
    _touches, _load, drop = min(candidates)
    new_cuts = tuple(
        sorted([c for k, c in enumerate(cuts) if k != drop] + [median])
    )
    if new_cuts == cuts:
        return None
    moves = tuple(migration_moves(cuts, new_cuts))
    if not moves:
        return None
    return RebalancePlan(
        predicate=predicate,
        hot_shard=hot,
        old_cuts=cuts,
        new_cuts=new_cuts,
        moves=moves,
    )


# ---------------------------------------------------------------------------
# The fence-protected handoff, on a live session.  Shared verbatim by
# both executors: the thread checker calls these on its own sessions,
# the process workers run them via ``_cmd_extract_range`` /
# ``_cmd_inject_range`` (the descriptions are pure data, so they cross
# the process boundary unchanged).
# ---------------------------------------------------------------------------


def extract_range(
    session: CheckSession, predicate: str, lo, hi
) -> dict:
    """Carve the half-open key range ``[lo, hi)`` (None = unbounded)
    out of *session*'s shard: its facts leave the database
    (materializations stay maintained through the per-fact deltas) and
    its pending entries leave the queue, each reversed first so the
    migrated state carries verified facts plus a replayable entry
    description."""

    def in_range(values: tuple) -> bool:
        if not values:
            return False
        key = values[0]
        if lo is not None and key < lo:
            return False
        if hi is not None and key >= hi:
            return False
        return True

    entries = []
    keep = []
    # Newest-first reversal: the same discipline the drain's quarantine
    # uses, so stacked optimistic deltas unwind in the valid order.
    for entry in reversed(session._pending):
        if entry.update.predicate == predicate and in_range(
            routing_values(entry.update)
        ):
            session._quarantine_entry(entry)
            entries.append(
                {
                    "seq": entry.seq,
                    "update": entry.update,
                    "unresolved": entry.unresolved,
                    "reports": entry.reports,
                    "applied": entry.applied,
                }
            )
        else:
            keep.append(entry)
    session._pending[:] = list(reversed(keep))
    entries.reverse()

    moved = [
        fact for fact in session.local_db.facts(predicate) if in_range(fact)
    ]
    for fact in moved:
        session.apply_unchecked(Deletion(predicate, fact))
    return {"facts": moved, "entries": entries}


def replay_entries(session: CheckSession, entries: Sequence[dict]) -> None:
    """Replay pending-entry descriptions into *session*'s queue in
    global sequence order: each applied entry's optimistic delta is
    re-applied against this database (maintained materializations
    included) for a fresh, locally valid undo token, and the rebuilt
    entries merge into the existing queue by sequence number.  Shared by
    the rebalance handoff (:func:`inject_range`) and worker-crash
    rehydration (:mod:`repro.distributed.procpool`)."""
    rebuilt = []
    for desc in sorted(entries, key=lambda d: d["seq"]):
        token = None
        if desc["applied"]:
            token = session.local_db.apply(desc["update"].as_delta())
            effective = token.as_delta()
            if not effective.is_empty():
                for mat in session._materializations.values():
                    mat.apply_delta(effective)
                    session.stats.incremental_deltas += 1
        rebuilt.append(
            PendingVerdict(
                seq=desc["seq"],
                update=desc["update"],
                unresolved=tuple(desc["unresolved"]),
                reports=dict(desc["reports"]),
                applied=desc["applied"],
                token=token,
            )
        )
    merged = sorted(
        list(session._pending) + rebuilt, key=lambda entry: entry.seq
    )
    session._pending[:] = merged


def inject_range(
    session: CheckSession,
    predicate: str,
    facts: Sequence[tuple],
    entries: Sequence[dict],
) -> None:
    """Install a migrated key range: base facts first, then each pending
    entry replayed in sequence order (:func:`replay_entries`)."""
    for fact in facts:
        session.apply_unchecked(Insertion(predicate, tuple(fact)))
    replay_entries(session, entries)
