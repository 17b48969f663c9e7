"""Rebuild the exact pre-crash state from a checkpoint + journal tail.

Recovery is **replay over a consistent prefix**, not recomputation: the
newest valid checkpoint manifest provides the state at stream position
P, and only the journal records *after* P are replayed — and replayed as
pure state application (facts in/out per the journalled effective
deltas, pending descriptors appended, stats folded from the journalled
verdicts), never by re-running the checking pipeline.  The checking
pipeline re-runs only for the updates the journal never persisted (the
unsynced suffix a crash legitimately loses), which the resumed stream
processes live — and because the persisted prefix carries the remote
link's RNG/breaker state as of its last record, the live re-run draws
exactly the faults the crashed run drew.

Invariants the caller (``check-stream --resume``) relies on:

* every journal record at ``pos <= P`` is also reflected in the
  checkpoint (checkpoints are cut at safe points after a sync);
* pending-entry optimistic facts are *included* in the record deltas, so
  replaying deltas and re-queueing descriptors never double-applies;
* drains are not journalled — a crash mid-drain recovers to the
  pre-drain state and the resumed run re-drains deterministically;
* rebalance cut changes are journalled last-wins; verdicts and final
  state are cut-independent, so recovery only needs *a* consistent cut
  vector, which it re-partitions the recovered facts by.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.datalog.database import Database
from repro.distributed.stats import ProtocolStats
from repro.durability.checkpoint import latest_checkpoint
from repro.durability.journal import read_journal, report_from_json
from repro.errors import ReproError

__all__ = [
    "RecoveredState",
    "recover",
    "write_meta",
    "load_meta",
]

META_FILE = "meta.json"


def write_meta(directory: str, config: dict) -> None:
    """Persist the run's configuration fingerprint next to the journal.

    ``--resume`` refuses to continue a journal under a different
    configuration (constraints, placement, policies): the journal's
    meaning depends on it.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, META_FILE)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True, indent=1)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_meta(directory: str) -> Optional[dict]:
    path = os.path.join(directory, META_FILE)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class RecoveredState:
    """Everything ``--resume`` needs to reconstruct the checker."""

    #: stream position of the last recovered update record
    pos: int
    #: recovered local-site facts, predicate -> set of fact tuples
    facts: dict[str, set[tuple]] = field(default_factory=dict)
    #: pending-verdict descriptors (journal JSON form), seq ascending
    pending: list[dict] = field(default_factory=list)
    #: highest pending seq ever issued (the arrival clock restarts past it)
    seq: int = 0
    #: recovered protocol counters
    stats: ProtocolStats = field(default_factory=ProtocolStats)
    #: per-session SessionStats dicts as of the checkpoint (shard order);
    #: the tail's session-gauge contributions are not journalled, so
    #: these under-count by at most one checkpoint interval
    session_stats: list[dict] = field(default_factory=list)
    #: per-shard pending-queue descriptors as of the checkpoint (shard
    #: order); ``None`` for unsharded manifests and pre-PR-9 journals
    shard_pending: Optional[list[list[dict]]] = None
    #: per-shard arrival-clock cells (the seq last stamped on each
    #: shard); ``None`` when the manifest predates them or is unsharded
    shard_seq: Optional[list[int]] = None
    #: per-shard worker-restart counters (process executor), so a
    #: resumed run's supervision budget carries over; ``None`` otherwise
    worker_restarts: Optional[list[int]] = None
    #: pending descriptors replayed from the journal *tail* (a subset of
    #: ``pending``); these are not in ``shard_pending`` and the resuming
    #: checker must route them by its own partitioner
    tail_pending: list[dict] = field(default_factory=list)
    #: key-range cut vectors, predicate -> list of boundaries
    cuts: dict[str, list] = field(default_factory=dict)
    #: remote link ``state_dict`` as of the last recovered record
    link_state: Optional[dict] = None
    #: the run's configuration fingerprint (meta.json)
    meta: Optional[dict] = None
    #: every valid update record, stream order (for verdict echo)
    records: list[dict] = field(default_factory=list)
    #: update records replayed from the tail (pos > checkpoint pos)
    replayed: int = 0
    #: torn/corrupt journal lines dropped at validation
    dropped_lines: int = 0

    def database(self) -> Database:
        return Database(
            {predicate: sorted(facts, key=repr) for predicate, facts in self.facts.items()}
        )


def _apply_delta(facts: dict[str, set[tuple]], delta: dict) -> None:
    for predicate, removed in delta["del"].items():
        bucket = facts.get(predicate)
        if bucket is None:
            continue
        for fact in removed:
            bucket.discard(tuple(fact))
    for predicate, added in delta["ins"].items():
        bucket = facts.setdefault(predicate, set())
        for fact in added:
            bucket.add(tuple(fact))


def recover(directory: str) -> RecoveredState:
    """Restore the newest valid checkpoint and replay the journal tail."""
    checkpoint = latest_checkpoint(directory)
    if checkpoint is None:
        raise ReproError(
            f"no valid checkpoint manifest in {directory!r}; "
            "nothing to resume from"
        )
    records, dropped = read_journal(directory)
    meta = load_meta(directory)
    apply_on_unknown = True if meta is None else meta.get("apply_on_unknown", True)

    state = RecoveredState(
        pos=int(checkpoint["pos"]),
        facts={
            predicate: {tuple(fact) for fact in bucket}
            for predicate, bucket in checkpoint["facts"].items()
        },
        pending=list(checkpoint.get("pending", [])),
        seq=int(checkpoint.get("seq", 0)),
        stats=ProtocolStats.from_dict(checkpoint["stats"]),
        session_stats=list(checkpoint.get("session_stats", [])),
        shard_pending=checkpoint.get("shard_pending"),
        shard_seq=checkpoint.get("shard_seq"),
        worker_restarts=checkpoint.get("worker_restarts"),
        cuts={
            predicate: list(bounds)
            for predicate, bounds in checkpoint.get("cuts", {}).items()
        },
        link_state=checkpoint.get("link"),
        meta=meta,
        dropped_lines=dropped,
    )

    updates = [r for r in records if r.get("t") == "u"]
    updates.sort(key=lambda r: r["pos"])
    state.records = updates
    for record in updates:
        if record["pos"] <= state.pos:
            continue
        if record["pos"] != state.pos + 1:
            raise ReproError(
                f"journal gap: expected record {state.pos + 1}, "
                f"found {record['pos']}"
            )
        state.pos = record["pos"]
        state.replayed += 1
        if record["applied"] and record["delta"] is not None:
            _apply_delta(state.facts, record["delta"])
        if record["pending"] is not None:
            state.pending.append(record["pending"])
            state.tail_pending.append(record["pending"])
        if "link" in record:
            state.link_state = record["link"]
        # Fold the journalled verdicts exactly the way the live checker
        # folded them (ProtocolStats.record_reports is the shared path).
        reports = [report_from_json(r) for r in record["reports"]]
        state.stats.updates += 1
        state.stats.record_reports(reports, apply_on_unknown)

    # Rebalance cuts: last record wins per predicate (cut-independence
    # means any consistent vector reproduces the verdicts, but the
    # newest is what the crashed run was actually routing by).
    for record in records:
        if record.get("t") == "r":
            state.cuts[record["pred"]] = list(record["cuts"])

    # Future patches: an "fp" record says the in-flight fetch journalled
    # with the matching pending descriptor landed before the crash —
    # clear the marker so the recovered descriptors reflect it.
    landed = {
        record["seq"] for record in records if record.get("t") == "fp"
    }
    if landed:
        for descriptor in state.pending:
            marker = descriptor.get("future")
            if marker is not None and int(descriptor["seq"]) in landed:
                descriptor["future"] = dict(marker, pending=False)

    for descriptor in state.pending:
        state.seq = max(state.seq, int(descriptor["seq"]))
    if state.shard_seq:
        state.seq = max(state.seq, *state.shard_seq)
    return state
