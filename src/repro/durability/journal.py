"""Append-only write-ahead journal for check-stream runs.

The journal is an *effects log*: exactly one JSONL record per stream
update, in arrival order, carrying everything recovery needs to reapply
the update as pure state — the update itself, its final per-constraint
verdicts, whether it stayed applied, the *effective* delta its
application made (the ``UndoToken`` contents, so recovery never
re-derives redundant-insert edge cases), the pending-verdict descriptor
it queued (if any), and the remote link's mutable state whenever that
state changed.  Rebalance cut changes get their own record type.

Each line is ``<crc32 hex> <json>``; a torn tail (half-written line,
flipped bit) fails the CRC and is truncated, not trusted.  Records are
buffered in memory and flushed with one ``write`` + ``fsync`` every
``sync_every`` safe points, so durability costs one syscall pair per
batch, not per update.  A crash loses at most the unsynced suffix —
which is exactly the *consistent prefix* property recovery relies on:
the lost updates are simply reprocessed live, and because the persisted
prefix includes the link/RNG state as of its last record, the re-run
draws the same faults the crashed run drew.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from typing import Callable, Iterable, Optional

from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.core.session import PendingVerdict
from repro.datalog.database import UndoToken
from repro.errors import ReproError
from repro.updates.update import Deletion, Insertion, Modification, Update

__all__ = [
    "JournalWriter",
    "OrderedJournalCommitter",
    "read_journal",
    "update_to_json",
    "update_from_json",
    "report_to_json",
    "report_from_json",
    "token_to_json",
    "token_from_json",
    "entry_to_json",
    "entry_from_json",
    "JOURNAL_FILE",
]

JOURNAL_FILE = "journal.jsonl"


# -- serialization helpers ---------------------------------------------------
#
# ``str(update)`` does not round-trip through the CLI's update parser
# (tuple reprs disagree with the update grammar on 1-tuples and quoting),
# so updates are journalled structurally.

def update_to_json(update: Update) -> dict:
    if isinstance(update, Insertion):
        return {"op": "+", "pred": update.predicate, "values": list(update.values)}
    if isinstance(update, Deletion):
        return {"op": "-", "pred": update.predicate, "values": list(update.values)}
    if isinstance(update, Modification):
        return {
            "op": "~",
            "pred": update.predicate,
            "old": list(update.old_values),
            "new": list(update.new_values),
        }
    raise TypeError(f"not a journallable update: {update!r}")


def update_from_json(payload: dict) -> Update:
    op = payload["op"]
    if op == "+":
        return Insertion(payload["pred"], tuple(payload["values"]))
    if op == "-":
        return Deletion(payload["pred"], tuple(payload["values"]))
    if op == "~":
        return Modification(
            payload["pred"], tuple(payload["old"]), tuple(payload["new"])
        )
    raise ValueError(f"unknown update op {op!r}")


def report_to_json(report: CheckReport) -> list:
    return [
        report.constraint_name,
        report.outcome.value,
        int(report.level),
        report.remote_accessed,
        report.detail,
    ]


def report_from_json(payload: list) -> CheckReport:
    name, outcome, level, remote_accessed, detail = payload
    return CheckReport(
        name, Outcome(outcome), CheckLevel(level), remote_accessed, detail
    )


def token_to_json(token: UndoToken) -> dict:
    return {
        "ins": {
            predicate: sorted((list(fact) for fact in facts), key=repr)
            for predicate, facts in sorted(token.insertions.items())
            if facts
        },
        "del": {
            predicate: sorted((list(fact) for fact in facts), key=repr)
            for predicate, facts in sorted(token.deletions.items())
            if facts
        },
    }


def token_from_json(payload: dict) -> UndoToken:
    return UndoToken(
        {
            predicate: {tuple(fact) for fact in facts}
            for predicate, facts in payload["ins"].items()
        },
        {
            predicate: {tuple(fact) for fact in facts}
            for predicate, facts in payload["del"].items()
        },
    )


def entry_to_json(entry: PendingVerdict) -> dict:
    """A queued deferred verdict as a plain descriptor."""
    return {
        "seq": entry.seq,
        "update": update_to_json(entry.update),
        "unresolved": list(entry.unresolved),
        "reports": [report_to_json(r) for r in entry.reports.values()],
        "applied": entry.applied,
        "token": None if entry.token is None else token_to_json(entry.token),
    }


def entry_from_json(payload: dict) -> PendingVerdict:
    reports = [report_from_json(r) for r in payload["reports"]]
    return PendingVerdict(
        seq=payload["seq"],
        update=update_from_json(payload["update"]),
        unresolved=tuple(payload["unresolved"]),
        reports={r.constraint_name: r for r in reports},
        applied=payload["applied"],
        token=(
            None if payload["token"] is None else token_from_json(payload["token"])
        ),
    )


def _encode_line(record: dict) -> bytes:
    body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return f"{crc:08x} ".encode("ascii") + body + b"\n"


def _decode_line(line: bytes) -> Optional[dict]:
    """Parse one journal line; ``None`` means torn/corrupt."""
    if not line.endswith(b"\n"):
        return None
    try:
        crc_text, body = line[:-1].split(b" ", 1)
        expected = int(crc_text, 16)
    except ValueError:
        return None
    if zlib.crc32(body) & 0xFFFFFFFF != expected:
        return None
    try:
        return json.loads(body)
    except ValueError:
        return None


class JournalWriter:
    """The session-facing durability sink (``CheckSession.effect_log``).

    One writer serves a whole checker run — serial shard mode shares it
    across sessions directly (updates settle in arrival order), while
    parallel and process-pool modes route concurrently-settled effects
    through an :class:`OrderedJournalCommitter` in front of it.  The
    writer owns:

    * the record counter ``pos`` (1-based stream position of the last
      update record; every update gets one record);
    * **link-state change detection**: when a record is written and the
      attached link's ``(fetches, attempts)`` moved since the previous
      record, the link's full ``state_dict()`` rides on the record, so
      recovery restores the fetch/RNG/breaker state as of the consistent
      prefix and a resumed run draws the same faults;
    * **batched fsync** via :meth:`safe_point`, called by the session at
      each between-updates boundary: every ``sync_every`` safe points the
      buffer is written and fsynced (``sync_every=1`` is write-through);
    * the **checkpoint cadence**: ``checkpoint_every`` safe points after
      the last checkpoint, ``checkpoint_cb(pos)`` fires (the CLI wires a
      manifest writer in), always after a sync so a manifest never
      references unsynced records;
    * the ``"update"`` chaos point: ``crash_injector.hit("update")`` at
      each safe point, after the sync/checkpoint work, so a hard kill at
      an update boundary leaves a cleanly synced prefix.
    """

    def __init__(
        self,
        directory: str,
        sync_every: int = 16,
        link=None,
        checkpoint_every: int = 0,
        checkpoint_cb: Optional[Callable[[int], None]] = None,
        crash_injector=None,
    ) -> None:
        if sync_every < 1:
            raise ReproError("sync_every must be at least 1")
        if checkpoint_every < 0:
            raise ReproError("checkpoint_every must be non-negative")
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, JOURNAL_FILE)
        self.sync_every = sync_every
        self.link = link
        self.checkpoint_every = checkpoint_every
        self.checkpoint_cb = checkpoint_cb
        self.crash_injector = crash_injector
        #: stream position of the last recorded update (resume appends)
        self.pos = 0
        self._buffer: list[bytes] = []
        self._safe_points_since_sync = 0
        self._safe_points_since_checkpoint = 0
        self._last_link_probe: Optional[tuple] = None
        self._closed = False
        self._fh = open(self.path, "ab")
        if self.link is not None:
            self._last_link_probe = self._link_probe()

    # -- link plumbing -----------------------------------------------------
    def _link_probe(self) -> tuple:
        stats = self.link.stats
        return (stats.fetches, stats.attempts)

    def _link_state_if_changed(self) -> Optional[dict]:
        if self.link is None:
            return None
        probe = self._link_probe()
        if probe == self._last_link_probe:
            return None
        self._last_link_probe = probe
        return self.link.state_dict()

    # -- the effect-log protocol ------------------------------------------
    def record_update(
        self,
        update: Update,
        reports: Iterable[CheckReport],
        applied: bool,
        token: Optional[UndoToken],
        entry: Optional[PendingVerdict],
    ) -> None:
        self.pos += 1
        record = {
            "t": "u",
            "pos": self.pos,
            "update": update_to_json(update),
            "reports": [report_to_json(r) for r in reports],
            "applied": applied,
            "delta": None if token is None else token_to_json(token),
            "pending": None if entry is None else entry_to_json(entry),
        }
        link_state = self._link_state_if_changed()
        if link_state is not None:
            record["link"] = link_state
        self._buffer.append(_encode_line(record))

    def record_rebalance(self, predicate: str, cuts: Iterable) -> None:
        """Journal a cut-vector change (last record wins on recovery)."""
        self._buffer.append(
            _encode_line(
                {"t": "r", "pos": self.pos, "pred": predicate, "cuts": list(cuts)}
            )
        )

    def safe_point(self, defer_checkpoint: bool = False) -> None:
        """Between-updates boundary: sync cadence, checkpoint cadence, chaos.

        Under concurrent execution the caller passes ``defer_checkpoint``:
        the cadence still accumulates (and syncs still fire), but the
        manifest write is postponed to the next :meth:`barrier`, where the
        in-memory state provably equals the committed prefix.  A manifest
        cut mid-segment would pair a prefix position with state from
        updates whose records are still staged.
        """
        self._safe_points_since_sync += 1
        if self._safe_points_since_sync >= self.sync_every:
            self.sync()
        if self.checkpoint_every and self.checkpoint_cb is not None:
            self._safe_points_since_checkpoint += 1
            if (
                not defer_checkpoint
                and self._safe_points_since_checkpoint >= self.checkpoint_every
            ):
                self._safe_points_since_checkpoint = 0
                self.sync()
                self.checkpoint_cb(self.pos)
        if self.crash_injector is not None:
            self.crash_injector.hit("update")

    def barrier(self) -> None:
        """Fire a checkpoint deferred by ``safe_point(defer_checkpoint=True)``.

        Called at fence/flush barriers, where every record at ``pos <=
        self.pos`` is committed and the checker's in-memory state reflects
        exactly those records.  At most one manifest is cut per barrier,
        however many safe points accumulated inside the segment.
        """
        if (
            self.checkpoint_every
            and self.checkpoint_cb is not None
            and self._safe_points_since_checkpoint >= self.checkpoint_every
        ):
            self._safe_points_since_checkpoint = 0
            self.sync()
            self.checkpoint_cb(self.pos)

    # -- durability --------------------------------------------------------
    def sync(self) -> None:
        """Write and fsync everything buffered."""
        self._safe_points_since_sync = 0
        if not self._buffer:
            return
        self._fh.write(b"".join(self._buffer))
        self._buffer.clear()
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def abandon(self) -> None:
        """Drop the unsynced buffer and close — simulate a crash.

        What a real crash does to the unsynced suffix, in process: the
        kill-anywhere property test calls this instead of SIGKILLing
        itself, then recovers from what actually reached the disk.
        Idempotent, in either order with :meth:`close`.
        """
        self._buffer.clear()
        if not self._closed:
            self._closed = True
            self._fh.close()

    def checkpoint_now(self, payload_extra: Optional[dict] = None) -> None:
        """Sync and fire the checkpoint callback unconditionally (the CLI
        calls this once at end-of-stream, *before* the drain — drains are
        never journalled; recovery re-drains deterministically)."""
        self.sync()
        self._safe_points_since_checkpoint = 0
        if self.checkpoint_cb is not None:
            self.checkpoint_cb(self.pos)

    def close(self) -> None:
        """Sync and close.  Idempotent; a no-op after :meth:`abandon`."""
        if self._closed:
            return
        self.sync()
        self._closed = True
        self._fh.close()


class OrderedJournalCommitter:
    """Commit concurrently-settled effects in contiguous stream order.

    Parallel and process-pool execution settle updates out of stream
    order (shard slices race), but the journal's meaning depends on
    contiguous positions: recovery refuses gaps, and a crash must lose a
    *suffix*, never punch a hole.  So effects are **emitted at settle
    time but committed in arrival order**: any thread may :meth:`stage`
    the effect for stream position ``pos``; the committer buffers it and
    flushes only the contiguous prefix into the wrapped
    :class:`JournalWriter` — each flushed record also advances the
    writer's sync cadence and passes the ``"update"`` chaos point, so a
    kill at "update K" means kill at the K-th *committed* record exactly
    as in serial mode.  Checkpoint manifests are deferred to
    :meth:`barrier` (see ``JournalWriter.safe_point``).
    """

    def __init__(self, writer: JournalWriter) -> None:
        self.writer = writer
        self._lock = threading.Lock()
        self._staged: dict[int, tuple] = {}
        self._next = writer.pos + 1

    @property
    def prefix_pos(self) -> int:
        """Stream position of the last committed record."""
        return self._next - 1

    def reserve_next(self) -> int:
        """The position a positionless (fence-serial) record will take.

        Only valid between segments, when nothing is staged — a reserved
        position is immediately satisfiable, so staging it commits it.
        """
        with self._lock:
            if self._staged:
                raise ReproError(
                    "cannot reserve a journal position while "
                    f"{len(self._staged)} staged record(s) await commit"
                )
            return self._next

    def stage(self, pos: int, effect: tuple) -> None:
        """Stage the effect for stream position ``pos`` (1-based).

        ``effect`` is ``("u", update, reports, applied, token, entry)`` or
        ``("r", predicate, cuts)``.  Thread-safe; flushes every staged
        record the new arrival makes contiguous.
        """
        with self._lock:
            if pos < self._next or pos in self._staged:
                raise ReproError(
                    f"duplicate journal record for stream position {pos} "
                    f"(committed prefix ends at {self._next - 1})"
                )
            self._staged[pos] = effect
            while self._next in self._staged:
                effect = self._staged.pop(self._next)
                self._next += 1
                if effect[0] == "u":
                    _, update, reports, applied, token, entry = effect
                    self.writer.record_update(
                        update, reports, applied=applied, token=token,
                        entry=entry,
                    )
                    self.writer.safe_point(defer_checkpoint=True)
                elif effect[0] == "r":
                    _, predicate, cuts = effect
                    self.writer.record_rebalance(predicate, cuts)
                else:
                    raise ReproError(f"unknown staged effect kind {effect[0]!r}")

    def barrier(self) -> None:
        """Assert the prefix is whole and cut any due checkpoint manifest.

        Called at fence/flush barriers after every in-flight slice has
        settled; staged leftovers here would mean a hole in the stream.
        """
        with self._lock:
            if self._staged:
                missing = min(self._staged)
                raise ReproError(
                    f"journal commit barrier with {len(self._staged)} "
                    f"staged record(s) but position {self._next} missing "
                    f"(earliest staged: {missing})"
                )
        self.writer.barrier()


def read_journal(directory: str) -> tuple[list[dict], int]:
    """Read every valid record; returns ``(records, dropped_lines)``.

    Validation stops at the first torn/corrupt line — everything after
    it is untrusted even if individually well-formed, because the
    journal's meaning depends on contiguous stream order.
    """
    path = os.path.join(directory, JOURNAL_FILE)
    records: list[dict] = []
    dropped = 0
    if not os.path.exists(path):
        return records, dropped
    with open(path, "rb") as fh:
        lines = fh.readlines()
    for index, line in enumerate(lines):
        record = _decode_line(line)
        if record is None:
            dropped = len(lines) - index
            break
        records.append(record)
    return records, dropped
