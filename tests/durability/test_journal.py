"""The write-ahead effects journal: framing, round-trips, cadences.

Contract under test (DESIGN.md §12): one CRC-framed JSONL record per
stream update; a torn tail fails the CRC and is truncated rather than
trusted; fsync batches every ``sync_every`` safe points; the checkpoint
callback fires on its own cadence, always after a sync; serialization
round-trips updates, reports, undo tokens, and pending descriptors
value-for-value.
"""

import json
import os
import zlib

import pytest

from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.core.session import PendingVerdict
from repro.errors import ReproError
from repro.datalog.database import UndoToken
from repro.durability.journal import (
    JOURNAL_FILE,
    JournalWriter,
    OrderedJournalCommitter,
    _decode_line,
    _encode_line,
    entry_from_json,
    entry_to_json,
    read_journal,
    report_from_json,
    report_to_json,
    token_from_json,
    token_to_json,
    update_from_json,
    update_to_json,
)
from repro.updates.update import Deletion, Insertion, Modification


class TestSerialization:
    @pytest.mark.parametrize(
        "update",
        [
            Insertion("p", (1, 2)),
            Insertion("q", ("a", 3)),
            Deletion("p", (7,)),
            Modification("emp", ("e1", "d2", 30), ("e1", "d3", 35)),
        ],
    )
    def test_update_round_trip(self, update):
        clone = update_from_json(json.loads(json.dumps(update_to_json(update))))
        assert clone == update
        assert str(clone) == str(update)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            update_from_json({"op": "?", "pred": "p", "values": []})

    def test_report_round_trip(self):
        report = CheckReport(
            "c1", Outcome.DEFERRED, CheckLevel.FULL_DATABASE, True, "remote down"
        )
        clone = report_from_json(json.loads(json.dumps(report_to_json(report))))
        assert clone == report

    def test_token_round_trip(self):
        token = UndoToken(
            insertions={"p": {(1, 2), (3, 4)}, "empty": set()},
            deletions={"q": {(9,)}},
        )
        clone = token_from_json(json.loads(json.dumps(token_to_json(token))))
        assert clone.insertions == {"p": {(1, 2), (3, 4)}}
        assert clone.deletions == {"q": {(9,)}}

    def test_entry_round_trip(self):
        report = CheckReport("c1", Outcome.DEFERRED, CheckLevel.FULL_DATABASE, True)
        entry = PendingVerdict(
            seq=7,
            update=Insertion("p", (1, 2)),
            unresolved=("c1",),
            reports={"c1": report},
            applied=True,
            token=UndoToken(insertions={"p": {(1, 2)}}, deletions={}),
        )
        clone = entry_from_json(json.loads(json.dumps(entry_to_json(entry))))
        assert clone.seq == entry.seq
        assert clone.update == entry.update
        assert clone.unresolved == entry.unresolved
        assert clone.reports == entry.reports
        assert clone.applied is True
        assert clone.token.insertions == {"p": {(1, 2)}}


class TestFraming:
    def test_round_trip(self):
        line = _encode_line({"t": "u", "pos": 3})
        assert _decode_line(line) == {"t": "u", "pos": 3}

    def test_flipped_byte_fails_crc(self):
        line = bytearray(_encode_line({"t": "u", "pos": 3}))
        line[12] ^= 0x01
        assert _decode_line(bytes(line)) is None

    def test_missing_newline_is_torn(self):
        line = _encode_line({"t": "u", "pos": 3})
        assert _decode_line(line[:-1]) is None

    def test_garbage_prefix_is_torn(self):
        assert _decode_line(b"not-a-crc {}\n") is None

    def test_crc_matches_zlib(self):
        body = json.dumps({"x": 1}, sort_keys=True, separators=(",", ":"))
        line = _encode_line({"x": 1})
        assert int(line.split(b" ", 1)[0], 16) == (
            zlib.crc32(body.encode()) & 0xFFFFFFFF
        )


def _write_updates(writer, count, start=1):
    for index in range(start, start + count):
        writer.record_update(
            Insertion("p", (index,)),
            [CheckReport("c", Outcome.SATISFIED, CheckLevel.WITH_UPDATE, False)],
            applied=True,
            token=UndoToken(insertions={"p": {(index,)}}, deletions={}),
            entry=None,
        )
        writer.safe_point()


class TestWriter:
    def test_sync_cadence_batches_writes(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=4)
        path = tmp_path / JOURNAL_FILE
        _write_updates(writer, 3)
        assert path.stat().st_size == 0  # still buffered
        _write_updates(writer, 1, start=4)
        assert path.stat().st_size > 0  # fourth safe point synced
        writer.close()
        records, dropped = read_journal(str(tmp_path))
        assert dropped == 0
        assert [r["pos"] for r in records] == [1, 2, 3, 4]

    def test_abandon_drops_the_unsynced_suffix(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=4)
        _write_updates(writer, 4)  # synced
        _write_updates(writer, 3, start=5)  # buffered
        writer.abandon()
        records, dropped = read_journal(str(tmp_path))
        assert [r["pos"] for r in records] == [1, 2, 3, 4]
        assert dropped == 0

    def test_torn_tail_is_truncated(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        _write_updates(writer, 3)
        writer.close()
        with open(tmp_path / JOURNAL_FILE, "ab") as handle:
            handle.write(b"deadbeef {torn half-record")
        records, dropped = read_journal(str(tmp_path))
        assert [r["pos"] for r in records] == [1, 2, 3]
        assert dropped == 1

    def test_corrupt_middle_line_truncates_the_rest(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        _write_updates(writer, 4)
        writer.close()
        path = tmp_path / JOURNAL_FILE
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"00000000 " + lines[1].split(b" ", 1)[1]
        path.write_bytes(b"".join(lines))
        records, dropped = read_journal(str(tmp_path))
        # Everything after the corrupt line is untrusted, even if its
        # own CRC is fine: the journal's meaning is the contiguous prefix.
        assert [r["pos"] for r in records] == [1]
        assert dropped == 3

    def test_checkpoint_cadence_fires_after_sync(self, tmp_path):
        fired = []

        def checkpoint(pos):
            records, _ = read_journal(str(tmp_path))
            fired.append((pos, len(records)))

        writer = JournalWriter(
            str(tmp_path), sync_every=5, checkpoint_every=3,
            checkpoint_cb=checkpoint,
        )
        _write_updates(writer, 7)
        writer.close()
        # Fired at pos 3 and 6, each time with the journal synced through
        # that position (the manifest may never reference unsynced records).
        assert fired == [(3, 3), (6, 6)]

    def test_checkpoint_now_fires_unconditionally(self, tmp_path):
        fired = []
        writer = JournalWriter(
            str(tmp_path), sync_every=16, checkpoint_every=0,
            checkpoint_cb=fired.append,
        )
        _write_updates(writer, 2)
        writer.checkpoint_now()
        writer.close()
        assert fired == [2]

    def test_rebalance_record_carries_position(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        _write_updates(writer, 2)
        writer.record_rebalance("hot", [10, 20])
        writer.sync()
        writer.close()
        records, _ = read_journal(str(tmp_path))
        assert records[-1] == {"t": "r", "pos": 2, "pred": "hot", "cuts": [10, 20]}

    def test_link_state_rides_only_on_change(self, tmp_path):
        class FakeStats:
            fetches = 0
            attempts = 0

        class FakeLink:
            stats = FakeStats()

            def state_dict(self):
                return {"fetches": self.stats.fetches}

        link = FakeLink()
        writer = JournalWriter(str(tmp_path), sync_every=1, link=link)
        _write_updates(writer, 1)
        link.stats.fetches = 1
        _write_updates(writer, 1, start=2)
        _write_updates(writer, 1, start=3)
        writer.close()
        records, _ = read_journal(str(tmp_path))
        assert "link" not in records[0]  # probe unchanged since init
        assert records[1]["link"] == {"fetches": 1}
        assert "link" not in records[2]  # unchanged again

    def test_validates_cadence_arguments(self, tmp_path):
        with pytest.raises(ReproError):
            JournalWriter(str(tmp_path), sync_every=0)
        with pytest.raises(ReproError):
            JournalWriter(str(tmp_path), checkpoint_every=-1)

    def test_close_is_idempotent(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=4)
        _write_updates(writer, 2)
        writer.close()
        writer.close()  # second close must not raise or double-sync
        records, dropped = read_journal(str(tmp_path))
        assert [r["pos"] for r in records] == [1, 2]
        assert dropped == 0

    def test_close_after_abandon_is_a_noop(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=4)
        _write_updates(writer, 4)  # synced
        _write_updates(writer, 2, start=5)  # buffered
        writer.abandon()
        writer.close()  # must not resurrect the abandoned suffix
        records, _ = read_journal(str(tmp_path))
        assert [r["pos"] for r in records] == [1, 2, 3, 4]

    def test_abandon_after_close_is_a_noop(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=4)
        _write_updates(writer, 2)
        writer.close()  # syncs the buffer
        writer.abandon()
        writer.abandon()  # and idempotent with itself
        records, _ = read_journal(str(tmp_path))
        assert [r["pos"] for r in records] == [1, 2]


class TestOrderedJournalCommitter:
    def _effect(self, index):
        return (
            "u",
            Insertion("p", (index,)),
            [CheckReport("c", Outcome.SATISFIED, CheckLevel.WITH_UPDATE, False)],
            True,
            UndoToken(insertions={"p": {(index,)}}, deletions={}),
            None,
        )

    def test_out_of_order_staging_commits_the_contiguous_prefix(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        committer = OrderedJournalCommitter(writer)
        committer.stage(2, self._effect(2))
        committer.stage(4, self._effect(4))
        assert committer.prefix_pos == 0  # position 1 still missing
        committer.stage(1, self._effect(1))
        assert committer.prefix_pos == 2  # 1..2 flushed, 4 still staged
        committer.stage(3, self._effect(3))
        assert committer.prefix_pos == 4
        committer.barrier()
        writer.close()
        records, _ = read_journal(str(tmp_path))
        assert [r["pos"] for r in records] == [1, 2, 3, 4]
        assert [r["update"]["values"] for r in records] == [[1], [2], [3], [4]]

    def test_barrier_with_a_hole_is_an_error(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        committer = OrderedJournalCommitter(writer)
        committer.stage(2, self._effect(2))
        with pytest.raises(ReproError, match="position 1 missing"):
            committer.barrier()

    def test_duplicate_or_already_committed_position_is_an_error(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        committer = OrderedJournalCommitter(writer)
        committer.stage(1, self._effect(1))
        with pytest.raises(ReproError, match="duplicate journal record"):
            committer.stage(1, self._effect(1))
        committer.stage(3, self._effect(3))
        with pytest.raises(ReproError, match="duplicate journal record"):
            committer.stage(3, self._effect(3))

    def test_reserve_next_requires_an_empty_stage(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        committer = OrderedJournalCommitter(writer)
        assert committer.reserve_next() == 1
        committer.stage(2, self._effect(2))
        with pytest.raises(ReproError, match="reserve"):
            committer.reserve_next()

    def test_resumes_past_the_writer_position(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        writer.pos = 7  # as --resume sets it
        committer = OrderedJournalCommitter(writer)
        assert committer.prefix_pos == 7
        assert committer.reserve_next() == 8

    def test_commits_drive_sync_cadence_and_defer_checkpoints(self, tmp_path):
        fired = []
        writer = JournalWriter(
            str(tmp_path), sync_every=1, checkpoint_every=2,
            checkpoint_cb=fired.append,
        )
        committer = OrderedJournalCommitter(writer)
        committer.stage(2, self._effect(2))
        committer.stage(1, self._effect(1))
        committer.stage(3, self._effect(3))
        # Records synced per commit, but no manifest until the barrier —
        # mid-segment state may not match the committed prefix.
        records, _ = read_journal(str(tmp_path))
        assert [r["pos"] for r in records] == [1, 2, 3]
        assert fired == []
        committer.barrier()
        assert fired == [3]  # one manifest per barrier, however many due
        writer.close()
