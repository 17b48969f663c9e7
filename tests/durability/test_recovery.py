"""Recovery: checkpoint + tail replay, and the kill-anywhere property.

Two layers:

* unit tests over synthetic journals — tail-only replay, gap detection,
  delta folding, pending re-queue, last-wins cuts;
* end-to-end kill-anywhere equivalence through the real CLI: crash a
  journalled ``check-stream`` at an arbitrary update (Hypothesis picks
  the point, the fsync cadence, and the fault regime), ``--resume``, and
  require the resumed run's verdict lines, exit code, and final
  checkpointed facts to be byte-identical to an uninterrupted run.  A
  soft in-process crash models the kill for speed; one real ``SIGKILL``
  subprocess test keeps the honest variant covered.
"""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import cli
from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.datalog.database import UndoToken
from repro.distributed.workload import bursty_workload
from repro.durability.checkpoint import latest_checkpoint, write_checkpoint
from repro.durability.journal import JournalWriter
from repro.durability.recovery import load_meta, recover, write_meta
from repro.errors import ReproError
from repro.updates.update import Deletion, Insertion

# ---------------------------------------------------------------------------
# unit layer: synthetic journals
# ---------------------------------------------------------------------------


def base_checkpoint(pos, facts, **extra):
    payload = {
        "pos": pos,
        "facts": facts,
        "pending": [],
        "seq": 0,
        "stats": {"updates": pos},
        "session_stats": [],
        "cuts": {},
        "link": None,
    }
    payload.update(extra)
    return payload


def record(writer, index, *, applied=True, delta=None, entry=None):
    writer.record_update(
        Insertion("p", (index,)),
        [CheckReport("c", Outcome.SATISFIED, CheckLevel.WITH_UPDATE, False)],
        applied=applied,
        token=delta,
        entry=entry,
    )
    writer.safe_point()


class TestRecoverUnits:
    def test_no_checkpoint_is_an_error(self, tmp_path):
        with pytest.raises(ReproError, match="no valid checkpoint"):
            recover(str(tmp_path))

    def test_tail_only_replay(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        for index in range(1, 6):
            record(
                writer, index,
                delta=UndoToken(insertions={"p": {(index,)}}, deletions={}),
            )
        writer.close()
        # Checkpoint covers the first three records.
        write_checkpoint(
            str(tmp_path),
            base_checkpoint(3, {"p": [[1], [2], [3]]}),
        )
        state = recover(str(tmp_path))
        assert state.pos == 5
        assert state.replayed == 2  # only records 4 and 5
        assert state.facts["p"] == {(1,), (2,), (3,), (4,), (5,)}
        # stats folded from checkpoint + tail verdicts
        assert state.stats.updates == 5

    def test_deletion_delta_and_rejected_update(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        record(
            writer, 1,
            delta=UndoToken(insertions={}, deletions={"p": {(9,)}}),
        )
        record(writer, 2, applied=False)  # rejected: no delta
        writer.close()
        write_checkpoint(str(tmp_path), base_checkpoint(0, {"p": [[9], [8]]}))
        state = recover(str(tmp_path))
        assert state.facts["p"] == {(8,)}

    def test_journal_gap_is_an_error(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        record(writer, 1)
        writer.pos = 5  # simulate a missing span
        record(writer, 6)
        writer.close()
        write_checkpoint(str(tmp_path), base_checkpoint(1, {}))
        with pytest.raises(ReproError, match="journal gap"):
            recover(str(tmp_path))

    def test_pending_requeued_and_seq_past_all(self, tmp_path):
        from repro.core.session import PendingVerdict

        entry = PendingVerdict(
            seq=41,
            update=Insertion("p", (7,)),
            unresolved=("c",),
            reports={
                "c": CheckReport(
                    "c", Outcome.DEFERRED, CheckLevel.FULL_DATABASE, True
                )
            },
            applied=True,
            token=UndoToken(insertions={"p": {(7,)}}, deletions={}),
        )
        writer = JournalWriter(str(tmp_path), sync_every=1)
        record(
            writer, 1, entry=entry,
            delta=UndoToken(insertions={"p": {(7,)}}, deletions={}),
        )
        writer.close()
        write_checkpoint(str(tmp_path), base_checkpoint(0, {}))
        state = recover(str(tmp_path))
        assert [d["seq"] for d in state.pending] == [41]
        assert state.seq == 41
        # the optimistic fact came from the delta, not a re-application
        assert state.facts["p"] == {(7,)}

    def test_rebalance_cuts_last_wins(self, tmp_path):
        writer = JournalWriter(str(tmp_path), sync_every=1)
        record(writer, 1)
        writer.record_rebalance("hot", [10])
        record(writer, 2)
        writer.record_rebalance("hot", [25])
        writer.close()
        write_checkpoint(
            str(tmp_path), base_checkpoint(0, {}, cuts={"hot": [50]})
        )
        state = recover(str(tmp_path))
        assert state.cuts == {"hot": [25]}

    def test_meta_round_trip(self, tmp_path):
        config = {"constraints": [["c", "panic :- p(X) & q(X)"]], "shards": 2}
        write_meta(str(tmp_path), config)
        assert load_meta(str(tmp_path)) == config
        write_checkpoint(str(tmp_path), base_checkpoint(0, {}))
        assert recover(str(tmp_path)).meta == config


# ---------------------------------------------------------------------------
# end-to-end layer: kill anywhere, resume, compare
# ---------------------------------------------------------------------------


def run_cli(argv):
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    return code, captured.getvalue()


def verdict_lines(text):
    return [
        line for line in text.splitlines()
        if line[:1] in "+-~" or line.startswith("    ")
    ]


def write_workload_files(directory, num_updates, seed):
    workload = bursty_workload(
        num_updates=num_updates,
        key_space=20,
        initial_readings=8,
        burst_length=(3, 8),
        hot_width=5,
        seed=seed,
    )
    cons = os.path.join(directory, "constraints.txt")
    db = os.path.join(directory, "db.json")
    upd = os.path.join(directory, "updates.txt")
    with open(cons, "w") as fh:
        for constraint in workload.constraints:
            fh.write(f"%% {constraint.name}\n{constraint.program}\n")
    local = workload.sites.local.unmetered()
    remote = next(iter(workload.sites.remotes.values())).unmetered()
    tables = {
        p: [list(f) for f in sorted(local.facts(p))] for p in local.predicates()
    }
    for p in remote.predicates():
        tables[p] = [list(f) for f in sorted(remote.facts(p))]
    with open(db, "w") as fh:
        json.dump(tables, fh)
    with open(upd, "w") as fh:
        for update in workload.updates:
            sign = "+" if isinstance(update, Insertion) else "-"
            values = ", ".join(str(v) for v in update.values)
            fh.write(f"{sign}{update.predicate}({values})\n")
    return [
        "check-stream", cons, "--db", db, "--updates", upd, "--local", "meter"
    ]


def final_facts(journal_dir):
    """The end-of-stream manifest's fact tables."""
    from repro.durability.checkpoint import latest_checkpoint

    manifest = latest_checkpoint(journal_dir)
    assert manifest is not None
    return manifest["facts"]


NUM_UPDATES = 24


@settings(max_examples=12, deadline=None)
@given(
    crash_at=st.integers(min_value=1, max_value=NUM_UPDATES),
    sync_every=st.integers(min_value=1, max_value=7),
    checkpoint_every=st.integers(min_value=1, max_value=9),
    fault_rate=st.sampled_from([0.0, 0.7]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_kill_anywhere_resume_equivalence(
    crash_at, sync_every, checkpoint_every, fault_rate, seed
):
    """Crash at ANY update boundary, under ANY fsync/checkpoint cadence,
    with or without remote faults: resume must reproduce the
    uninterrupted run's verdicts, exit code, and final facts."""
    with tempfile.TemporaryDirectory() as workdir:
        base = write_workload_files(workdir, NUM_UPDATES, seed)
        if fault_rate:
            base += [
                "--fault-rate", str(fault_rate), "--fault-seed", "5",
                "--retries", "2",
            ]
        cadence = [
            "--sync-every", str(sync_every),
            "--checkpoint-every", str(checkpoint_every),
        ]
        clean_dir = os.path.join(workdir, "clean")
        crash_dir = os.path.join(workdir, "crash")

        clean_code, clean_out = run_cli(
            base + ["--journal", clean_dir] + cadence
        )

        crash_code, _ = run_cli(
            base + ["--journal", crash_dir] + cadence
            + ["--crash-at", f"update:{crash_at}", "--crash-mode", "soft"]
        )
        assert crash_code == 3  # the injected crash surfaced as an error

        resume_code, resume_out = run_cli(
            base + ["--journal", crash_dir] + cadence + ["--resume"]
        )
        assert verdict_lines(resume_out) == verdict_lines(clean_out)
        assert resume_code == clean_code
        assert final_facts(crash_dir) == final_facts(clean_dir)


#: executor/overlap configurations the journal must survive a kill under.
#: Fault-free on purpose: concurrent shard slices draw from the shared
#: link RNG in settle order, so a faulty parallel run is not
#: deterministic run-to-run — the serial property above keeps the fault
#: regime covered.
EXECUTOR_MODES = {
    "serial-overlap": ["--overlap-remote"],
    "parallel": ["--shards", "2", "--parallel", "2"],
    "parallel-overlap": [
        "--shards", "2", "--parallel", "2", "--overlap-remote",
    ],
    "process": ["--shards", "2", "--executor", "process"],
}


@pytest.mark.parametrize("mode", sorted(EXECUTOR_MODES))
@settings(max_examples=5, deadline=None)
@given(
    crash_at=st.integers(min_value=1, max_value=NUM_UPDATES),
    sync_every=st.integers(min_value=1, max_value=7),
    checkpoint_every=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2),
)
def test_kill_anywhere_resume_equivalence_across_executors(
    mode, crash_at, sync_every, checkpoint_every, seed
):
    """The kill-anywhere property across the parallel, process-pool, and
    overlapped configurations: effects journal at settle time but commit
    in arrival order, so a crash at ANY committed record still loses a
    consistent suffix and ``--resume`` reproduces the uninterrupted
    run's verdicts, exit code, and final facts byte-for-byte."""
    with tempfile.TemporaryDirectory() as workdir:
        base = write_workload_files(workdir, NUM_UPDATES, seed)
        base += EXECUTOR_MODES[mode]
        cadence = [
            "--sync-every", str(sync_every),
            "--checkpoint-every", str(checkpoint_every),
        ]
        clean_dir = os.path.join(workdir, "clean")
        crash_dir = os.path.join(workdir, "crash")

        clean_code, clean_out = run_cli(
            base + ["--journal", clean_dir] + cadence
        )

        crash_code, _ = run_cli(
            base + ["--journal", crash_dir] + cadence
            + ["--crash-at", f"update:{crash_at}", "--crash-mode", "soft"]
        )
        assert crash_code == 3

        resume_code, resume_out = run_cli(
            base + ["--journal", crash_dir] + cadence + ["--resume"]
        )
        assert verdict_lines(resume_out) == verdict_lines(clean_out)
        assert resume_code == clean_code
        assert final_facts(crash_dir) == final_facts(clean_dir)


@pytest.mark.parametrize(
    "crash_spec",
    ["segment-dispatch:2", "barrier-fold:2", "fence:1"],
)
def test_parallel_crash_points_resume_clean(tmp_path, crash_spec):
    """Soft crashes at the parallel pipeline's own boundaries (segment
    fan-out, barrier fold, fence) leave a resumable journal too — the
    committed prefix never depends on where inside the segment machinery
    the run died."""
    base = write_workload_files(str(tmp_path), NUM_UPDATES, seed=2)
    base += ["--shards", "2", "--parallel", "2"]
    cadence = ["--sync-every", "2", "--checkpoint-every", "4"]
    clean_dir = str(tmp_path / "clean")
    crash_dir = str(tmp_path / "crash")

    clean_code, clean_out = run_cli(base + ["--journal", clean_dir] + cadence)
    crash_code, _ = run_cli(
        base + ["--journal", crash_dir] + cadence
        + ["--crash-at", crash_spec, "--crash-mode", "soft"]
    )
    if crash_code == 3:
        resume_code, resume_out = run_cli(
            base + ["--journal", crash_dir] + cadence + ["--resume"]
        )
        assert verdict_lines(resume_out) == verdict_lines(clean_out)
        assert resume_code == clean_code
        assert final_facts(crash_dir) == final_facts(clean_dir)
    else:
        # The workload never visited the point (e.g. it has no fence);
        # the run must then match the clean one outright.
        assert crash_code == clean_code


def test_real_sigkill_resume_equivalence(tmp_path):
    """One honest kill -9: the hard variant of the property above."""
    base = write_workload_files(str(tmp_path), NUM_UPDATES, seed=1)
    journal = str(tmp_path / "journal")
    cadence = ["--sync-every", "3", "--checkpoint-every", "5"]

    clean_code, clean_out = run_cli(base)

    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "src",
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro"]
        + base
        + ["--journal", journal]
        + cadence
        + ["--crash-at", "update:13"],
        env=env,
        capture_output=True,
    )
    assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)

    resume_code, resume_out = run_cli(
        base + ["--journal", journal] + cadence + ["--resume"]
    )
    assert verdict_lines(resume_out) == verdict_lines(clean_out)
    assert resume_code == clean_code


def test_real_sigkill_resume_equivalence_process_executor(tmp_path):
    """kill -9 of the *parent* of a process-pool run: the parent owns
    the journal, so the workers' un-returned effects die with it and the
    synced prefix still replays to the uninterrupted run's verdicts."""
    flags = ["--shards", "2", "--executor", "process"]
    base = write_workload_files(str(tmp_path), NUM_UPDATES, seed=1) + flags
    journal = str(tmp_path / "journal")
    cadence = ["--sync-every", "3", "--checkpoint-every", "5"]

    clean_code, clean_out = run_cli(base)

    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "src",
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro"]
        + base
        + ["--journal", journal]
        + cadence
        + ["--crash-at", "update:13"],
        env=env,
        # The SIGKILL'd parent's worker processes inherit its
        # stdout/stderr; route them to DEVNULL so there is no pipe to
        # wait on (the crash run's output is unused anyway).
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    assert proc.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL)

    resume_code, resume_out = run_cli(
        base + ["--journal", journal] + cadence + ["--resume"]
    )
    assert verdict_lines(resume_out) == verdict_lines(clean_out)
    assert resume_code == clean_code


def test_resume_refuses_a_different_configuration(tmp_path):
    base = write_workload_files(str(tmp_path), 6, seed=0)
    journal = str(tmp_path / "journal")
    code, _ = run_cli(base + ["--journal", journal])
    assert code == 0
    code, _ = run_cli(
        base + ["--journal", journal, "--resume", "--pessimistic"]
    )
    assert code == 3  # meta.json fingerprint mismatch
    # A journal from a build that recorded a storage backend carries a
    # fingerprint this build never writes, so it does not resume either.
    meta = load_meta(journal)
    meta["backend"] = "sqlite"
    write_meta(journal, meta)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(base + ["--journal", journal, "--resume"])
    assert code == 3
    assert "--resume configuration differs" in err.getvalue()
    # A journal from a build with batched maintenance carries a "batch"
    # fingerprint field and manifest counters this build does not know:
    # the fingerprint is compared before any manifest is read.
    del meta["backend"]
    meta["batch"] = 0
    write_meta(journal, meta)
    manifest = latest_checkpoint(journal)
    manifest["stats"]["batches_flushed"] = 0
    write_checkpoint(journal, manifest)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(base + ["--journal", journal, "--resume"])
    assert code == 3
    assert err.getvalue().startswith("error: ")
    assert "--resume configuration differs" in err.getvalue()
    assert "Traceback" not in err.getvalue()

def test_fresh_journal_refuses_a_populated_directory(tmp_path):
    base = write_workload_files(str(tmp_path), 6, seed=0)
    journal = str(tmp_path / "journal")
    code, _ = run_cli(base + ["--journal", journal])
    assert code == 0
    code, _ = run_cli(base + ["--journal", journal])
    assert code == 3  # already holds a run; needs --resume
