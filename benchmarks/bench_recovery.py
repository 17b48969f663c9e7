"""M9/M10 — durable journal overhead and kill-anywhere recovery.

Three experiments over the bursty metering workload
(:func:`repro.distributed.workload.bursty_workload` — hot-key bursts
threaded with violation clusters), both driven through the real CLI so
the measured path is exactly what ``check-stream --journal`` ships:

**Journal overhead.** The same 500-update stream (120 under
``--quick``) runs under a simulated per-update storage latency in three
alternating pairs of passes — one bare, one with ``--journal``
(CRC-framed effects records, batched fsync every 16 updates, a
checkpoint manifest every 64, a fresh directory per pass), the side
that runs first alternating from pair to pair.  Every pass's verdict
lines must be byte-identical, and the fastest journalled pass may cost
at most 15% more wall clock than the fastest bare pass: each side's
minimum is its least-disturbed pass, so one host-noise spike cannot
decide the comparison.

**Parallel journal overhead (M10).** The same comparison with
``--shards 4 --parallel 4``, so the seq-ordered commit path is in
play: four shard workers stage effects out of arrival order and the
parent's reorder buffer flushes only the contiguous prefix.  Same 15%
ceiling, same byte-identical-verdicts requirement.

**Kill-anywhere recovery.** A subprocess runs the journalled stream
with ``--crash-at update:K`` (a real ``SIGKILL``, exit 137) two-thirds
of the way in.  Recovery must (a) replay only the journal tail past the
newest checkpoint manifest — at most ``checkpoint_every`` records, not
the whole journal — and (b) resume to verdict lines byte-identical to
the uninterrupted run.  The recovery wall clock is reported.

Runs as a pytest-benchmark file (``pytest benchmarks/bench_recovery.py``)
or as a script::

    python benchmarks/bench_recovery.py [--quick] [--json PATH]

The script writes a ``BENCH_recovery.json`` artifact with the headline
numbers for CI archiving.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

from repro import cli
from repro.core.session import CheckSession
from repro.distributed.workload import bursty_workload
from repro.durability.recovery import recover
from repro.updates.update import Deletion, Insertion

try:
    from _tables import print_table
except ImportError:  # running as a script from the repo root
    from benchmarks._tables import print_table

#: simulated per-update storage latency (seconds) — the baseline cost a
#: real deployment pays per update, against which the journal's extra
#: write+fsync work is measured
STORAGE_LATENCY = 0.002

SYNC_EVERY = 16
CHECKPOINT_EVERY = 64
OVERHEAD_CEILING_PCT = 15.0


@contextlib.contextmanager
def storage_latency(latency: float):
    """Charge every ``CheckSession.process`` call a fixed storage wait."""
    original = CheckSession.process

    def slowed(self, update, *args, **kwargs):
        time.sleep(latency)
        return original(self, update, *args, **kwargs)

    CheckSession.process = slowed
    try:
        yield
    finally:
        CheckSession.process = original


def write_workload(directory: str, num_updates: int, seed: int = 11):
    """Materialize a bursty workload as CLI input files."""
    workload = bursty_workload(num_updates=num_updates, seed=seed)
    cons_path = os.path.join(directory, "constraints.txt")
    db_path = os.path.join(directory, "db.json")
    updates_path = os.path.join(directory, "updates.txt")
    with open(cons_path, "w") as handle:
        for constraint in workload.constraints:
            handle.write(f"%% {constraint.name}\n{constraint.program}\n")
    local = workload.sites.local.unmetered()
    tables = {
        predicate: sorted(local.facts(predicate))
        for predicate in local.predicates()
    }
    for name, site in workload.sites.remotes.items():
        remote_db = site.unmetered()
        for predicate in remote_db.predicates():
            tables[predicate] = sorted(remote_db.facts(predicate))
    with open(db_path, "w") as handle:
        json.dump({p: [list(f) for f in facts] for p, facts in tables.items()},
                  handle)
    with open(updates_path, "w") as handle:
        for update in workload.updates:
            if isinstance(update, Insertion):
                sign = "+"
            elif isinstance(update, Deletion):
                sign = "-"
            else:
                raise TypeError(f"unexpected update {update!r}")
            values = ", ".join(str(v) for v in update.values)
            handle.write(f"{sign}{update.predicate}({values})\n")
    return cons_path, db_path, updates_path, sorted(workload.local_predicates)


def stream_args(cons_path, db_path, updates_path, local_predicates):
    return [
        "check-stream", cons_path, "--db", db_path,
        "--updates", updates_path, "--local", *local_predicates,
    ]


def run_cli(argv) -> tuple[int, str]:
    """Run the CLI in-process, capturing stdout."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(list(argv))
    return code, captured.getvalue()


def verdict_lines(text: str) -> list[str]:
    """The per-update verdict lines (stats/degradation sections dropped)."""
    return [
        line for line in text.splitlines()
        if line[:1] in "+-~" or line.startswith("    ")
    ]


def run_overhead_experiment(base_args, journal_dir, num_updates, *,
                            label="M9a", extra_flags=()):
    """Bare vs journalled wall clock for one executor configuration.

    ``extra_flags`` select the executor (e.g. ``--shards 4 --parallel
    4`` for M10); both sides get them, so the delta isolates the journal.
    Three alternating pairs of passes are timed and the sides' minima
    compared; returns the headline numbers and the first (bare) pass's
    output, the reference every other pass must match.
    """
    extra_flags = list(extra_flags)
    # Untimed warmup: first-run costs (imports, compiler warm, thread
    # pool spin-up) otherwise land on whichever side runs first and
    # swamp the few-hundred-ms quick configuration.
    run_cli(base_args + extra_flags)
    seconds = {"bare": [], "journal": []}
    reference = None
    with storage_latency(STORAGE_LATENCY):
        for index in range(3):
            order = ("bare", "journal") if index % 2 == 0 else ("journal", "bare")
            for side in order:
                argv = base_args + extra_flags
                if side == "journal":
                    argv = argv + [
                        "--journal", os.path.join(journal_dir, f"pass{index}"),
                        "--sync-every", str(SYNC_EVERY),
                        "--checkpoint-every", str(CHECKPOINT_EVERY),
                    ]
                t0 = time.perf_counter()
                code, out = run_cli(argv)
                seconds[side].append(time.perf_counter() - t0)
                if reference is None:
                    reference = (code, verdict_lines(out), out)
                assert (code, verdict_lines(out)) == reference[:2], (
                    f"pass {index + 1} ({side}): exit code or verdicts "
                    "diverged from the first bare pass"
                )

    bare_seconds = min(seconds["bare"])
    journaled_seconds = min(seconds["journal"])
    overhead_pct = 100.0 * (journaled_seconds - bare_seconds) / bare_seconds
    assert overhead_pct < OVERHEAD_CEILING_PCT, (
        f"journal overhead {overhead_pct:.1f}% exceeds the "
        f"{OVERHEAD_CEILING_PCT:.0f}% ceiling ({bare_seconds:.3f}s bare vs "
        f"{journaled_seconds:.3f}s journalled, fastest of "
        f"{len(seconds['bare'])} passes each)"
    )

    mode = " ".join(extra_flags) if extra_flags else "serial stream"
    passes = {
        side: " / ".join(f"{value:.3f}" for value in values)
        for side, values in seconds.items()
    }
    print_table(
        f"{label} — journal overhead ({num_updates} bursty updates, "
        f"{mode}, fsync every {SYNC_EVERY}, checkpoint every "
        f"{CHECKPOINT_EVERY}, {STORAGE_LATENCY * 1000:.0f}ms storage latency)",
        ["configuration", "fastest wall (s)", "passes (s)", "overhead"],
        [
            ("bare stream", f"{bare_seconds:.3f}", passes["bare"], "--"),
            ("--journal", f"{journaled_seconds:.3f}", passes["journal"],
             f"{overhead_pct:+.1f}%"),
        ],
    )
    return {
        "updates": num_updates,
        "mode": mode,
        "storage_latency_ms": STORAGE_LATENCY * 1000,
        "sync_every": SYNC_EVERY,
        "checkpoint_every": CHECKPOINT_EVERY,
        "verdicts_identical": True,
        "bare_seconds": round(bare_seconds, 4),
        "journaled_seconds": round(journaled_seconds, 4),
        "bare_passes": [round(value, 4) for value in seconds["bare"]],
        "journaled_passes": [round(value, 4) for value in seconds["journal"]],
        "overhead_pct": round(overhead_pct, 2),
    }, reference[2]


def run_recovery_experiment(base_args, journal_dir, num_updates, bare_out):
    # Two-thirds in, nudged off the sync/checkpoint boundaries so the
    # recovery genuinely replays a journal tail (not just a manifest).
    crash_at = max(2, (num_updates * 2) // 3 + 17)
    crash_argv = [
        sys.executable, "-m", "repro",
        *base_args,
        "--journal", journal_dir,
        "--sync-every", str(SYNC_EVERY),
        "--checkpoint-every", str(CHECKPOINT_EVERY),
        "--crash-at", f"update:{crash_at}",
    ]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(crash_argv, env=env, capture_output=True)
    killed_exit = proc.returncode
    assert killed_exit == -9 or killed_exit == 137, (
        f"the chaos point did not SIGKILL the subprocess (exit {killed_exit})"
    )

    t0 = time.perf_counter()
    state = recover(journal_dir)
    recovery_seconds = time.perf_counter() - t0
    assert state.replayed > 0, (
        "the crash landed on a checkpoint boundary — no journal tail was "
        "exercised; move crash_at off the manifest cadence"
    )
    assert state.replayed <= CHECKPOINT_EVERY + SYNC_EVERY, (
        f"recovery replayed {state.replayed} records — more than one "
        f"checkpoint interval ({CHECKPOINT_EVERY}); the manifest cadence "
        "is not bounding the tail"
    )
    assert state.pos <= crash_at, (
        f"recovered position {state.pos} is past the crash point {crash_at}"
    )

    resume_code, resume_out = run_cli(
        base_args + [
            "--journal", journal_dir,
            "--sync-every", str(SYNC_EVERY),
            "--checkpoint-every", str(CHECKPOINT_EVERY),
            "--resume",
        ]
    )
    assert verdict_lines(resume_out) == verdict_lines(bare_out), (
        "resumed verdicts diverged from the uninterrupted run"
    )

    print_table(
        f"M9b — kill-anywhere recovery (SIGKILL at update {crash_at} of "
        f"{num_updates})",
        ["measure", "value"],
        [
            ("killed subprocess exit", str(killed_exit)),
            ("synced position at crash", str(state.pos)),
            ("tail records replayed", str(state.replayed)),
            ("torn lines truncated", str(state.dropped_lines)),
            ("recovery wall (s)", f"{recovery_seconds:.4f}"),
            ("resumed verdicts identical", "yes"),
        ],
    )
    return {
        "crash_at": crash_at,
        "killed_exit": killed_exit,
        "synced_pos": state.pos,
        "replayed_tail": state.replayed,
        "dropped_lines": state.dropped_lines,
        "recovery_seconds": round(recovery_seconds, 4),
        "resume_verdicts_identical": True,
    }


def run_benchmark(quick: bool = False):
    num_updates = 120 if quick else 500
    with tempfile.TemporaryDirectory() as workdir:
        cons, db, updates, local = write_workload(workdir, num_updates)
        base_args = stream_args(cons, db, updates, local)
        overhead, bare_out = run_overhead_experiment(
            base_args, os.path.join(workdir, "journal-overhead"), num_updates
        )
        # M10: the same ceiling with the seq-ordered commit path in
        # play — 4 shards checked by 4 worker threads, effects staged
        # out of order and flushed as a contiguous prefix.
        overhead_parallel, _ = run_overhead_experiment(
            base_args, os.path.join(workdir, "journal-parallel"), num_updates,
            label="M10", extra_flags=["--shards", "4", "--parallel", "4"],
        )
        recovery = run_recovery_experiment(
            base_args, os.path.join(workdir, "journal-crash"), num_updates,
            bare_out,
        )
    return {
        "overhead": overhead,
        "overhead_parallel": overhead_parallel,
        "recovery": recovery,
    }


def test_m9_recovery(benchmark):
    result = run_benchmark(quick=False)
    assert result["overhead"]["overhead_pct"] < OVERHEAD_CEILING_PCT
    assert result["overhead_parallel"]["overhead_pct"] < OVERHEAD_CEILING_PCT
    assert result["recovery"]["replayed_tail"] <= CHECKPOINT_EVERY + SYNC_EVERY
    with tempfile.TemporaryDirectory() as workdir:
        cons, db, updates, local = write_workload(workdir, 120)
        benchmark.pedantic(
            run_cli,
            args=(
                stream_args(cons, db, updates, local)
                + ["--journal", os.path.join(workdir, "journal-bench")],
            ),
            rounds=1,
            iterations=1,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration (same assertions, shorter stream)",
    )
    parser.add_argument(
        "--json", default="BENCH_recovery.json", metavar="PATH",
        help="write the headline numbers to PATH (default BENCH_recovery.json)",
    )
    args = parser.parse_args(argv)
    result = run_benchmark(quick=args.quick)
    with open(args.json, "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
