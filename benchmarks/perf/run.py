"""The ``check-stream`` benchmark.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/perf/run.py --quick

Each run generates the workload's inputs from the seed, then starts the
real ``python -m repro check-stream`` in fresh subprocesses and treats
it as a black box.  One client, closed loop: the whole stream comes
from a file and the program prints one verdict per update in stream
order, so throughput is reported at the workload's stated input size.

``--trace 0`` reports the end-to-end metrics.  After one untimed
warm-up, a cold run on an empty stream (a set-up) and a full pass
alternate until ``--seconds`` have passed.
``setup_s`` is the median set-up, ``updates_per_s`` the update count
over the fastest pass's wall time less the fastest set-up, and
``peak_rss_mb`` the median of the passes' peak resident set sizes.

``--trace 1`` alternates a plain pass with a pass under ``tracer.py``
until ``--seconds`` have passed and reports the per-layer metrics.

Every pass's verdicts are checked against the workload's reference; the
last stdout line is the JSON result, and the exit code is 0 only when
every verdict matched.  ``--quick`` runs every workload at a tiny size
in both modes and checks the result schema.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORK = os.path.join(HERE, ".work")

#: a child that runs longer than this is killed; a killed pass counts
#: as all failed and ends the run
CHILD_TIMEOUT_S = 60.0
STATUS = {"a": "applied", "R": "REJECTED"}

#: stats-table rows of check-stream read into per-layer metrics
LEVEL_ROWS = (
    "resolved at constraints-only",
    "resolved at constraints+update",
    "resolved at constraints+update+local-data",
    "resolved at full-database",
)
#: layers reported as call count plus share of stream time
TIMED_LAYERS = (
    "maintenance.apply_delta",
    "maintenance.revert",
    "maintenance.materialize",
    "maintenance.fires",
    "storage.apply",
    "storage.undo",
    "storage.copy",
    "remote.fetch",
    "level3.holds",
    "journal.record",
    "journal.sync",
    "journal.checkpoint",
)
#: local tests, additionally reported as the share that returned True
TEST_LAYERS = ("level1", "level2.algebraic", "level2.containment", "level2.interval")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    wall: float
    rss_mb: float
    failed: int
    killed: bool
    stats: dict[str, str] = field(default_factory=dict)


class Runner:
    """Runs ``check-stream`` on one workload's inputs in a work directory."""

    def __init__(self, inputs: workloads.Inputs, workdir: str) -> None:
        self.inputs = inputs
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        inputs.write(workdir)
        self.want = [
            f"{update.echo()}: {STATUS[status]}"
            for update, status in zip(inputs.updates, inputs.expected)
        ]
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            PYTHONHASHSEED="0",
        )
        self.journal = os.path.join(workdir, "journal")

    def _argv(self, updates_file: str, spans: str | None) -> list[str]:
        cli = [
            "check-stream", "constraints.dl", "--db", "db.json",
            "--updates", updates_file, *self.inputs.flags,
        ]
        if self.inputs.journal:
            # --journal refuses a directory that already holds a run.
            shutil.rmtree(self.journal, ignore_errors=True)
            cli += ["--journal", "journal"]
        if spans is not None:
            return [sys.executable, os.path.join(HERE, "tracer.py"), spans, *cli]
        return [sys.executable, "-m", "repro", *cli]

    def _run(self, argv: list[str]) -> tuple[float, float, int]:
        """Wall seconds, peak RSS (MB) and exit code of one child."""
        with open(os.path.join(self.workdir, "stdout.txt"), "wb") as out, open(
            os.path.join(self.workdir, "stderr.txt"), "wb"
        ) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.workdir, stdout=out, stderr=err, env=self.env
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024, proc.returncode

    def setup(self) -> float:
        """Wall seconds of one run on the empty stream."""
        wall, _, code = self._run(self._argv("empty.txt", None))
        if code != 0:
            with open(os.path.join(self.workdir, "stderr.txt")) as handle:
                detail = handle.read().strip()[-2000:]
            raise BenchError(f"check-stream on an empty stream exited {code}: {detail}")
        return wall

    def stream(self, spans: str | None = None) -> Pass:
        """One full pass; verdict lines are checked against the reference."""
        wall, rss_mb, code = self._run(self._argv("updates.txt", spans))
        with open(os.path.join(self.workdir, "stdout.txt")) as handle:
            lines = handle.read().splitlines()
        n = len(self.want)
        if code in (0, 1):
            failed = sum(
                1
                for i, want in enumerate(self.want)
                if i >= len(lines) or lines[i] != want
            )
        else:
            failed = n
        stats = {}
        for line in lines[n:]:
            parts = re.split(r"\s{2,}", line.strip(), maxsplit=1)
            if len(parts) == 2:
                stats[parts[0]] = parts[1]
        return Pass(wall, rss_mb, failed, code < 0, stats)

    def journal_bytes(self) -> int:
        total = 0
        for dirpath, _dirs, files in os.walk(self.journal):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
        return total


# -- statistics ---------------------------------------------------------------


def summary(values: list[float], unit: str, value: float | None = None) -> dict:
    """*value* (the median by default), quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    if value is None:
        value = statistics.median(values)
    return {"value": value, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def tail(samples: list[float]) -> float:
    """The highest of p99/p95/p90 with at least ten samples beyond it;
    the maximum when the sample is too small for any of them."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99, 95, 90):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1]
    return ordered[-1]


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = -math.inf
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


# -- per-layer metrics from one traced pass ------------------------------------


def layer_metrics(
    spans_path: str, traced: Pass, inputs: workloads.Inputs, journal_bytes: int
) -> tuple[dict[str, float], list[float], list[str]]:
    """Per-layer metrics of one traced pass, the per-update latencies (µs)
    and the hook targets the tracer could not find."""
    with open(spans_path) as handle:
        meta = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle]
    n = len(inputs.updates)

    def dur(span) -> int:
        return span["end_ns"] - span["start_ns"]

    def outermost(span) -> bool:
        parent = span["parent"]
        while parent is not None:
            if spans[parent]["name"] == span["name"]:
                return False
            parent = spans[parent]["parent"]
        return True

    stream = [s for s in spans if s["name"] == "stream"]
    lo = min((s["start_ns"] for s in stream), default=0)
    hi = max((s["end_ns"] for s in stream), default=0)
    stream_ns = max(hi - lo, 1)
    children_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            children_ns[span["parent"]] += dur(span)
    groups: dict[str, list] = defaultdict(list)
    for span in spans:
        if lo <= span["start_ns"] and span["end_ns"] <= hi and outermost(span):
            # A fetch counts once, where an update asked for it; fan-out
            # legs on pool threads are inside it.
            if span["name"] == "remote.fetch" and span["update"] is None:
                continue
            groups[span["name"]].append(span)

    process = groups["session.process"]
    latencies = [dur(s) / 1e3 for s in process]
    metrics: dict[str, float] = {
        "session.process.count": len(process),
        "session.process.self_ms": sum(dur(s) - children_ns[s["id"]] for s in process) / 1e6,
        "compiler.build_ms": sum(dur(s) for s in spans if s["name"] == "compiler.build") / 1e6,
        "cli.load_ms": sum(dur(s) for s in spans if s["name"] == "cli.load") / 1e6,
    }
    for name in TEST_LAYERS + TIMED_LAYERS:
        group = groups[name]
        metrics[f"{name}.calls"] = len(group)
        metrics[f"{name}.share"] = sum(dur(s) for s in group) / stream_ns
        if name in TEST_LAYERS:
            metrics[f"{name}.settled_frac"] = (
                sum(s["settled"] for s in group) / len(group) if group else 0.0
            )

    def stat(label: str) -> float:
        try:
            return float(traced.stats[label])
        except (KeyError, ValueError):
            print(f"warning: no {label!r} row in the stats table", file=sys.stderr)
            return 0.0

    metrics["escalation_frac"] = stat("remote round trips") / n
    metrics["sharded.fences"] = int(stat("fences"))
    metrics["sharded.segments"] = int(stat("parallel segments"))
    metrics["sharded.worker_busy_frac"] = (
        sum(dur(s) for s in groups["sharded.slice"]) / (inputs.workers * stream_ns)
        if inputs.workers
        else 0.0
    )
    metrics["journal.bytes_per_update"] = journal_bytes / n
    for level, label in enumerate(LEVEL_ROWS):
        metrics[f"resolved.level{level}"] = int(stat(label))
    metrics["trace.coverage"] = (
        covered_ns([(s["start_ns"], s["end_ns"]) for s in process]) / stream_ns
    )
    metrics["trace.missing_hooks"] = len(meta["missing"])
    return metrics, latencies, meta["missing"]


# -- the two modes ------------------------------------------------------------


@dataclass
class Result:
    metrics: dict[str, dict]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def end_to_end(runner: Runner, units: dict[str, str], seconds: float) -> Result:
    start = time.perf_counter()
    runner.setup()  # untimed: byte-compiles the sources, warms the page cache
    setups: list[float] = []
    passes: list[Pass] = []
    # Set-ups interleave with the passes, so both sample the same spells
    # of host load.
    while not passes or time.perf_counter() - start < seconds:
        setups.append(runner.setup())
        passes.append(runner.stream())
        if passes[-1].killed:
            break
    n = len(runner.want)
    # Co-tenants on the host only ever slow a pass down, by 1.1-2x in
    # spells lasting seconds, so the fastest pass less the fastest
    # set-up is the steadiest estimate of the program's own cost.
    fastest_setup = min(setups)
    throughput = [n / max(p.wall - fastest_setup, 1e-9) for p in passes]
    metrics = {
        "updates_per_s": summary(throughput, units["updates_per_s"], max(throughput)),
        "setup_s": summary(setups, units["setup_s"]),
        "peak_rss_mb": summary([p.rss_mb for p in passes], units["peak_rss_mb"]),
    }
    return Result(metrics, n * len(passes), sum(p.failed for p in passes))


def per_layer(runner: Runner, units: dict[str, str], seconds: float) -> Result:
    start = time.perf_counter()
    samples: dict[str, list[float]] = defaultdict(list)
    latencies: list[float] = []
    attempted = failed = 0
    missing: set[str] = set()
    spans = os.path.join(runner.workdir, "spans.jsonl")
    while not samples or time.perf_counter() - start < seconds:
        plain = runner.stream()
        traced = runner.stream(spans=spans)
        attempted += 2 * len(runner.want)
        failed += plain.failed + traced.failed
        if plain.killed or traced.killed:
            break
        metrics, pass_latencies, pass_missing = layer_metrics(
            spans, traced, runner.inputs, runner.journal_bytes()
        )
        metrics["trace.overhead_frac"] = (traced.wall - plain.wall) / plain.wall
        for name, value in metrics.items():
            samples[name].append(value)
        latencies.extend(pass_latencies)
        missing.update(pass_missing)
    latency_metrics = {"session.process.p50_us", "session.process.tail_us"}
    if samples and set(samples) | latency_metrics != set(units):
        raise BenchError(
            "per-layer metrics differ from BENCHMARK.json: "
            f"{sorted((set(samples) | latency_metrics) ^ set(units))}"
        )
    result = {}
    for name, unit in units.items():
        if name == "session.process.p50_us":
            values = [statistics.median(latencies)] if latencies else [0.0]
        elif name == "session.process.tail_us":
            values = [tail(latencies)] if latencies else [0.0]
        else:
            values = samples[name] or [0.0]
        # Counts repeat exactly from pass to pass on the serial workloads.
        result[name] = summary(values, unit, values[0] if unit == "count" else None)
    notes = [f"missing hook: {target}" for target in sorted(missing)]
    notes.append(f"per-update latency samples: {len(latencies)}")
    return Result(result, max(attempted, 1), failed, notes)


def run_workload(
    bench: dict,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
) -> Result:
    inputs = workloads.WORKLOADS[name](seed, quick=quick)
    workdir = os.path.join(WORK, f"quick-{name}" if quick else name)
    runner = Runner(inputs, workdir)
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        return per_layer(runner, units, seconds)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return end_to_end(runner, units, seconds)


def result_line(result: Result) -> dict:
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result.metrics.items()
        },
    }


def print_table(result: Result) -> None:
    width = max(len(name) for name in result.metrics)
    print(f"{'metric':<{width}}  {'value':>14}  {'q1':>14}  {'q3':>14}  {'n':>4}  unit")
    for name, m in result.metrics.items():
        print(
            f"{name:<{width}}  {m['value']:>14.6g}  {m['q1']:>14.6g}  "
            f"{m['q3']:>14.6g}  {m['n']:>4}  {m['unit']}"
        )
    for note in result.notes:
        print(note)
    print(f"verdicts checked: {result.attempted}, wrong or missing: {result.failed}")


def schema_problems(line: dict, bench: dict, trace: bool) -> list[str]:
    """How a result line breaks the output contract (empty when it holds)."""
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(line.get("failed"), int):
        problems.append("failed must be a whole number")
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = line.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: {got}")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got['value']!r}")
    return problems


def quick(bench: dict) -> int:
    start = time.perf_counter()
    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(
                bench, name, workloads.DEFAULT_SEED, 0, trace, quick=True
            )
            problems = schema_problems(
                json.loads(json.dumps(result_line(result))), bench, trace
            )
            if not result.correct:
                problems.append(f"{result.failed} wrong or missing verdicts")
            bad += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{name:<24} trace={int(trace)}  {status}")
    print(f"quick check finished in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="check-stream benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, help="measuring time (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", metavar="FILE",
        help="also append the run's medians and quartiles to FILE (for compare.py)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny sizes, every workload, both modes: check the result schema",
    )
    args = parser.parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
            raise BenchError(f"no program sources under {os.path.join(ROOT, 'src')}")
        try:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
                bench = json.load(handle)
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read BENCHMARK.json: {exc}")
        drift = workloads.drift()
        if drift:
            raise BenchError("workload inputs drifted: " + "; ".join(drift))
        if args.quick:
            return quick(bench)
        if args.workload is None:
            parser.error("--workload is required")
        seconds = bench["run_seconds"] if args.seconds is None else args.seconds
        result = run_workload(bench, args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_table(result)
    if args.record:
        with open(args.record, "a") as handle:
            record = {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                **result_line(result),
                "metrics": result.metrics,
            }
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result_line(result)))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
