"""Run ``repro check-stream`` with span timers around each layer.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python benchmarks/perf/tracer.py SPANS.jsonl check-stream ARGS...

The timers wrap public functions of each layer from outside the
program; nothing under ``src/`` knows about them.  Spans are kept in
memory as ``(name, start_ns, end_ns, parent, thread, update)`` — the
parent is the enclosing span on the same thread and ``update`` the
enclosing ``session.process`` span — plus whether a local test returned
True, and written to SPANS.jsonl when the command ends.  The first line
of the file names the hooks installed and the targets that no longer
exist (reported as missing, not fatal).  The exit code is the
command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

#: (span name, module, attribute path); a "level2" span is renamed by
#: the plan's kind, see LEVEL2_KIND
HOOKS = [
    ("cli.load", "repro.cli", "load_constraints"),
    ("cli.load", "repro.cli", "load_database"),
    ("cli.load", "repro.cli", "load_updates"),
    ("compiler.build", "repro.core.compiler", "ConstraintCompiler.__init__"),
    ("stream", "repro.distributed.checker", "DistributedChecker.check_stream"),
    ("stream", "repro.distributed.sharded", "ShardedChecker.check_stream"),
    ("session.process", "repro.core.session", "CheckSession.process"),
    ("level1", "repro.core.compiler", "ConstraintCompiler.level1_verdict"),
    ("level2", "repro.core.compiler", "LocalTestPlan.run_against"),
    ("maintenance.apply_delta", "repro.datalog.evaluation", "Materialization.apply_delta"),
    ("maintenance.revert", "repro.datalog.evaluation", "Materialization.revert"),
    ("maintenance.materialize", "repro.datalog.evaluation", "Engine.materialize"),
    ("maintenance.fires", "repro.datalog.evaluation", "Materialization.fires"),
    ("storage.apply", "repro.datalog.database", "Database.apply"),
    ("storage.undo", "repro.datalog.database", "Database.undo"),
    ("storage.copy", "repro.datalog.database", "Database.copy"),
    ("remote.fetch", "repro.distributed.site", "Site.snapshot"),
    ("remote.fetch", "repro.distributed.remote", "RemoteLink.fetch"),
    ("remote.fetch", "repro.distributed.remote", "FederationLink.fetch"),
    ("level3.holds", "repro.constraints.constraint", "Constraint.holds"),
    ("sharded.slice", "repro.distributed.sharded", "ShardedChecker._run_shard_slice"),
    ("journal.record", "repro.durability.journal", "JournalWriter.record_update"),
    ("journal.sync", "repro.durability.journal", "JournalWriter.sync"),
    ("journal.checkpoint", "repro.durability.checkpoint", "write_checkpoint"),
]

#: LocalTestPlan.kind -> the local-test family the metrics report
LEVEL2_KIND = {
    "algebraic": "algebraic",
    "containment": "containment",
    "union-containment": "containment",
    "interval": "interval",
    "interval-datalog": "interval",
    "box": "interval",
}


class Tracer:
    """Collects spans from every thread into one in-memory list."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(fn)  # keeps inspect.signature, which the program reads
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            label = name
            if name == "level2":
                label = "level2." + LEVEL2_KIND.get(args[0].kind, args[0].kind)
            parent = stack[-1] if stack else None
            update = parent[5] if parent is not None else None
            span = [label, clock(), 0, parent, threading.get_ident(), update, False]
            if label == "session.process":
                span[5] = span
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)
            span[6] = result is True
            return result

        return traced

    def install(self) -> tuple[list[str], list[str]]:
        """Patch every hook target; returns (installed, missing)."""
        installed, missing = [], []
        for name, module_name, path in HOOKS:
            target = f"{module_name}:{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                missing.append(target)
                continue
            if not inspect.isfunction(fn):
                missing.append(target)
                continue
            setattr(owner, attr, self.wrap(name, fn))
            installed.append(target)
        return installed, missing

    def write(self, path: str, installed: list[str], missing: list[str]) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        threads: dict[int, int] = {}
        with open(path, "w") as out:
            out.write(json.dumps({"hooks": installed, "missing": missing}) + "\n")
            for i, (name, start, end, parent, thread, update, settled) in enumerate(
                self.spans
            ):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": None if parent is None else index[id(parent)],
                            "thread": threads.setdefault(thread, len(threads)),
                            "update": None if update is None else index[id(update)],
                            "settled": settled,
                        }
                    )
                    + "\n"
                )


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    installed, missing = tracer.install()
    from repro.cli import main as cli_main

    try:
        code = cli_main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path, installed, missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
