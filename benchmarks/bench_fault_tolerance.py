"""M3 — graceful degradation: unreliable remotes must not break checking.

Drives the Section-2 employee workload through the one-shard checker
with the remote site behind an
:class:`~repro.distributed.faults.UnreliableRemote` and a
retry/backoff/circuit-breaker
:class:`~repro.distributed.remote.RemoteLink`, at transient failure
rates from 0 to 30% plus one hard-outage window.  Asserts, per faulted
run:

* the stream completes with **zero exceptions** — unreachable-remote
  escalations degrade to DEFERRED verdicts instead of crashing;
* after the link recovers, :meth:`resolve_pending` settles **every**
  deferred verdict, and (under the pessimistic ``apply_on_unknown=False``
  policy) the final per-update verdicts and the final local-site state
  are **identical** to the fault-free run;
* on the outage run the circuit breaker demonstrably **opens and
  recloses** (via the mirrored ``ProtocolStats`` counters).

The pessimistic policy is the one with an exactness guarantee: an
optimistically applied unverified fact could be cited by a later
update's local test, changing verdicts in a way no amount of later
resolution can undo (see DESIGN.md §7).

Reports a degradation table: deferred/resolved counts, breaker
activity, local-resolution rate, and simulated verdict latency (attempt
latency + backoff accumulated on the link's simulated clock — nothing
sleeps).

Runs as a pytest file (``pytest benchmarks/bench_fault_tolerance.py``)
or as a script::

    python benchmarks/bench_fault_tolerance.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.outcomes import Outcome
from repro.distributed.faults import FaultModel, UnreliableRemote
from repro.distributed.remote import FetchPolicy, RemoteLink
from repro.distributed.sharded import ShardedChecker
from repro.distributed.workload import employee_workload

try:
    from _tables import print_table
except ImportError:  # running as a script from the repo root
    from benchmarks._tables import print_table

#: resolve_pending rounds before declaring the link dead (the transient
#: rate is < 1, so the drain succeeds with overwhelming probability)
MAX_DRAIN_ROUNDS = 500


def build_workload(num_updates: int):
    # covered_fraction=0.4 keeps plenty of escalations in the stream so
    # the faulty link actually gets exercised.
    return employee_workload(
        num_updates=num_updates, covered_fraction=0.4, seed=23
    )


def run_stream(num_updates: int, fault_rate: float, outage: bool):
    """One pessimistic run; returns everything the comparison needs."""
    workload = build_workload(num_updates)
    outages = ((10, 30),) if outage else ()
    link = RemoteLink(
        UnreliableRemote(
            workload.sites.remotes["remote"],
            FaultModel(
                failure_rate=fault_rate,
                latency=0.01,
                latency_jitter=0.005,
                outages=outages,
                seed=42,
            ),
        ),
        FetchPolicy(max_attempts=2, failure_threshold=4, cooldown_fetches=2),
        seed=42,
    )
    checker = ShardedChecker(
        workload.constraints, workload.sites, shards=1,
        apply_on_unknown=False, remote_links={"remote": link},
    )
    t0 = time.perf_counter()
    results = checker.check_stream(workload.updates)
    settled = []
    for _ in range(MAX_DRAIN_ROUNDS):
        if not checker.pending_count:
            break
        settled.extend(checker.resolve_pending())
    wall = time.perf_counter() - t0

    # Final verdict per update: the stream verdict, overridden by the
    # resolution verdict for updates that were deferred.
    final = {
        id(update): tuple(r.outcome for r in reports)
        for update, reports in zip(workload.updates, results)
    }
    for update, reports in settled:
        final[id(update)] = tuple(r.outcome for r in reports)
    verdicts = [final[id(update)] for update in workload.updates]
    return {
        "workload": workload,
        "checker": checker,
        "link": link,
        "verdicts": verdicts,
        "wall_s": wall,
    }


def local_state(workload):
    db = workload.sites.local.unmetered()
    return {
        predicate: frozenset(db.facts(predicate))
        for predicate in db.predicates()
    }


def run_benchmark(quick: bool = False):
    num_updates = 120 if quick else 500
    scenarios = (
        [(0.0, False), (0.1, True)]
        if quick
        else [(0.0, False), (0.1, False), (0.2, True), (0.3, True)]
    )
    baseline = None
    rows = []
    for fault_rate, outage in scenarios:
        result = run_stream(num_updates, fault_rate, outage)
        checker, link = result["checker"], result["link"]
        stats = checker.stats
        assert checker.pending_count == 0, (
            f"fault_rate={fault_rate}: {checker.pending_count} verdicts "
            f"never resolved"
        )
        assert stats.deferred_resolved == stats.deferred_remote, (
            f"fault_rate={fault_rate}: resolution lost deferred verdicts"
        )
        assert not any(
            outcome is Outcome.DEFERRED or outcome is Outcome.UNKNOWN
            for verdict in result["verdicts"]
            for outcome in verdict
        ), f"fault_rate={fault_rate}: non-final verdict survived the drain"
        if fault_rate == 0.0 and not outage:
            baseline = result
            assert stats.deferred_remote == 0
        else:
            assert stats.deferred_remote > 0, (
                f"fault_rate={fault_rate}: the fault model injected nothing"
            )
            assert result["verdicts"] == baseline["verdicts"], (
                f"fault_rate={fault_rate}: final verdicts diverged from the "
                f"fault-free run"
            )
            assert local_state(result["workload"]) == local_state(
                baseline["workload"]
            ), (
                f"fault_rate={fault_rate}: final local state diverged from "
                f"the fault-free run"
            )
        if outage:
            assert stats.breaker_opens >= 1, (
                f"fault_rate={fault_rate}: the outage never opened the breaker"
            )
            assert stats.breaker_closes >= 1, (
                f"fault_rate={fault_rate}: the breaker never reclosed"
            )
        rows.append(
            (
                f"{fault_rate:.0%}" + (" +outage" if outage else ""),
                stats.updates,
                stats.deferred_remote,
                stats.deferred_resolved,
                stats.rejected,
                f"{stats.breaker_opens}/{stats.breaker_closes}",
                stats.remote_retries,
                f"{stats.local_resolution_rate:.2f}",
                f"{link.clock:.2f}",
                f"{result['wall_s']:.3f}",
            )
        )
    print_table(
        "M3 — fault-tolerant escalation (pessimistic; final verdicts and "
        "state identical to the fault-free run)",
        ["faults", "updates", "deferred", "resolved", "rejected",
         "brk open/close", "retries", "local rate", "sim latency (s)",
         "wall (s)"],
        rows,
    )
    return rows


def test_m3_fault_tolerance(benchmark):
    benchmark.pedantic(
        run_benchmark, kwargs={"quick": True}, rounds=1, iterations=1
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration (120 updates, two fault scenarios)",
    )
    args = parser.parse_args(argv)
    run_benchmark(quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
