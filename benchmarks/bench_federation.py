"""M7 — N-site federation: partial recovery and fan-out cost.

Two claims about the federated distributed layer, each asserted:

1. **Fault-tolerant federation is exact.**  A pessimistic run over an
   N-site federation with *per-site* faults — transient failure rates on
   the policy sites plus one site in full outage — finishes the stream
   with zero exceptions (unreachable sites degrade verdicts to
   DEFERRED), settles the deferrals whose site needs the outage does not
   cover while the dark site is still down (*partial recovery*), and
   after the site heals ends with final verdicts and local state
   **byte-identical** to the fault-free run.
2. **Fan-out beats one site at a time.**  With four remote sites each
   charging simulated latency per fetch, the
   :class:`~repro.distributed.remote.FederationLink` clock — which
   charges each escalation its slowest site, the cost of the sites
   answering concurrently — is at least **2x** below the sum of the
   per-site link clocks, the cost of fetching the sites one after
   another.  Both costs come from the same run: the latency is
   simulated, never slept.

The partial-recovery workload interleaves two disjoint constraint
families — employee hires checked against two policy sites, shipments
checked against a routing site — so that when the routing site goes
dark the employee family's deferrals can still settle: the drain marks
only the failed site dark and keeps walking entries whose full
site-need set is covered (DESIGN.md §10).

Runs as a pytest file (``pytest benchmarks/bench_federation.py``) or as
a script::

    python benchmarks/bench_federation.py [--quick] [--json PATH]

The script writes a ``BENCH_federation.json`` artifact with the
headline numbers (CI uploads it).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.outcomes import Outcome
from repro.distributed.faults import FaultModel, UnreliableRemote
from repro.distributed.remote import FetchPolicy, RemoteLink
from repro.distributed.sharded import ShardedChecker
from repro.distributed.site import FederatedDatabase, Site
from repro.distributed.workload import Workload, federated_workload

try:
    from _tables import print_table
except ImportError:  # running as a script from the repo root
    from benchmarks._tables import print_table

MAX_DRAIN_ROUNDS = 500

#: per-site transient failure rates for the faulted run; ``routes`` is
#: the full-outage site (healed only after the partial drain)
FAULT_RATES = {"pol1": 0.2, "pol2": 0.3, "routes": 1.0}
OUTAGE_SITE = "routes"


def build_workload(num_updates: int, seed: int = 23) -> Workload:
    """Two disjoint constraint families across three remote sites.

    * ``emp`` hires check against ``pol1`` (closedDept, salFloor) and
      ``pol2`` (blacklisted, deptBudget);
    * ``ship`` insertions check against ``routes`` (closedRoute).

    An ``emp`` escalation therefore needs {pol1, pol2} and a ``ship``
    escalation needs {routes} — with ``routes`` dark, every settled
    entry is an employee hire.
    """
    rng = random.Random(seed)
    departments = [f"d{i}" for i in range(3, 20)]
    closed = ["d0", "d1", "d2"]
    floors = {d: rng.randrange(20, 80) for d in departments}
    budgets = {d: f + 120 for d, f in floors.items()}
    employees = []
    for i in range(150):
        dept = rng.choice(departments)
        employees.append((f"e{i}", dept, floors[dept] + rng.randrange(0, 100)))
    routes = [f"r{i}" for i in range(12)]
    closed_routes = ["arctic", "mined"]
    shipments = [(i, rng.choice(routes)) for i in range(40)]
    blacklisted = [
        (f"n{i}",) for i in range(num_updates) if rng.random() < 0.05
    ]

    updates = []
    for i in range(num_updates):
        if rng.random() < 0.4:  # shipment family
            if rng.random() < 0.1:
                updates.append(("ship", (1000 + i, rng.choice(closed_routes))))
            else:
                updates.append(("ship", (1000 + i, f"fresh{i}")))
        else:  # employee family
            if rng.random() < 0.6 and employees:
                colleague = rng.choice(employees)
                updates.append(("emp", (f"n{i}", colleague[1], colleague[2])))
            else:
                dept = rng.choice(departments + closed)
                updates.append(("emp", (f"n{i}", dept, rng.randrange(0, 200))))

    from repro.updates.update import Insertion

    sites = FederatedDatabase(
        local=Site("local", {"emp": employees, "ship": shipments}),
        remotes=[
            Site("pol1", {
                "closedDept": [(d,) for d in closed],
                "salFloor": [(d, f) for d, f in floors.items()],
            }),
            Site("pol2", {
                "blacklisted": blacklisted,
                "deptBudget": [(d, b) for d, b in budgets.items()],
            }),
            Site("routes", {"closedRoute": [(r,) for r in closed_routes]}),
        ],
    )
    constraints = ConstraintSet(
        [
            Constraint("panic :- emp(E,D,S) & closedDept(D)", "no-closed-dept"),
            Constraint("panic :- emp(E,D,S) & salFloor(D,F) & S < F", "salary-floor"),
            Constraint("panic :- emp(E,D,S) & blacklisted(E)", "no-blacklisted"),
            Constraint("panic :- emp(E,D,S) & deptBudget(D,B) & S > B", "dept-budget"),
            Constraint("panic :- ship(I,R) & closedRoute(R)", "no-closed-route"),
        ]
    )
    return Workload(
        name="federated-families",
        constraints=constraints,
        sites=sites,
        updates=[Insertion(p, values) for p, values in updates],
    )


def build_links(sites: FederatedDatabase, rates=None, seed: int = 42):
    links = {}
    for name, site in sites.remotes.items():
        faults = FaultModel(
            failure_rate=(rates or {}).get(name, 0.0), seed=seed
        )
        links[name] = RemoteLink(
            UnreliableRemote(site, faults),
            FetchPolicy(max_attempts=2, failure_threshold=4,
                        cooldown_fetches=2),
            seed=seed,
        )
    return links


def drain(checker):
    settled = []
    for _ in range(MAX_DRAIN_ROUNDS):
        if not checker.pending_count:
            break
        settled.extend(checker.resolve_pending())
    return settled


def local_state(workload: Workload):
    db = workload.sites.local.unmetered()
    return {
        predicate: frozenset(db.facts(predicate))
        for predicate in db.predicates()
    }


def final_verdicts(updates, results, settled):
    final = {
        id(update): tuple(r.outcome for r in reports)
        for update, reports in zip(updates, results)
    }
    for update, reports in settled:
        final[id(update)] = tuple(r.outcome for r in reports)
    return [final[id(update)] for update in updates]


def run_recovery(num_updates: int, faulted: bool):
    """One pessimistic federated run; the faulted variant heals the
    outage site only after a first (partial) drain."""
    workload = build_workload(num_updates)
    links = build_links(
        workload.sites, rates=FAULT_RATES if faulted else None
    )
    checker = ShardedChecker(
        workload.constraints, workload.sites, shards=1,
        apply_on_unknown=False, remote_links=links,
    )
    t0 = time.perf_counter()
    results = checker.check_stream(list(workload.updates))
    # partial drain: the outage site is still dark
    settled_dark = drain(checker) if faulted else []
    pending_dark = checker.pending_count
    if faulted:
        links[OUTAGE_SITE].remote.faults = FaultModel()
    settled = settled_dark + drain(checker)
    wall = time.perf_counter() - t0
    return {
        "workload": workload,
        "checker": checker,
        "link": checker.remote_link,
        "verdicts": final_verdicts(workload.updates, results, settled),
        "settled_dark": settled_dark,
        "pending_dark": pending_dark,
        "wall_s": wall,
    }


def run_fanout(num_updates: int, latency: float = 0.05):
    """The 4-site fan-out run; returns the federation's simulated clock
    and the sum of the per-site link clocks.

    Every update hires into a *fresh* department, so no local witness
    settles any of the four policy constraints and each escalation must
    fetch from all four sites — the widest fan-out the placement allows
    (hires into staffed departments would settle one or two constraints
    at level 2 and narrow the fetch)."""
    from repro.updates.update import Insertion

    workload = federated_workload(
        remote_sites=4, num_updates=0, initial_employees=60, seed=11
    )
    updates = [
        Insertion("emp", (f"x{i}", f"newdept{i}", 50 + i % 40))
        for i in range(num_updates)
    ]
    links = {
        name: RemoteLink(
            UnreliableRemote(site, FaultModel(latency=latency)),
            FetchPolicy(max_attempts=2),
        )
        for name, site in workload.sites.remotes.items()
    }
    checker = ShardedChecker(
        workload.constraints, workload.sites, shards=1,
        remote_links=links,
    )
    t0 = time.perf_counter()
    checker.check_stream(updates)
    wall = time.perf_counter() - t0
    link = checker.remote_link
    return {
        "clock": link.clock,
        "site_clock_sum": sum(site.clock for site in link.links.values()),
        "fanouts": link.fanouts,
        "fanout_fetches": link.fanout_fetches,
        "wall_s": wall,
    }


def run_benchmark(quick: bool = False):
    num_updates = 80 if quick else 300

    # -- part 1: per-site faults + full outage, byte-identical recovery --------
    baseline = run_recovery(num_updates, faulted=False)
    assert baseline["checker"].pending_count == 0
    faulted = run_recovery(num_updates, faulted=True)
    stats = faulted["checker"].stats
    assert faulted["checker"].pending_count == 0, (
        f"{faulted['checker'].pending_count} verdicts never resolved"
    )
    assert stats.deferred_remote > 0, "the fault model injected nothing"
    # partial recovery: the employee family settled while routes was dark
    assert faulted["settled_dark"], (
        "no deferral settled while the outage site was dark"
    )
    assert all(
        update.predicate == "emp" for update, _ in faulted["settled_dark"]
    ), "an entry needing the dark site settled during the outage"
    assert faulted["pending_dark"] > 0, (
        "nothing stayed pending on the dark site"
    )
    assert not any(
        outcome is Outcome.DEFERRED or outcome is Outcome.UNKNOWN
        for verdict in faulted["verdicts"]
        for outcome in verdict
    ), "non-final verdict survived the drain"
    verdicts_identical = faulted["verdicts"] == baseline["verdicts"]
    state_identical = local_state(faulted["workload"]) == local_state(
        baseline["workload"]
    )
    assert verdicts_identical, "final verdicts diverged from the fault-free run"
    assert state_identical, "final local state diverged from the fault-free run"

    recovery_rows = []
    for label, result in (("fault-free", baseline), ("faulted", faulted)):
        rstats = result["checker"].stats
        recovery_rows.append(
            (
                label,
                rstats.updates,
                rstats.deferred_remote,
                len(result["settled_dark"]),
                result["pending_dark"],
                rstats.rejected,
                f"{rstats.breaker_opens}/{rstats.breaker_closes}",
                f"{result['wall_s']:.3f}",
            )
        )
    print_table(
        "M7a — federated fault recovery (pessimistic; one site in full "
        "outage; final verdicts and state byte-identical)",
        ["run", "updates", "deferred", "settled while dark",
         "pending on dark site", "rejected", "brk open/close", "wall (s)"],
        recovery_rows,
    )

    # -- part 2: fan-out cost at 4 sites ----------------------------------------
    # The simulated-clock ratio is exact per escalation, so a short
    # stream suffices (level-3 wall cost grows steeply with the fresh-
    # department stream and would dominate the bench otherwise).
    fanout_updates = 20 if quick else 40
    fanout = run_fanout(fanout_updates)
    assert fanout["fanouts"] > 0, "no escalation fanned out"
    assert fanout["clock"] > 0, "latency never reached the simulated clock"
    speedup = fanout["site_clock_sum"] / fanout["clock"]
    assert speedup >= 2.0, (
        f"fan-out only {speedup:.2f}x below the summed site clocks "
        f"(need >= 2x at 4 sites)"
    )
    print_table(
        "M7b — fan-out at 4 remote sites (simulated latency; an "
        "escalation costs max(site) on the federation clock, sum(site) "
        "one site at a time)",
        ["cost", "fan-outs", "site fetches", "sim clock (s)", "wall (s)"],
        [
            ("one site at a time (sum of link clocks)", fanout["fanouts"],
             fanout["fanout_fetches"], f"{fanout['site_clock_sum']:.2f}",
             f"{fanout['wall_s']:.3f}"),
            ("fan-out (federation clock)", fanout["fanouts"],
             fanout["fanout_fetches"], f"{fanout['clock']:.2f}",
             f"{fanout['wall_s']:.3f}"),
        ],
    )
    print(f"fan-out speedup on the simulated clock: {speedup:.2f}x")

    return {
        "updates": num_updates,
        "deferred": stats.deferred_remote,
        "deferred_resolved": stats.deferred_resolved,
        "settled_while_dark": len(faulted["settled_dark"]),
        "pending_on_dark_site": faulted["pending_dark"],
        "verdicts_identical": verdicts_identical,
        "state_identical": state_identical,
        "sequential_clock": round(fanout["site_clock_sum"], 4),
        "fanout_clock": round(fanout["clock"], 4),
        "fanout_speedup": round(speedup, 4),
    }


def test_m7_federation(benchmark):
    result = benchmark.pedantic(
        run_benchmark, kwargs={"quick": True}, rounds=1, iterations=1
    )
    assert result["verdicts_identical"] and result["state_identical"]
    assert result["settled_while_dark"] > 0
    assert result["fanout_speedup"] >= 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration (same assertions, shorter stream)",
    )
    parser.add_argument(
        "--json", default="BENCH_federation.json", metavar="PATH",
        help="write the headline numbers to PATH "
        "(default BENCH_federation.json)",
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
