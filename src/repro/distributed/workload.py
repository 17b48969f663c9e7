"""Seeded workload generators for the distributed benchmarks.

Two scenarios keyed to the paper's running examples:

* :func:`interval_workload` — the forbidden-intervals constraint of
  Examples 5.3/6.1: the local relation holds cleared intervals, the
  remote relation holds sensor readings, and the update stream inserts
  new intervals with a tunable probability of being covered by existing
  ones (the knob that drives the local-resolution rate).
* :func:`employee_workload` — the employee/department scenario of
  Section 2: local ``emp`` insertions checked against remote
  ``closedDept`` and ``salRange`` tables via CQC local tests.
* :func:`federated_workload` — the employee scenario widened to N
  remote sites: four policy tables dealt round-robin across the
  remotes, so escalations fan out and per-site faults exercise the
  partial-recovery drain.
* :func:`bursty_workload` — an adversarial metering stream: hot-key
  bursts (for key-range rebalancing and crash-recovery runs) threaded
  with clusters of cap-violating readings, so rejections arrive in
  bunches rather than uniformly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from repro.constraints.constraint import Constraint, ConstraintSet
from repro.datalog.database import Database
from repro.distributed.site import FederatedDatabase, Site
from repro.updates.update import Deletion, Insertion, Update

__all__ = [
    "Workload",
    "interval_workload",
    "employee_workload",
    "federated_workload",
    "bursty_workload",
]


@dataclass
class Workload:
    """Everything a bench needs to drive the distributed checker."""

    name: str
    constraints: ConstraintSet
    sites: FederatedDatabase
    updates: list[Insertion] = field(default_factory=list)

    @property
    def local_predicates(self) -> set[str]:
        return self.sites.local_predicates


def interval_workload(
    initial_intervals: int = 100,
    num_updates: int = 100,
    covered_fraction: float = 0.7,
    value_range: int = 10_000,
    remote_points: int = 50,
    seed: int = 0,
    remote_cost: float = 1.0,
) -> Workload:
    """Forbidden intervals: local ``cleared(Lo, Hi)``, remote ``reading(Z)``.

    The constraint says no remote reading may fall inside a cleared
    interval.  A fraction *covered_fraction* of the inserted intervals is
    drawn inside an existing interval (resolvable locally); the rest are
    fresh (forcing a remote check).
    """
    rng = random.Random(seed)
    constraint = Constraint(
        "panic :- cleared(X,Y) & reading(Z) & X <= Z & Z <= Y",
        "no-reading-in-cleared-interval",
    )
    intervals: list[tuple[int, int]] = []
    for _ in range(initial_intervals):
        lo = rng.randrange(value_range)
        hi = lo + rng.randrange(1, max(2, value_range // 50))
        intervals.append((lo, hi))

    # Remote readings strictly outside every cleared interval, so the
    # constraint holds initially.
    readings: list[tuple[int,]] = []
    attempts = 0
    while len(readings) < remote_points and attempts < remote_points * 100:
        attempts += 1
        z = rng.randrange(value_range * 2)
        if not any(lo <= z <= hi for lo, hi in intervals):
            readings.append((z,))

    updates: list[Insertion] = []
    for _ in range(num_updates):
        if intervals and rng.random() < covered_fraction:
            lo, hi = rng.choice(intervals)
            if hi - lo >= 2:
                a = rng.randrange(lo, hi)
                b = rng.randrange(a, hi + 1)
            else:
                a, b = lo, hi
            updates.append(Insertion("cleared", (a, b)))
        else:
            lo = rng.randrange(value_range, value_range * 2)
            hi = lo + rng.randrange(1, 50)
            updates.append(Insertion("cleared", (lo, hi)))

    sites = FederatedDatabase(
        local=Site("local", {"cleared": intervals}),
        remotes=[
            Site("remote", {"reading": readings}, cost_per_read=remote_cost)
        ],
    )
    return Workload(
        name="forbidden-intervals",
        constraints=ConstraintSet([constraint]),
        sites=sites,
        updates=updates,
    )


def employee_workload(
    initial_employees: int = 200,
    num_updates: int = 100,
    departments: int = 20,
    closed_departments: int = 3,
    covered_fraction: float = 0.7,
    seed: int = 0,
    remote_cost: float = 1.0,
) -> Workload:
    """Employees at the local site, department policy tables remote.

    Constraints (both CQCs, so the Theorem 5.2/5.3 local tests apply):

    * nobody may work in a closed department
      (``panic :- emp(E,D,S) & closedDept(D)``);
    * nobody may earn below a department's salary floor
      (``panic :- emp(E,D,S) & salFloor(D,F) & S < F``).

    An insertion into ``emp`` resolves locally when a colleague in the
    same department already earns no more than the newcomer — the
    Theorem 5.2 containment works out to exactly that test.
    """
    rng = random.Random(seed)
    open_departments = [f"d{i}" for i in range(closed_departments, departments)]
    closed = [f"d{i}" for i in range(closed_departments)]
    floors = {d: rng.randrange(20, 80) for d in open_departments}

    employees: list[tuple[str, str, int]] = []
    for i in range(initial_employees):
        dept = rng.choice(open_departments)
        salary = floors[dept] + rng.randrange(0, 100)
        employees.append((f"e{i}", dept, salary))

    updates: list[Insertion] = []
    for i in range(num_updates):
        name = f"n{i}"
        if rng.random() < covered_fraction and employees:
            # Hire into a staffed department at or above a colleague's pay:
            # the local test proves safety without remote access.
            colleague = rng.choice(employees)
            salary = colleague[2] + rng.randrange(0, 20)
            updates.append(Insertion("emp", (name, colleague[1], salary)))
        else:
            dept = rng.choice(open_departments + closed)
            salary = rng.randrange(0, 200)
            updates.append(Insertion("emp", (name, dept, salary)))

    sites = FederatedDatabase(
        local=Site("local", {"emp": employees}),
        remotes=[
            Site(
                "remote",
                {
                    "closedDept": [(d,) for d in closed],
                    "salFloor": [(d, f) for d, f in floors.items()],
                },
                cost_per_read=remote_cost,
            )
        ],
    )
    constraints = ConstraintSet(
        [
            Constraint("panic :- emp(E,D,S) & closedDept(D)", "no-closed-dept"),
            Constraint("panic :- emp(E,D,S) & salFloor(D,F) & S < F", "salary-floor"),
        ]
    )
    return Workload(
        name="employees",
        constraints=constraints,
        sites=sites,
        updates=updates,
    )


#: the federated policy tables, in round-robin placement order
_FEDERATED_TABLES = ("closedDept", "salFloor", "blacklisted", "deptBudget")


def federated_workload(
    remote_sites: int = 3,
    initial_employees: int = 200,
    num_updates: int = 100,
    departments: int = 20,
    closed_departments: int = 3,
    covered_fraction: float = 0.7,
    blacklisted_fraction: float = 0.05,
    seed: int = 0,
    remote_cost: float = 1.0,
) -> Workload:
    """The employee scenario widened to an N-site federation.

    Local ``emp``; four policy tables dealt round-robin across
    *remote_sites* named remotes (``remote1`` .. ``remoteN``), declared
    via ``site_predicates`` so ownership survives empty tables:

    * ``closedDept(D)`` / ``salFloor(D,F)`` — as in
      :func:`employee_workload`;
    * ``blacklisted(E)`` — nobody on the blacklist may be hired
      (``panic :- emp(E,D,S) & blacklisted(E)``); a *fresh* name can
      never be cleared locally, so every insertion escalates at least to
      the blacklist's site;
    * ``deptBudget(D,B)`` — nobody may out-earn their department's
      budget cap (``panic :- emp(E,D,S) & deptBudget(D,B) & S > B``).

    A *covered_fraction* hire duplicates a colleague's salary, so the
    three department constraints settle locally and the escalation
    fetches exactly one site; the rest escalate wide (a multi-site
    fan-out).  A *blacklisted_fraction* of the new names is seeded into
    ``blacklisted``, so some escalations come back VIOLATED.
    """
    if remote_sites < 1:
        raise ValueError("remote_sites must be >= 1")
    rng = random.Random(seed)
    open_departments = [f"d{i}" for i in range(closed_departments, departments)]
    closed = [f"d{i}" for i in range(closed_departments)]
    floors = {d: rng.randrange(20, 80) for d in open_departments}
    # Salaries land in [floor, floor+119]; the cap clears every
    # consistent hire and catches wild ones.
    budgets = {d: f + 120 for d, f in floors.items()}

    employees: list[tuple[str, str, int]] = []
    for i in range(initial_employees):
        dept = rng.choice(open_departments)
        salary = floors[dept] + rng.randrange(0, 100)
        employees.append((f"e{i}", dept, salary))

    blacklisted = [
        (f"n{i}",)
        for i in range(num_updates)
        if rng.random() < blacklisted_fraction
    ]

    updates: list[Insertion] = []
    for i in range(num_updates):
        name = f"n{i}"
        if rng.random() < covered_fraction and employees:
            # Duplicate a colleague's salary: the floor, budget, and
            # closed-department constraints all settle locally, leaving
            # only the blacklist check for the remote.
            colleague = rng.choice(employees)
            updates.append(Insertion("emp", (name, colleague[1], colleague[2])))
        else:
            dept = rng.choice(open_departments + closed)
            salary = rng.randrange(0, 200)
            updates.append(Insertion("emp", (name, dept, salary)))

    tables: dict[str, list[tuple]] = {
        "closedDept": [(d,) for d in closed],
        "salFloor": [(d, f) for d, f in floors.items()],
        "blacklisted": blacklisted,
        "deptBudget": [(d, b) for d, b in budgets.items()],
    }
    placement: dict[str, list[str]] = {
        f"remote{i + 1}": [] for i in range(remote_sites)
    }
    for index, table in enumerate(_FEDERATED_TABLES):
        placement[f"remote{(index % remote_sites) + 1}"].append(table)
    remotes = [
        Site(
            name,
            {table: tables[table] for table in owned},
            cost_per_read=remote_cost,
        )
        for name, owned in placement.items()
    ]
    sites = FederatedDatabase(
        local=Site("local", {"emp": employees}),
        remotes=remotes,
        site_predicates=placement,
    )
    constraints = ConstraintSet(
        [
            Constraint("panic :- emp(E,D,S) & closedDept(D)", "no-closed-dept"),
            Constraint("panic :- emp(E,D,S) & salFloor(D,F) & S < F", "salary-floor"),
            Constraint("panic :- emp(E,D,S) & blacklisted(E)", "no-blacklisted"),
            Constraint(
                "panic :- emp(E,D,S) & deptBudget(D,B) & S > B", "dept-budget"
            ),
        ]
    )
    return Workload(
        name=f"federated-employees-{remote_sites}",
        constraints=constraints,
        sites=sites,
        updates=updates,
    )


def bursty_workload(
    num_updates: int = 500,
    key_space: int = 200,
    cap: int = 100,
    burst_probability: float = 0.25,
    burst_length: tuple[int, int] = (8, 32),
    hot_width: int = 20,
    violation_cluster_rate: float = 0.2,
    covered_fraction: float = 0.8,
    deletion_rate: float = 0.15,
    initial_readings: int = 60,
    seed: int = 0,
    remote_cost: float = 1.0,
) -> Workload:
    """Adversarial metering stream: hot-key bursts + violation clusters.

    Local ``meter(K, V)`` readings, a remote global alarm threshold
    ``capLimit(C)``, one CQC constraint: no reading may exceed the
    threshold (``panic :- meter(K,V) & capLimit(C) & V > C``).  The
    Theorem 5.2 local test clears a new reading whenever some accepted
    reading already carries an equal-or-higher value, so a
    *covered_fraction* of the stream resolves locally and the rest
    escalates to the remote site.

    The stream alternates between a *background* regime (uniform keys)
    and *bursts*: a run of ``burst_length[0]..burst_length[1]``
    consecutive updates whose keys all land in one hot window of
    *hot_width* keys — the adversarial shape for key-range sharding
    (one shard absorbs the whole burst, driving rebalances) and for
    crash recovery (a kill inside a burst leaves a dense, correlated
    tail to replay).  A *violation_cluster_rate* fraction of bursts is
    poisoned: every reading in the burst exceeds the threshold, so
    rejections arrive in bunches rather than uniformly — and under a
    faulty link the same clusters defer in bunches instead.
    *deletion_rate* of the background updates retract a previously
    inserted reading, so recovery must reproduce effective (not just
    additive) deltas.

    First-column keys are integers, so ``KeyRangePartitioner`` cuts
    apply directly.
    """
    if num_updates < 0:
        raise ValueError("num_updates must be non-negative")
    if not 0 < hot_width <= key_space:
        raise ValueError("hot_width must be in 1..key_space")
    lo, hi = burst_length
    if not 1 <= lo <= hi:
        raise ValueError("burst_length must be an ascending positive pair")
    rng = random.Random(seed)

    readings: list[tuple[int, int]] = []
    for _ in range(initial_readings):
        readings.append((rng.randrange(key_space), rng.randrange(cap)))
    # Deletions are only ever drawn from facts still live, so the stream
    # never retracts the same fact twice (duplicate insertions stay in
    # the stream — they exercise the redundant-insert path).
    live: list[tuple[int, int]] = []
    live_set: set[tuple[int, int]] = set()

    def _track(fact: tuple[int, int]) -> None:
        if fact not in live_set:
            live.append(fact)
            live_set.add(fact)

    for fact in readings:
        _track(fact)

    def _value(poisoned: bool) -> int:
        if poisoned:
            return cap + 1 + rng.randrange(cap)
        if live and rng.random() < covered_fraction:
            # At or below an accepted reading: the local containment
            # test proves safety without touching the remote threshold.
            _, ceiling = live[rng.randrange(len(live))]
            return rng.randrange(ceiling + 1)
        return rng.randrange(cap)

    updates: list[Update] = []
    remaining_burst = 0
    hot_base = 0
    poisoned = False
    while len(updates) < num_updates:
        if remaining_burst == 0 and rng.random() < burst_probability:
            remaining_burst = rng.randrange(lo, hi + 1)
            hot_base = rng.randrange(key_space - hot_width + 1)
            poisoned = rng.random() < violation_cluster_rate
        if remaining_burst:
            remaining_burst -= 1
            key = hot_base + rng.randrange(hot_width)
            value = _value(poisoned)
            updates.append(Insertion("meter", (key, value)))
            if not poisoned:
                _track((key, value))
        elif live and rng.random() < deletion_rate:
            victim = live.pop(rng.randrange(len(live)))
            live_set.discard(victim)
            updates.append(Deletion("meter", victim))
        else:
            fact = (rng.randrange(key_space), _value(False))
            updates.append(Insertion("meter", fact))
            _track(fact)

    sites = FederatedDatabase(
        local=Site("local", {"meter": readings}),
        remotes=[
            Site("remote", {"capLimit": [(cap,)]}, cost_per_read=remote_cost)
        ],
    )
    constraint = Constraint(
        "panic :- meter(K,V) & capLimit(C) & V > C", "reading-within-cap"
    )
    return Workload(
        name="bursty-metering",
        constraints=ConstraintSet([constraint]),
        sites=sites,
        updates=updates,
    )
