"""Seeded input generators for the ``check-stream`` benchmark.

Each generator returns the command-line inputs of one workload — the
constraint file, the JSON database, the update stream and the extra
``check-stream`` flags — together with the status every update must
get (``a`` = applied, ``R`` = REJECTED).  The statuses come from a
plain-Python model of the workload's constraints that replays the
stream against the evolving database, so the reference is independent
of the program under test.

This module imports nothing from ``repro``: a refactor of the program
cannot change the inputs without the recorded input digests
(``expected/inputs.json``) noticing.

Run ``python benchmarks/perf/workloads.py --write-expected`` to
regenerate the default-seed reference files after a deliberate change
to a generator.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field

DEFAULT_SEED = 1

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
DIGESTS_FILE = os.path.join(EXPECTED_DIR, "inputs.json")


@dataclass
class Update:
    """One stream line: ``sign`` is ``+``, ``-`` or ``~`` (then ``new``
    holds the replacement tuple)."""

    sign: str
    predicate: str
    values: tuple
    new: tuple | None = None

    def line(self) -> str:
        """The update in the stream-file syntax."""
        text = f"{self.sign}{self.predicate}({_terms(self.values)})"
        if self.new is not None:
            text += f"->({_terms(self.new)})"
        return text

    def echo(self) -> str:
        """How ``check-stream`` prints the update on its verdict line."""
        text = f"{self.sign}{self.predicate}{self.values!r}"
        if self.new is not None:
            text += f"->{self.new!r}"
        return text


def _terms(values: tuple) -> str:
    # Strings are lowercase identifiers, which the update parser reads
    # as string constants; integers are written as numbers.
    return ", ".join(str(value) for value in values)


@dataclass
class Inputs:
    """Everything one ``check-stream`` pass needs, plus its reference."""

    constraints: str
    database: dict
    updates: list[Update]
    expected: str
    flags: list[str] = field(default_factory=list)
    #: pass ``--journal`` with a fresh directory on every run
    journal: bool = False
    #: worker threads the program runs (``--parallel``), 0 when serial
    workers: int = 0

    def files(self) -> dict[str, bytes]:
        """The input files, by name, exactly as written to disk."""
        return {
            "constraints.dl": self.constraints.encode(),
            "db.json": (json.dumps(self.database, sort_keys=True) + "\n").encode(),
            "updates.txt": "".join(u.line() + "\n" for u in self.updates).encode(),
            "empty.txt": b"",
        }

    def digest(self) -> str:
        """sha256 over the input files and the flags."""
        h = hashlib.sha256()
        for name, data in sorted(self.files().items()):
            h.update(name.encode() + b"\0" + data + b"\0")
        h.update(json.dumps([self.flags, self.journal]).encode())
        return h.hexdigest()

    def write(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        for name, data in self.files().items():
            with open(os.path.join(directory, name), "wb") as handle:
                handle.write(data)


def _constraint_file(named: list[tuple[str, str]]) -> str:
    return "".join(f"%% {name}\n{program}\n" for name, program in named)


def _mix(rng: random.Random, total: int, shares: dict[str, float]) -> list[str]:
    """*total* update kinds in a shuffled order, each kind's count fixed
    by its share (at least one of every kind after the first, which
    takes the remainder): the mix, and so the work per update, does not
    vary with the seed."""
    first, *rest = shares
    counts = {kind: max(1, round(total * shares[kind])) for kind in rest}
    counts[first] = total - sum(counts.values())
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    return kinds


# -- membership ---------------------------------------------------------------


def membership(seed: int, quick: bool = False) -> Inputs:
    """Two Theorem 5.3 algebraic tests over a large local ``acct``.

    88% of the updates give a known account a row in an already
    populated region, so both membership tests settle them at level 2;
    9% delete a live row; one in each hundred (at least one each) uses a
    fresh account that is audited, in a frozen region, or clean, and
    escalates.
    """
    rng = random.Random(seed)
    num_facts, num_updates = (300, 30) if quick else (4000, 75)
    regions = [f"r{i}" for i in range(50)]
    frozen = [f"fz{i}" for i in range(5)]
    audited = list(range(num_facts + 1000, num_facts + 1050))
    base = [(i, rng.choice(regions)) for i in range(num_facts)]
    live = set(base)
    order = list(base)
    frozen_set, audited_set = set(frozen), set(audited)
    updates: list[Update] = []
    expected: list[str] = []
    next_id = num_facts
    kinds = _mix(
        rng, num_updates,
        {"hot": 0.88, "delete": 0.09, "audited": 0.01, "frozen": 0.01, "fresh": 0.01},
    )
    for kind in kinds:
        if kind == "delete":
            victim = order.pop(rng.randrange(len(order)))
            live.discard(victim)
            updates.append(Update("-", "acct", victim))
            expected.append("a")
            continue
        if kind == "hot":
            fact = (rng.randrange(num_facts), rng.choice(regions))
        elif kind == "audited":
            fact = (rng.choice(audited), rng.choice(regions))
        else:
            region = rng.choice(frozen) if kind == "frozen" else f"fresh{next_id}"
            fact = (next_id, region)
            next_id += 1
        updates.append(Update("+", "acct", fact))
        if fact[1] in frozen_set or fact[0] in audited_set:
            expected.append("R")
        else:
            expected.append("a")
            if fact not in live:
                live.add(fact)
                order.append(fact)
    return Inputs(
        constraints=_constraint_file(
            [
                ("no-frozen-region", "panic :- acct(A, R) & frozen(R)"),
                ("no-audited-id", "panic :- acct(A, R) & audited(A)"),
            ]
        ),
        database={
            "acct": [list(f) for f in base],
            "frozen": [[r] for r in frozen],
            "audited": [[a] for a in audited],
        },
        updates=updates,
        expected="".join(expected),
        flags=["--local", "acct"],
    )


# -- federated ----------------------------------------------------------------


def federated(seed: int, quick: bool = False) -> Inputs:
    """Fresh hires checked against four policy tables on three sites.

    Every fresh name escalates at least to the blacklist's site; the
    salary-floor and budget constraints run Theorem 5.2 containment
    tests.  Two thirds of the hires copy a colleague's department and
    salary (the department constraints settle locally); 15% draw an
    open department and an allowed salary and escalate wide; one in
    twenty each is blacklisted, hired into a closed department, paid
    below the floor, or paid above the budget, and is rejected.

    The size stays at 200 employees: at 1,000 (800 still runs) the
    containment test's implication check recurses past Python's limit
    and the run dies with RecursionError.
    """
    rng = random.Random(seed)
    num_employees, num_updates = (30, 10) if quick else (200, 20)
    open_depts = [f"d{i}" for i in range(3, 20)]
    closed = [f"d{i}" for i in range(3)]
    floors = {d: rng.randrange(20, 80) for d in open_depts}
    budgets = {d: f + 120 for d, f in floors.items()}
    employees = []
    for i in range(num_employees):
        dept = rng.choice(open_depts)
        employees.append((f"e{i}", dept, floors[dept] + rng.randrange(100)))
    blacklisted = []
    updates: list[Update] = []
    expected: list[str] = []
    kinds = _mix(
        rng, num_updates,
        {
            "covered": 0.65, "wide": 0.15, "blacklisted": 0.05,
            "closed": 0.05, "low": 0.05, "high": 0.05,
        },
    )
    for i, kind in enumerate(kinds):
        name = f"n{i}"
        dept = rng.choice(open_depts)
        if kind in ("covered", "blacklisted"):
            _, dept, salary = rng.choice(employees)
            if kind == "blacklisted":
                blacklisted.append(name)
        elif kind == "wide":
            salary = rng.randrange(floors[dept], budgets[dept] + 1)
        elif kind == "closed":
            dept, salary = rng.choice(closed), rng.randrange(200)
        elif kind == "low":
            salary = rng.randrange(floors[dept])
        else:
            salary = budgets[dept] + 1 + rng.randrange(50)
        updates.append(Update("+", "emp", (name, dept, salary)))
        expected.append("a" if kind in ("covered", "wide") else "R")
    return Inputs(
        constraints=_constraint_file(
            [
                ("no-closed-dept", "panic :- emp(E, D, S) & closedDept(D)"),
                ("salary-floor", "panic :- emp(E, D, S) & salFloor(D, F) & S < F"),
                ("no-blacklisted", "panic :- emp(E, D, S) & blacklisted(E)"),
                ("dept-budget", "panic :- emp(E, D, S) & deptBudget(D, B) & S > B"),
            ]
        ),
        database={
            "emp": [list(e) for e in employees],
            "closedDept": [[d] for d in closed],
            "salFloor": [[d, f] for d, f in floors.items()],
            "blacklisted": [[n] for n in blacklisted],
            "deptBudget": [[d, b] for d, b in budgets.items()],
        },
        updates=updates,
        expected="".join(expected),
        flags=["--local", "emp", "--sites", "4"],
    )


# -- maintenance --------------------------------------------------------------


def _reaches(succ: dict[int, set[int]], start: int, goal: int) -> bool:
    seen = {start}
    todo = [start]
    while todo:
        node = todo.pop()
        if node == goal:
            return True
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


CLUSTER, CLUSTERS, PER_CLUSTER = 15, 13, 40


def maintenance(seed: int, quick: bool = False) -> Inputs:
    """Two purely local constraints kept by delta and DRed maintenance.

    A functional dependency over ``emp(Key, Salary)`` and acyclicity of
    ``edge`` through a recursive ``reach``.  Half the stream edits
    ``emp`` (fresh inserts, salary changes, deletions, and conflicting
    inserts that violate the dependency); half churns edges around a
    steady live count, with back edges that close a cycle when the
    graph already has the reverse path.

    Edges stay inside clusters of CLUSTER nodes, each holding a fixed
    number of live edges.  The size of ``reach``, which sets the cost of
    DRed, then sums over many independent clusters instead of hanging
    on whether one random graph on all the nodes happens to percolate.
    """
    rng = random.Random(seed)
    if quick:
        num_emps, clusters, per_cluster, num_updates = 300, 3, 15, 100
    else:
        num_emps, clusters, per_cluster, num_updates = 5000, CLUSTERS, PER_CLUSTER, 1200
    salary = {f"e{i}": rng.randrange(1_000_000) for i in range(num_emps)}
    keys = list(salary)
    succ: dict[int, set[int]] = {}
    live: list[list[tuple[int, int]]] = [[] for _ in range(clusters)]

    def node_pair(c: int) -> tuple[int, int]:
        a, b = rng.sample(range(c * CLUSTER, (c + 1) * CLUSTER), 2)
        return min(a, b), max(a, b)

    def add_edge(c: int, a: int, b: int) -> None:
        if b not in succ.setdefault(a, set()):
            succ[a].add(b)
            live[c].append((a, b))

    for c in range(clusters):
        while len(live[c]) < per_cluster:
            add_edge(c, *node_pair(c))
    base_emp = [[k, s] for k, s in salary.items()]
    base_edges = [list(e) for edges in live for e in edges]
    updates: list[Update] = []
    expected: list[str] = []
    fresh = 0
    kinds = _mix(
        rng, num_updates,
        {"edge": 0.5, "insert": 0.2, "modify": 0.125, "delete": 0.1, "conflict": 0.075},
    )
    for kind in kinds:
        if kind == "insert":
            key, value = f"n{fresh}", rng.randrange(1_000_000)
            fresh += 1
            updates.append(Update("+", "emp", (key, value)))
            salary[key] = value
            keys.append(key)
            expected.append("a")
        elif kind == "modify":
            key = rng.choice(keys)
            value = rng.randrange(1_000_000)
            if value == salary[key]:
                value += 1
            updates.append(Update("~", "emp", (key, salary[key]), (key, value)))
            salary[key] = value
            expected.append("a")
        elif kind == "delete":
            key = keys.pop(rng.randrange(len(keys)))
            updates.append(Update("-", "emp", (key, salary.pop(key))))
            expected.append("a")
        elif kind == "conflict":
            key = rng.choice(keys)
            value = salary[key] + 1 + rng.randrange(1000)
            updates.append(Update("+", "emp", (key, value)))
            expected.append("R")
        else:
            c = rng.randrange(clusters)
            if len(live[c]) > per_cluster:
                a, b = live[c].pop(rng.randrange(len(live[c])))
                succ[a].discard(b)
                updates.append(Update("-", "edge", (a, b)))
                expected.append("a")
                continue
            a, b = node_pair(c)
            if rng.random() < 0.15:
                a, b = b, a
            updates.append(Update("+", "edge", (a, b)))
            if _reaches(succ, b, a):
                expected.append("R")
            else:
                expected.append("a")
                add_edge(c, a, b)
    return Inputs(
        constraints=_constraint_file(
            [
                ("emp-fd", "panic :- emp(X, S1) & emp(X, S2) & S1 < S2"),
                (
                    "acyclic",
                    "reach(X, Y) :- edge(X, Y).\n"
                    "reach(X, Y) :- reach(X, Z) & edge(Z, Y).\n"
                    "panic :- reach(X, X).",
                ),
            ]
        ),
        database={"emp": base_emp, "edge": base_edges},
        updates=updates,
        expected="".join(expected),
        flags=["--local", "emp", "edge"],
    )


# -- bursty-sharded-journal ---------------------------------------------------


def bursty_sharded_journal(seed: int, quick: bool = False) -> Inputs:
    """The bursty metering stream on two key-range shards, journaled.

    ``meter(K, V)`` readings must stay at or below the remote
    ``capLimit`` (a Fig. 6.1 interval test).  The stream alternates
    uniform background traffic (15% deletions of live readings) with
    bursts of 8-32 updates on a 20-key hot window; every fifth burst is
    poisoned, every reading over the cap.  Covered readings (80% of the
    safe ones) sit at or below a live reading, so the local test settles
    them; the rest escalate.

    2% of the updates insert a tariff ``charge(T, R)`` that must not
    undercut the tariff's ``band(T, Lo)``.  The two relations are whole
    (not key-range split) and are dealt to different shards, so that
    constraint spans shards and each charge update runs alone behind a
    fence, splitting the meter traffic into parallel segments.
    """
    rng = random.Random(seed)
    num_updates = 100 if quick else 800
    charge_at = set(rng.sample(range(num_updates), max(1, round(0.02 * num_updates))))
    key_space, cap, hot_width = 200, 100, 20
    band = {f"t{i}": rng.randrange(10, 50) for i in range(10)}
    tariffs = list(band)
    charges = [(t, lo + rng.randrange(30)) for t, lo in band.items()]
    readings = [(rng.randrange(key_space), rng.randrange(cap)) for _ in range(60)]
    live: list[tuple[int, int]] = []
    live_set: set[tuple[int, int]] = set()

    def track(fact: tuple[int, int]) -> None:
        if fact not in live_set:
            live_set.add(fact)
            live.append(fact)

    for fact in readings:
        track(fact)

    def value(poisoned: bool) -> int:
        if poisoned:
            return cap + 1 + rng.randrange(cap)
        if live and rng.random() < 0.8:
            return rng.randrange(live[rng.randrange(len(live))][1] + 1)
        return rng.randrange(cap)

    updates: list[Update] = []
    expected: list[str] = []
    remaining = hot_base = bursts = 0
    poisoned = False
    while len(updates) < num_updates:
        if len(updates) in charge_at:
            tariff = rng.choice(tariffs)
            charge = band[tariff] + rng.randrange(-5, 30)
            updates.append(Update("+", "charge", (tariff, charge)))
            expected.append("R" if charge < band[tariff] else "a")
            continue
        if remaining == 0 and rng.random() < 0.25:
            remaining = rng.randrange(8, 33)
            hot_base = rng.randrange(key_space - hot_width + 1)
            bursts += 1
            poisoned = bursts % 5 == 0
        if remaining:
            remaining -= 1
            fact = (hot_base + rng.randrange(hot_width), value(poisoned))
            updates.append(Update("+", "meter", fact))
            if poisoned:
                expected.append("R")
            else:
                expected.append("a")
                track(fact)
        elif live and rng.random() < 0.15:
            victim = live.pop(rng.randrange(len(live)))
            live_set.discard(victim)
            updates.append(Update("-", "meter", victim))
            expected.append("a")
        else:
            fact = (rng.randrange(key_space), value(False))
            updates.append(Update("+", "meter", fact))
            expected.append("a")
            track(fact)
    return Inputs(
        constraints=_constraint_file(
            [
                ("reading-within-cap", "panic :- meter(K, V) & capLimit(C) & V > C"),
                ("charge-above-band", "panic :- charge(T, R) & band(T, Lo) & R < Lo"),
            ]
        ),
        database={
            "meter": [list(r) for r in readings],
            "capLimit": [[cap]],
            "charge": [list(c) for c in charges],
            "band": [[t, lo] for t, lo in band.items()],
        },
        updates=updates,
        expected="".join(expected),
        flags=[
            "--local", "meter", "charge", "band",
            "--shards", "2", "--parallel", "2", "--shard-by", "meter=100",
            "--sync-every", "16", "--checkpoint-every", "64",
        ],
        journal=True,
        workers=2,
    )


WORKLOADS = {
    "membership": membership,
    "federated": federated,
    "maintenance": maintenance,
    "bursty-sharded-journal": bursty_sharded_journal,
}


def expected_path(name: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{name}.txt")


def drift() -> list[str]:
    """Differences between the default-seed inputs generated now and the
    recorded digests and statuses; empty when nothing drifted."""
    try:
        with open(DIGESTS_FILE) as handle:
            digests = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"cannot read {DIGESTS_FILE}: {exc}"]
    problems = []
    for name, generate in WORKLOADS.items():
        inputs = generate(DEFAULT_SEED)
        if digests.get(name) != inputs.digest():
            problems.append(f"{name}: input sha256 differs from {DIGESTS_FILE}")
        try:
            with open(expected_path(name)) as handle:
                stored = handle.read().strip()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if stored != inputs.expected:
            problems.append(f"{name}: statuses differ from {expected_path(name)}")
    return problems


def write_expected() -> None:
    """Record the default-seed digests and statuses."""
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    digests = {}
    for name, generate in WORKLOADS.items():
        inputs = generate(DEFAULT_SEED)
        digests[name] = inputs.digest()
        with open(expected_path(name), "w") as handle:
            handle.write(inputs.expected + "\n")
    with open(DIGESTS_FILE, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-expected"]:
        sys.exit("usage: python benchmarks/perf/workloads.py --write-expected")
    write_expected()
