"""F6.1 / T6.1 — forbidden intervals: the recursive datalog test.

Four implementations of the same complete local test are raced over a
sweep of local-relation sizes:

* the interval algebra (the semantics of Fig. 6.1's fixpoint) over the
  relation's tuples;
* the same test against a ``Database`` holding the relation, answered
  from the union of forbidden intervals the relation maintains (built
  by one untimed call first, as a session's first test builds it);
* the generated Fig. 6.1 recursive datalog program on our engine;
* the Theorem 5.2 containment engine (the general-purpose path).

Expected shape: all four agree everywhere; the interval algebra scales
near-linearly (sort + merge), the maintained union costs the inserted
tuple's intervals plus one scan of the union's maximal intervals, the
datalog program pays the quadratic merge rule, the containment engine
pays the mapping/implication machinery per stored tuple.  Every path
performs ZERO remote accesses, unlike the naive full check, whose cost
includes the remote relation (reported for contrast).
"""

import random
import time

from repro.constraints.constraint import Constraint
from repro.datalog.database import Database
from repro.datalog.parser import parse_rule
from repro.localtests.complete import complete_local_test_insertion
from repro.localtests.icq import IntervalLocalTest, analyze_icq, interval_local_test
from repro.localtests.interval_datalog import IntervalDatalogTest

from _tables import print_table

CONSTRAINT = parse_rule("panic :- cleared(X,Y) & motion(Z) & X <= Z & Z <= Y")
LOCAL = "cleared"


def make_relation(n: int, seed: int = 0):
    rng = random.Random(seed)
    relation = []
    for _ in range(n):
        lo = rng.randrange(100 * n)
        relation.append((lo, lo + rng.randrange(1, 60)))
    return relation


def covered_insert(relation, rng):
    lo, hi = rng.choice(relation)
    if hi - lo < 2:
        return (lo, hi)
    a = rng.randrange(lo, hi)
    return (a, rng.randrange(a, hi + 1))


def test_fig61_implementations_race(benchmark):
    analysis = analyze_icq(CONSTRAINT, LOCAL)
    datalog = IntervalDatalogTest(analysis)
    maintained = IntervalLocalTest(analysis)
    rng = random.Random(61)

    rows = []
    for n in (10, 25, 100, 400):
        relation = make_relation(n, seed=n)
        inserts = [covered_insert(relation, rng) for _ in range(5)]
        inserts += [(10**7, 10**7 + 5)]  # one uncovered

        def run(test):
            start = time.perf_counter()
            verdicts = [test(t) for t in inserts]
            return verdicts, (time.perf_counter() - start) / len(inserts)

        algebra, algebra_time = run(
            lambda t: interval_local_test(analysis, t, relation)
        )
        db = Database({LOCAL: relation})
        maintained.passes_in(inserts[0], db)  # builds the union
        union, union_time = run(lambda t: maintained.passes_in(t, db))
        assert union == algebra
        if n <= 10:
            # The generated program's merge rule derives O(n^2) facts:
            # faithful to Fig. 6.1, but not the path to run at scale.
            datalog_verdicts, datalog_time = run(
                lambda t: datalog.passes(t, relation)
            )
            assert datalog_verdicts == algebra
            datalog_ms = f"{datalog_time * 1e3:.2f}"
        else:
            datalog_ms = "— (O(n^2) facts)"
        if n <= 25:
            thm52, thm52_time = run(
                lambda t: complete_local_test_insertion(CONSTRAINT, LOCAL, t, relation)
            )
            assert thm52 == algebra
            thm52_ms = f"{thm52_time * 1e3:.2f}"
        else:
            thm52_ms = "—"
        assert algebra[:-1] == [True] * 5 and algebra[-1] is False
        rows.append(
            (n, f"{algebra_time * 1e3:.2f}", f"{union_time * 1e3:.3f}",
             datalog_ms, thm52_ms)
        )
    print_table(
        "F6.1 — complete local test, ms/insert by |L| (all agree; 0 remote reads)",
        ["|L|", "interval algebra", "maintained union", "Fig. 6.1 datalog",
         "Thm 5.2 engine"],
        rows,
    )

    relation = make_relation(200, seed=7)
    benchmark(interval_local_test, analysis, covered_insert(relation, rng), relation)


def test_fig61_zero_remote_vs_full_check(benchmark):
    """The motivating contrast: the local test reads only L; the naive
    check evaluates the constraint over local + remote data."""
    analysis = analyze_icq(CONSTRAINT, LOCAL)
    constraint = Constraint(CONSTRAINT, "fi")
    rng = random.Random(3)

    rows = []
    for remote_n in (100, 1000, 5000):
        relation = make_relation(100, seed=9)
        readings = []
        while len(readings) < remote_n:
            z = rng.randrange(10**7)
            if not any(lo <= z <= hi for lo, hi in relation):
                readings.append((z,))
        inserted = covered_insert(relation, rng)

        start = time.perf_counter()
        local_ok = interval_local_test(analysis, inserted, relation)
        local_time = time.perf_counter() - start

        full = Database({"cleared": relation + [inserted], "motion": readings})
        start = time.perf_counter()
        full_ok = constraint.holds(full)
        full_time = time.perf_counter() - start

        assert local_ok and full_ok
        rows.append(
            (
                remote_n,
                f"{local_time * 1e3:.3f}",
                f"{full_time * 1e3:.3f}",
                0,
                remote_n,
            )
        )
    print_table(
        "F6.1 contrast — local test vs naive full evaluation",
        ["|remote|", "local test ms", "full check ms",
         "remote tuples read (local)", "remote tuples read (naive)"],
        rows,
    )

    relation = make_relation(100, seed=9)
    benchmark(interval_local_test, analysis, covered_insert(relation, rng), relation)
