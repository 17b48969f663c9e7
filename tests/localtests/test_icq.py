"""ICQ analysis, forbidden intervals/boxes, coverage tests (Section 6)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NotApplicableError
from repro.arith.intervals import Interval
from repro.arith.order import NEG_INF, POS_INF
from repro.constraints.constraint import Constraint
from repro.core.compiler import ConstraintCompiler
from repro.datalog.database import Database, Delta
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.terms import Variable
from repro.localtests import icq
from repro.localtests.complete import complete_local_test_insertion
from repro.localtests.icq import (
    analyze_icq,
    box_local_test,
    boxes_cover,
    forbidden_interval,
    forbidden_intervals,
    interval_local_test,
    is_icq,
)

Z = Variable("Z")


class TestICQDetection:
    def test_example_61_is_icq(self, forbidden_intervals_cqc):
        assert is_icq(forbidden_intervals_cqc, "l")

    def test_single_remote_variable_always_icq(self):
        """'In fact, every CQC with at most one remote variable is an ICQ.'"""
        rule = parse_rule("panic :- l(X,Y) & r(Z) & X<Z & Z<>Y & Z<=10")
        assert is_icq(rule, "l")

    def test_two_remote_variables_in_order_comparison(self):
        rule = parse_rule("panic :- l(X) & r(Z,W) & Z < W")
        assert not is_icq(rule, "l")

    def test_remote_equality_is_allowed(self):
        # Equalities between remote variables are substituted away.
        rule = parse_rule("panic :- l(X) & r(Z,W) & Z = W & X <= Z")
        assert is_icq(rule, "l")

    def test_analysis_rejects_non_icq(self):
        rule = parse_rule("panic :- l(X) & r(Z,W) & Z < W")
        with pytest.raises(NotApplicableError):
            analyze_icq(rule, "l")


class TestAnalysis:
    def test_bounds_extracted(self, forbidden_intervals_cqc):
        analysis = analyze_icq(forbidden_intervals_cqc, "l")
        assert analysis.single_variable == Z
        variant = analysis.variants[0]
        assert len(variant.lower[Z]) == 1 and variant.lower[Z][0].closed
        assert len(variant.upper[Z]) == 1 and variant.upper[Z][0].closed

    def test_strict_bounds(self):
        rule = parse_rule("panic :- l(X,Y) & r(Z) & X<Z & Z<Y")
        variant = analyze_icq(rule, "l").variants[0]
        assert not variant.lower[Z][0].closed
        assert not variant.upper[Z][0].closed

    def test_disequality_split_doubles_variants(self):
        rule = parse_rule("panic :- l(X) & r(Z) & Z <> X")
        analysis = analyze_icq(rule, "l")
        assert len(analysis.variants) == 2

    def test_local_guards_kept(self):
        rule = parse_rule("panic :- l(X,Y) & r(Z) & X<=Z & X < Y")
        variant = analyze_icq(rule, "l").variants[0]
        assert len(variant.guards) == 1

    def test_remote_equality_substitution(self):
        rule = parse_rule("panic :- l(X) & r(Z) & Z = 5")
        analysis = analyze_icq(rule, "l")
        # Z was substituted by 5: no constrained remote variable remains.
        assert analysis.single_variable is None


class TestForbiddenInterval:
    def test_example_61_intervals(self, forbidden_intervals_cqc):
        analysis = analyze_icq(forbidden_intervals_cqc, "l")
        variant = analysis.variants[0]
        assert forbidden_interval(variant, Z, (3, 6)) == Interval.closed(3, 6)
        assert forbidden_interval(variant, Z, (6, 3)) is None  # empty

    def test_strictness_respected(self):
        rule = parse_rule("panic :- l(X,Y) & r(Z) & X<Z & Z<=Y")
        variant = analyze_icq(rule, "l").variants[0]
        interval = forbidden_interval(variant, Z, (3, 6))
        assert interval == Interval(3, False, 6, True)

    def test_rays_for_one_sided_bounds(self):
        rule = parse_rule("panic :- l(X) & r(Z) & X<=Z")
        variant = analyze_icq(rule, "l").variants[0]
        interval = forbidden_interval(variant, Z, (4,))
        assert interval.lo == 4 and interval.hi is POS_INF

    def test_tightest_bound_wins_with_open_tie(self):
        rule = parse_rule("panic :- l(X,Y) & r(Z) & X<=Z & Y<Z & Z<=9")
        variant = analyze_icq(rule, "l").variants[0]
        # Lower bounds X (closed) and Y (open); at X == Y the open wins.
        interval = forbidden_interval(variant, Z, (5, 5))
        assert interval == Interval(5, False, 9, True)

    def test_guard_filters_tuples(self):
        rule = parse_rule("panic :- l(X,Y) & r(Z) & X<=Z & Z<=Y & X < Y")
        variant = analyze_icq(rule, "l").variants[0]
        assert forbidden_interval(variant, Z, (5, 5)) is None  # guard X<Y fails

    def test_union_over_relation(self, forbidden_intervals_cqc):
        analysis = analyze_icq(forbidden_intervals_cqc, "l")
        union = forbidden_intervals(analysis, Z, [(3, 6), (5, 10), (20, 1)])
        assert union.members == (Interval.closed(3, 10),)


class TestIntervalLocalTest:
    def test_example_53(self, forbidden_intervals_cqc):
        analysis = analyze_icq(forbidden_intervals_cqc, "l")
        assert interval_local_test(analysis, (4, 8), [(3, 6), (5, 10)])
        assert not interval_local_test(analysis, (4, 8), [(3, 6)])

    def test_chain_coverage_needs_recursion(self, forbidden_intervals_cqc):
        """The Section 6 inexpressibility argument: k+1 tuples needed to
        cover the inserted tuple — any k is possible."""
        analysis = analyze_icq(forbidden_intervals_cqc, "l")
        for k in (2, 5, 9):
            chain = [(i, i + 1) for i in range(k + 1)]
            assert interval_local_test(analysis, (0, k + 1), chain)
            # Remove a middle link: coverage breaks.
            broken = chain[: k // 2] + chain[k // 2 + 1:]
            assert not interval_local_test(analysis, (0, k + 1), broken)

    def test_against_theorem_52_with_open_bounds(self):
        rule = parse_rule("panic :- l(X,Y) & r(Z) & X<Z & Z<Y")
        analysis = analyze_icq(rule, "l")
        rng = random.Random(4)
        for _ in range(150):
            relation = [
                (rng.randrange(8), rng.randrange(8)) for _ in range(rng.randrange(5))
            ]
            inserted = (rng.randrange(8), rng.randrange(8))
            fast = interval_local_test(analysis, inserted, relation)
            reference = complete_local_test_insertion(rule, "l", inserted, relation)
            assert fast == reference, (inserted, relation)

    def test_against_theorem_52_with_disequality(self):
        rule = parse_rule("panic :- l(X,Y) & r(Z) & X<=Z & Z<=Y & Z <> 3")
        analysis = analyze_icq(rule, "l")
        rng = random.Random(11)
        for _ in range(120):
            relation = [
                (rng.randrange(6), rng.randrange(6)) for _ in range(rng.randrange(4))
            ]
            inserted = (rng.randrange(6), rng.randrange(6))
            fast = interval_local_test(analysis, inserted, relation)
            reference = complete_local_test_insertion(rule, "l", inserted, relation)
            assert fast == reference, (inserted, relation)

    def test_multi_variable_rejected(self):
        rule = parse_rule(
            "panic :- l(A,B,C,D) & r(Z,W) & A<=Z & Z<=B & C<=W & W<=D"
        )
        analysis = analyze_icq(rule, "l")
        with pytest.raises(NotApplicableError):
            interval_local_test(analysis, (0, 1, 0, 1), [])


class TestBoxCoverage:
    def box(self, *bounds):
        return [Interval.closed(lo, hi) for lo, hi in bounds]

    def test_single_box_cover(self):
        assert boxes_cover(self.box((2, 3), (2, 3)), [self.box((0, 5), (1, 4))])

    def test_l_shaped_union_covers(self):
        query = self.box((0, 2), (0, 2))
        cover = [self.box((0, 2), (0, 1)), self.box((0, 1), (0, 2)), self.box((1, 2), (1, 2))]
        assert boxes_cover(query, cover)

    def test_l_shape_with_hole(self):
        query = self.box((0, 2), (0, 2))
        cover = [self.box((0, 2), (0, 1)), self.box((0, 1), (0, 2))]
        assert not boxes_cover(query, cover)  # corner (1,2]x(1,2] uncovered

    def test_empty_query_always_covered(self):
        assert boxes_cover([Interval(3, True, 1, True)], [])

    def test_zero_dimensional(self):
        assert boxes_cover([], [[]])
        assert not boxes_cover([], [])

    def test_open_seam_leaks(self):
        query = self.box((0, 2))
        left = [Interval(0, True, 1, False)]
        right = [Interval(1, False, 2, True)]
        assert not boxes_cover(query, [left, right])
        closed_right = [Interval(1, True, 2, True)]
        assert boxes_cover(query, [left, closed_right])

    def test_infinite_boxes(self):
        query = [Interval.everything(), Interval.closed(0, 1)]
        cover = [
            [Interval.at_most(5), Interval.closed(-1, 2)],
            [Interval.at_least(5, closed=False), Interval.closed(0, 1)],
        ]
        assert boxes_cover(query, cover)

    def test_box_local_test_against_theorem_52(self):
        rule = parse_rule(
            "panic :- l(A,B,C,D) & r(Z,W) & A<=Z & Z<=B & C<=W & W<=D"
        )
        analysis = analyze_icq(rule, "l")
        rng = random.Random(7)
        for _ in range(80):
            relation = [
                tuple(rng.randrange(6) for _ in range(4))
                for _ in range(rng.randrange(4))
            ]
            inserted = tuple(rng.randrange(6) for _ in range(4))
            fast = box_local_test(analysis, inserted, relation)
            reference = complete_local_test_insertion(rule, "l", inserted, relation)
            assert fast == reference, (inserted, relation)


# -- the maintained interval union ----------------------------------------------

#: single-variable ICQs over l(X, Y) and a remote r(Z)
MAINTAINED_SHAPES = [
    "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y",  # Example 6.1
    "panic :- l(X,Y) & r(Z) & X < Z & Z < Y",
    "panic :- l(X,Y) & r(Z) & X < Z & Z <= Y",
    "panic :- l(X,Y) & r(Z) & X <= Z & Z < 2",  # a constant bound
    "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y & Z <> 1",  # two variants
    "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y & X < 2",  # a local guard
    "panic :- l(X,Y) & r(Z) & Y > Z",  # the V > C ray down to NEG_INF
    "panic :- l(X,Y) & r(Z) & X <= Z",  # a ray up to POS_INF
]
#: 1, 1.0 and True are one value; "1" is another
MIXED = (0, 1, 1.0, True, 2, "1", "a")


def interval_plan(source: str):
    constraint = Constraint(parse_program(source), "c")
    plan = ConstraintCompiler([constraint], {"l"}).local_test_plan(constraint, "l")
    assert plan.kind == "interval"
    return plan


class TestMaintainedUnion:
    """``plan.run_against`` answers from the union the live relation
    maintains; it must equal :func:`interval_local_test` over the
    relation's tuples after every kind of mutation."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_tuple_list_test(self, data):
        shapes = data.draw(
            st.lists(st.sampled_from(MAINTAINED_SHAPES), min_size=1, max_size=2,
                     unique=True)
        )
        plans = [interval_plan(shape) for shape in shapes]
        row = st.tuples(st.sampled_from(MIXED), st.sampled_from(MIXED))
        probes = data.draw(st.lists(row, min_size=1, max_size=4))
        dbs = [Database({"l": data.draw(st.lists(row, max_size=6))})]

        def check(step):
            for db in dbs:
                for plan in plans:
                    for probe in probes:
                        expected = interval_local_test(
                            plan.analysis, probe, db.facts("l")
                        )
                        assert plan.run_against(probe, db) == expected, (
                            plan.rule, probe, sorted(db.facts("l"), key=repr), step
                        )

        def stored_or_new(db):
            stored = sorted(db.facts("l"), key=repr)
            return data.draw(st.sampled_from(stored) if stored else row)

        if data.draw(st.booleans()):
            check("start")  # else the first step may copy before any build
        for _ in range(data.draw(st.integers(1, 12))):
            db = dbs[data.draw(st.integers(0, len(dbs) - 1))]
            step = data.draw(
                st.sampled_from(["insert", "delete", "modify", "undo", "copy"])
            )
            if step == "insert":
                db.insert("l", data.draw(row))
            elif step == "delete":
                db.delete("l", stored_or_new(db))
            elif step == "modify":
                db.apply(Delta({"l": [data.draw(row)]}, {"l": [stored_or_new(db)]}))
            elif step == "undo":
                delta = Delta()
                for _ in range(data.draw(st.integers(1, 3))):
                    if data.draw(st.booleans()):
                        delta.insert("l", data.draw(row))
                    else:
                        delta.delete("l", stored_or_new(db))
                token = db.apply(delta)
                check("applied")
                db.undo(token)
            elif len(dbs) < 3:
                dbs.append(db.copy())
            check(step)

    def test_deleting_one_of_two_equal_intervals_keeps_the_point_covered(self):
        # the ray V > C forbids (-inf, 5) for both tuples
        plan = interval_plan("panic :- l(X,Y) & r(Z) & Y > Z")
        db = Database({"l": [(0, 5), (1, 5)]})
        assert plan.run_against(("k", 4), db)
        db.delete("l", (0, 5))
        assert plan.run_against(("k", 4), db)
        db.delete("l", (1, 5))
        assert not plan.run_against(("k", 4), db)

    def test_open_ends_meeting_at_a_point_leave_it_uncovered(self):
        plan = interval_plan("panic :- l(X,Y) & r(Z) & X < Z & Z <= Y")
        db = Database({"l": [(0, 1), (2, 3)]})
        assert not plan.run_against((0, 3), db)  # (0,1] u (2,3] misses (1,2]
        db.insert("l", (1, 2))  # (1,2] closes the gap
        assert plan.run_against((0, 3), db)
        db.delete("l", (1, 2))
        assert not plan.run_against((0, 3), db)

    def test_copies_share_the_union_until_one_side_mutates(self):
        plan = interval_plan("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y")
        db = Database({"l": [(0, 2), (2, 4)]})
        assert plan.run_against((1, 3), db)
        snapshot = db.copy()
        db.delete("l", (2, 4))
        assert not plan.run_against((1, 3), db)
        assert plan.run_against((1, 3), snapshot)
        snapshot.insert("l", (4, 6))
        assert plan.run_against((1, 5), snapshot)
        assert not plan.run_against((1, 5), db)

    def test_a_value_outside_the_order_leaves_the_relation_unchanged(self):
        plan = interval_plan("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y")
        db = Database({"l": [(0, 2)]})
        assert plan.run_against((1, 2), db)
        with pytest.raises(TypeError):
            db.insert("l", (1, None))
        assert db.facts("l") == {(0, 2)}
        assert plan.run_against((1, 2), db)
        assert not plan.run_against((1, 3), db)

    @pytest.mark.parametrize(
        "source",
        [
            "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y",
            "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y & Z <> 1",
        ],
    )
    def test_a_test_computes_only_the_inserted_tuples_intervals(
        self, monkeypatch, source
    ):
        plan = interval_plan(source)
        variants = len(plan.analysis.variants)
        db = Database({"l": [(i, i + 3) for i in range(1000)]})
        assert plan.run_against((5, 7), db)  # builds the union: 1,000 rows
        calls = []

        def counting(variant, variable, values):
            calls.append(values)
            return forbidden_interval(variant, variable, values)

        monkeypatch.setattr(icq, "forbidden_interval", counting)
        assert plan.run_against((5, 7), db)
        assert len(calls) == variants
        db.insert("l", (2000, 2001))  # the new row's intervals only
        assert len(calls) == 2 * variants
        db.delete("l", (0, 3))  # its interval leaves: the union is rebuilt
        assert plan.run_against((1, 3), db)  # from distinct intervals
        assert len(calls) == 4 * variants
