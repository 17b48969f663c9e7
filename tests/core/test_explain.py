"""Tests for PartialInfoChecker.explain and transaction processing."""

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.engine import PartialInfoChecker
from repro.distributed.checker import DistributedChecker
from repro.distributed.site import Site, TwoSiteDatabase
from repro.updates.update import Insertion, Modification


class TestExplain:
    def build(self):
        constraints = ConstraintSet(
            [
                Constraint("panic :- emp(E,D,S) & closedDept(D)", "closed"),
                Constraint(
                    "panic :- cleared(X,Y) & reading(Z) & X<=Z & Z<=Y", "intervals"
                ),
                Constraint(
                    "panic :- emp(E,D,S) & salFloor(D,F) & S < F", "floor"
                ),
                Constraint("panic :- emp(E,D,S) & emp(E,D2,S2) & D <> D2", "one-dept"),
                Constraint("panic :- emp(E,D,S) & not dept(D)", "ref"),
                Constraint(
                    """
                    panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low
                    panic :- emp(E,D,S) & salRange(D,Low,High) & S > High
                    """,
                    "range",
                ),
                Constraint("panic :- emp(E,D,S) & S > 100", "cap"),
                Constraint("panic :- emp(E,D,S) & S > 200", "cap2"),
            ]
        )
        return PartialInfoChecker(
            constraints, local_predicates={"emp", "cleared"}
        )

    def test_strategies(self):
        checker = self.build()
        constraints = checker.constraints
        assert checker.explain(constraints["closed"], "emp") == "algebraic"
        assert checker.explain(constraints["intervals"], "cleared") == "interval"
        box = Constraint(
            "panic :- box(A,B,C,D) & r(Z,W) & A<=Z & Z<=B & C<=W & W<=D", "boxed"
        )
        box_checker = PartialInfoChecker([box], local_predicates={"box"})
        assert box_checker.explain(box, "box") == "box"
        assert checker.explain(constraints["floor"], "emp") == "containment"
        assert checker.explain(constraints["one-dept"], "emp") == "purely-local"
        assert checker.explain(constraints["ref"], "emp") == "none"  # negation
        assert checker.explain(constraints["range"], "emp") == "union-containment"
        assert checker.explain(constraints["cap2"], "emp") == "subsumed"
        # a disjunct joining a second local predicate leaves no local test
        mixed = Constraint(
            """
            panic :- l(X) & r(X)
            panic :- l(X) & m(X) & X > 3
            """,
            "mixed",
        )
        mixed_checker = PartialInfoChecker([mixed], local_predicates={"l", "m"})
        assert mixed_checker.compiler.local_test_plan(mixed, "l").kind == "none"
        assert mixed_checker.explain(mixed, "l") == "none"


class TestTransactions:
    def build(self):
        constraint = Constraint(
            "panic :- cleared(X,Y) & reading(Z) & X <= Z & Z <= Y", "fi"
        )
        sites = TwoSiteDatabase(
            local=Site("local", {"cleared": [(0, 10)]}),
            remote=Site("remote", {"reading": [(50,)]}, cost_per_read=1.0),
        )
        return DistributedChecker(ConstraintSet([constraint]), sites)

    def test_commit(self):
        checker = self.build()
        committed, reports = checker.process_transaction(
            [
                Insertion("cleared", (2, 8)),
                Insertion("cleared", (3, 9)),
                Modification("cleared", (2, 8), (4, 6)),
            ]
        )
        assert committed
        assert len(reports) == 3
        facts = checker.sites.local.unmetered().facts("cleared")
        assert (4, 6) in facts and (3, 9) in facts and (2, 8) not in facts

    def test_abort_rolls_back(self):
        checker = self.build()
        before = set(checker.sites.local.unmetered().facts("cleared"))
        committed, reports = checker.process_transaction(
            [
                Insertion("cleared", (2, 8)),        # fine
                Insertion("cleared", (45, 55)),      # covers reading 50: abort
                Insertion("cleared", (3, 9)),        # never reached
            ]
        )
        assert not committed
        assert len(reports) == 2  # processing stopped at the violation
        after = set(checker.sites.local.unmetered().facts("cleared"))
        assert after == before
