"""Modification (replace-tuple) update tests."""

import random

import pytest

from repro.constraints.constraint import Constraint
from repro.core.engine import PartialInfoChecker
from repro.core.outcomes import CheckLevel, Outcome
from repro.datalog.database import Database
from repro.updates.rewrite import rewrite
from repro.updates.update import Deletion, Insertion, Modification, apply_update
from tests.conftest import make_random_database


class TestModificationBasics:
    def test_apply(self):
        db = Database({"emp": [("ann", "toys", 50)]})
        update = Modification("emp", ("ann", "toys", 50), ("ann", "toys", 60))
        update.apply(db)
        assert db.facts("emp") == {("ann", "toys", 60)}

    def test_composition_views(self):
        update = Modification("p", (1,), (2,))
        assert update.deletion == Deletion("p", (1,))
        assert update.insertion == Insertion("p", (2,))

    def test_inverted_round_trip(self):
        db = Database({"p": [(1,)]})
        update = Modification("p", (1,), (2,))
        back = apply_update(apply_update(db, update), update.inverted())
        assert back == db

    def test_str(self):
        assert "->" in str(Modification("p", (1,), (2,)))


class TestModificationRewrite:
    @pytest.mark.parametrize("style", ["auto", "rules", "arith"])
    def test_semantic_contract(self, style):
        constraint = Constraint("panic :- emp(E,D,S) & S > 100", "cap")
        update = Modification("emp", (0, 1, 50), (0, 1, 150))
        rewritten = rewrite(constraint, update, style)
        rng = random.Random(99)
        for _ in range(60):
            db = make_random_database(rng, {"emp": 3}, domain_size=3, max_facts=8)
            if rng.random() < 0.5:
                db.insert("emp", (0, 1, 50))
            assert rewritten.is_violated(db) == constraint.is_violated(
                apply_update(db, update)
            )

    def test_negated_constraint(self):
        constraint = Constraint("panic :- emp(E,D) & not dept(D)", "ref")
        update = Modification("dept", ("toys",), ("games",))
        rewritten = rewrite(constraint, update, "rules")
        rng = random.Random(5)
        for _ in range(60):
            db = make_random_database(rng, {"emp": 2, "dept": 1}, domain_size=3)
            if rng.random() < 0.4:
                db.insert("dept", ("toys",))
            assert rewritten.is_violated(db) == constraint.is_violated(
                apply_update(db, update)
            )


class TestModificationLocalTest:
    """The deleted tuple's reduction still counts: the constraint held
    while it was stored."""

    FLOOR = Constraint("panic :- emp(E,D,S) & salFloor(D,F) & S < F", "floor")

    def checker(self):
        return PartialInfoChecker([self.FLOOR], local_predicates={"emp"})

    def test_raise_is_locally_safe(self):
        """Raising ann's salary: the OLD tuple covers the new one."""
        local = Database({"emp": [("ann", "toys", 50)]})
        update = Modification("emp", ("ann", "toys", 50), ("ann", "toys", 60))
        report = self.checker().check_constraint(self.FLOOR, update, local)
        assert report.outcome is Outcome.SATISFIED
        assert report.level is CheckLevel.WITH_LOCAL_DATA

    def test_pay_cut_is_unknown(self):
        local = Database({"emp": [("ann", "toys", 50)]})
        update = Modification("emp", ("ann", "toys", 50), ("ann", "toys", 40))
        report = self.checker().check_constraint(
            self.FLOOR, update, local, max_level=CheckLevel.WITH_LOCAL_DATA
        )
        assert report.outcome is Outcome.UNKNOWN

    def test_using_old_tuple_is_sound(self):
        """Exhaustive check of the subtle point: testing the new tuple
        against the FULL relation (old tuple included) is still sound."""
        constraint = self.FLOOR
        checker = self.checker()
        rng = random.Random(3)
        for _ in range(30):
            salary_old = rng.randrange(5)
            salary_new = rng.randrange(5)
            local = Database({"emp": [("ann", "d0", salary_old)]})
            update = Modification(
                "emp", ("ann", "d0", salary_old), ("ann", "d0", salary_new)
            )
            report = checker.check_constraint(
                constraint, update, local, max_level=CheckLevel.WITH_LOCAL_DATA
            )
            if report.outcome is not Outcome.SATISFIED:
                continue
            for floor in range(6):
                db = Database(
                    {"emp": [("ann", "d0", salary_old)], "salFloor": [("d0", floor)]}
                )
                if not constraint.holds(db):
                    continue
                update.apply(db)
                assert constraint.holds(db), (salary_old, salary_new, floor)


class TestModificationInProtocol:
    def test_distributed_checker_applies_modifications(self):
        from repro.constraints.constraint import ConstraintSet
        from repro.distributed.sharded import ShardedChecker
        from repro.distributed.site import FederatedDatabase, Site

        constraint = Constraint(
            "panic :- cleared(X,Y) & reading(Z) & X <= Z & Z <= Y", "fi"
        )
        sites = FederatedDatabase(
            local=Site("local", {"cleared": [(3, 10)]}),
            remotes=[Site("remote", {"reading": [(100,)]}, cost_per_read=1.0)],
        )
        checker = ShardedChecker(ConstraintSet([constraint]), sites, shards=1)
        # Shrinking an interval is locally safe (old interval covers new).
        reports = checker.process(Modification("cleared", (3, 10), (4, 8)))
        assert all(r.outcome is Outcome.SATISFIED for r in reports)
        assert checker.stats.remote_round_trips == 0
        assert sites.local.unmetered().facts("cleared") == {(4, 8)}
