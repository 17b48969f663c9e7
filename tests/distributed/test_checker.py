"""Distributed protocol tests: escalation, accounting, enforcement.

The serial checker is the one-shard :class:`ShardedChecker`.
"""

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.outcomes import CheckLevel, Outcome
from repro.distributed.sharded import ShardedChecker
from repro.distributed.site import FederatedDatabase, Site
from repro.updates.update import Insertion


def build_checker(readings=((100,),), intervals=((3, 6),)):
    constraint = Constraint(
        "panic :- cleared(X,Y) & reading(Z) & X <= Z & Z <= Y", "no-reading"
    )
    sites = FederatedDatabase(
        local=Site("local", {"cleared": list(intervals)}),
        remotes=[
            Site("remote", {"reading": list(readings)}, cost_per_read=1.0)
        ],
    )
    return ShardedChecker(ConstraintSet([constraint]), sites, shards=1)


class TestProtocol:
    def test_covered_insert_stays_local(self):
        checker = build_checker()
        reports = checker.process(Insertion("cleared", (4, 5)))
        assert all(r.outcome is Outcome.SATISFIED for r in reports)
        assert checker.sites.remotes["remote"].stats.reads == 0
        assert checker.stats.remote_round_trips == 0
        assert checker.stats.resolved_at_level[CheckLevel.WITH_LOCAL_DATA] == 1

    def test_uncovered_insert_escalates(self):
        checker = build_checker(readings=[(100,)])
        reports = checker.process(Insertion("cleared", (40, 50)))
        assert all(r.outcome is Outcome.SATISFIED for r in reports)
        assert checker.stats.remote_round_trips == 1
        assert checker.stats.resolved_at_level[CheckLevel.FULL_DATABASE] == 1

    def test_violating_insert_rejected(self):
        checker = build_checker(readings=[(45,)])
        reports = checker.process(Insertion("cleared", (40, 50)))
        assert any(r.outcome is Outcome.VIOLATED for r in reports)
        assert checker.stats.rejected == 1
        # The rejected tuple must not be applied.
        assert (40, 50) not in checker.sites.local.unmetered().facts("cleared")

    def test_safe_insert_applied(self):
        checker = build_checker()
        checker.process(Insertion("cleared", (4, 5)))
        assert (4, 5) in checker.sites.local.unmetered().facts("cleared")

    def test_apply_when_safe_false_leaves_db(self):
        checker = build_checker()
        checker.sessions[0].check(
            Insertion("cleared", (4, 5)), remote=checker.remote_source
        )
        assert (4, 5) not in checker.sites.local.unmetered().facts("cleared")

    def test_stats_accumulate(self):
        checker = build_checker()
        checker.process(Insertion("cleared", (4, 5)))     # local
        checker.process(Insertion("cleared", (40, 50)))   # remote
        checker.process(Insertion("cleared", (41, 49)))   # local again (covered)
        assert checker.stats.updates == 3
        assert checker.stats.resolved_locally == 2
        assert checker.stats.remote_round_trips == 1
        assert 0 < checker.stats.local_resolution_rate < 1

    def test_invariant_maintained_across_stream(self):
        checker = build_checker(readings=[(45,), (200,)])
        constraint = checker.constraints[0]
        stream = [
            Insertion("cleared", (4, 5)),
            Insertion("cleared", (40, 50)),   # would cover reading 45: reject
            Insertion("cleared", (60, 70)),   # fine
            Insertion("cleared", (61, 69)),   # covered locally
            Insertion("cleared", (199, 201)),  # would cover reading 200: reject
        ]
        for update in stream:
            checker.process(update)
            assert constraint.holds(checker.sites.ground_truth_database())
        assert checker.stats.rejected == 2

    def test_deletion_resolves_at_level_one(self):
        """Deleting a local tuple cannot violate the monotone interval
        constraint: the Section 4 analysis settles it with no data."""
        from repro.updates.update import Deletion
        from repro.core.outcomes import CheckLevel

        checker = build_checker()
        reports = checker.process(Deletion("cleared", (3, 6)))
        assert all(r.outcome is Outcome.SATISFIED for r in reports)
        assert all(r.level <= CheckLevel.WITH_UPDATE for r in reports)
        assert (3, 6) not in checker.sites.local.unmetered().facts("cleared")
        assert checker.stats.remote_round_trips == 0

    def test_summary_rows_shape(self):
        checker = build_checker()
        checker.process(Insertion("cleared", (4, 5)))
        rows = dict(checker.stats.summary_rows())
        assert rows["updates"] == 1
        assert rows["remote round trips"] == 0
        assert rows["local resolution rate"] == 1.0
