"""Distributed transactions over metered sites, through the one-shard
checker."""

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.outcomes import Outcome
from repro.distributed.sharded import ShardedChecker
from repro.distributed.site import FederatedDatabase, Site
from repro.updates.update import Deletion, Insertion


def site_snapshot(site: Site) -> dict:
    # Non-empty relations only, as Database equality compares: checking
    # a rejected insert applies and undoes it, which can leave an empty
    # relation behind.
    db = site.unmetered()
    return {pred: db.facts(pred) for pred in db.predicates() if db.facts(pred)}


def build(apply_on_unknown: bool = True) -> ShardedChecker:
    sites = FederatedDatabase(
        local=Site("local", {"p": [(1,)], "q": []}, cost_per_read=1.0),
        remotes=[Site("remote", {"r": [(9,)]}, cost_per_read=1.0)],
        local_predicates={"p", "q"},
    )
    constraints = ConstraintSet([Constraint("panic :- q(X)", "no-q")])
    return ShardedChecker(
        constraints, sites, shards=1, apply_on_unknown=apply_on_unknown
    )


class TestProcessTransaction:
    def test_commit(self):
        checker = build()
        committed, _ = checker.process_transaction([Insertion("p", (2,))])
        assert committed
        assert checker.sites.local.unmetered().facts("p") == {(1,), (2,)}
        assert checker.stats.transactions == 1
        assert checker.stats.transactions_rolled_back == 0

    def test_abort_after_redundant_insert_preserves_preexisting_fact(self):
        """The ISSUE repro: transaction [+p(1), +q(5)] against a local db
        already containing p(1), aborted by ``panic :- q(X)``, must leave
        the local site byte-identical — not delete p(1)."""
        checker = build()
        before = site_snapshot(checker.sites.local)
        committed, reports = checker.process_transaction(
            [Insertion("p", (1,)), Insertion("q", (5,))]
        )
        assert not committed
        assert any(r.outcome is Outcome.VIOLATED for r in reports[-1])
        assert site_snapshot(checker.sites.local) == before
        assert checker.sites.local.unmetered().facts("p") == {(1,)}

    def test_abort_rolls_back_effective_changes_only(self):
        checker = build()
        before = site_snapshot(checker.sites.local)
        committed, _ = checker.process_transaction(
            [
                Insertion("p", (2,)),       # effective
                Insertion("p", (1,)),       # redundant
                Deletion("p", (7,)),        # absent: redundant
                Insertion("q", (5,)),       # violates → abort
            ]
        )
        assert not committed
        assert site_snapshot(checker.sites.local) == before

    def test_rollback_keeps_stream_materializations_current(self):
        checker = build()
        # Prime the stream session so a materialization is being maintained.
        checker.check_stream([Insertion("p", (2,))])
        committed, _ = checker.process_transaction(
            [Insertion("p", (3,)), Insertion("q", (5,))]
        )
        assert not committed
        # A post-rollback stream check over q still fires correctly.
        reports = checker.check_stream([Insertion("q", (6,))])[0]
        assert any(r.outcome is Outcome.VIOLATED for r in reports)
        assert checker.sites.local.unmetered().facts("q") == frozenset()

    def test_pessimistic_policy_reaches_the_session(self):
        sites = FederatedDatabase(
            local=Site("local", {"p": [(1,)]}),
            remotes=[Site("remote", {})],
            local_predicates={"p"},
        )
        constraints = ConstraintSet([Constraint("panic :- p(X) & s(X)", "no-ps")])
        checker = ShardedChecker(
            constraints, sites, shards=1, apply_on_unknown=False
        )
        assert checker.sessions[0].apply_on_unknown is False


class TestEffectiveWrites:
    def test_noop_writes_not_metered(self):
        site = Site("local", {"p": [(1,)]})
        assert site.insert("p", (1,)) is False
        assert site.delete("p", (9,)) is False
        assert site.stats.writes == 0
        assert site.insert("p", (2,)) is True
        assert site.delete("p", (1,)) is True
        assert site.stats.writes == 2
