"""Deferred-verdict tests: degradation, resolution, and equivalence.

The fault-tolerance contract: when the remote is unreachable an
escalating update degrades to DEFERRED instead of crashing, is queued,
and :meth:`resolve_pending` later settles it — under the pessimistic
policy to exactly the verdicts and local state of a fault-free run.
"""

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.outcomes import CheckLevel, Outcome
from repro.core.session import CheckSession
from repro.core.compiler import ConstraintCompiler
from repro.datalog.database import Database
from repro.distributed.faults import FaultModel, UnreliableRemote
from repro.distributed.remote import BreakerState, FetchPolicy, RemoteLink
from repro.distributed.sharded import ShardedChecker
from repro.distributed.site import FederatedDatabase, Site
from repro.distributed.workload import employee_workload
from repro.errors import RemoteUnavailableError
from repro.updates.update import Insertion


CONSTRAINTS = ConstraintSet(
    [
        Constraint("panic :- emp(E,D,S) & closedDept(D)", "no-closed-dept"),
        Constraint("panic :- emp(E,D,S) & salFloor(D,F) & S < F", "salary-floor"),
    ]
)


def build_sites():
    return FederatedDatabase(
        local=Site("local", {"emp": [("ann", "toys", 50)]}),
        remotes=[
            Site(
                "remote",
                {"closedDept": [("mines",)], "salFloor": [("toys", 40), ("mines", 10)]},
            )
        ],
    )


def build_checker(apply_on_unknown=True, down=True, **policy_kwargs):
    """A checker over an unreliable remote; ``link.remote.faults`` can be
    swapped to a clean FaultModel to heal the link mid-test."""
    sites = build_sites()
    faults = FaultModel(failure_rate=1.0 if down else 0.0)
    policy_kwargs.setdefault("max_attempts", 2)
    policy_kwargs.setdefault("failure_threshold", 4)
    policy_kwargs.setdefault("cooldown_fetches", 1)
    link = RemoteLink(
        UnreliableRemote(sites.remotes["remote"], faults),
        FetchPolicy(**policy_kwargs),
    )
    checker = ShardedChecker(
        CONSTRAINTS, sites, shards=1, apply_on_unknown=apply_on_unknown,
        remote_links={"remote": link},
    )
    return checker, link


def heal(link):
    link.remote.faults = FaultModel()


def drain(checker, rounds=50):
    settled = []
    for _ in range(rounds):
        if not checker.pending_count:
            break
        settled.extend(checker.resolve_pending())
    return settled


# An insertion the local Theorem 5.2 test cannot resolve: a new
# department, so no colleague witnesses safety.
ESCALATES_SAFE = Insertion("emp", ("bob", "books", 90))
ESCALATES_VIOLATING = Insertion("emp", ("eve", "mines", 90))
LOCAL_SAFE = Insertion("emp", ("carl", "toys", 55))


class TestSessionDeferral:
    def build_session(self, apply_on_unknown=True):
        compiler = ConstraintCompiler(CONSTRAINTS, local_predicates={"emp"})
        db = Database()
        db.insert("emp", ("ann", "toys", 50))
        return CheckSession(
            compiler=compiler, local_db=db, apply_on_unknown=apply_on_unknown
        )

    def down(self, predicates=None):
        raise RemoteUnavailableError("scripted outage")

    def remote_db(self):
        db = Database()
        db.insert("closedDept", ("mines",))
        db.insert("salFloor", ("toys", 40))
        db.insert("salFloor", ("mines", 10))
        return db

    def test_optimistic_defer_applies_and_queues(self):
        session = self.build_session()
        reports = session.process(ESCALATES_SAFE, remote=self.down)
        assert any(r.outcome is Outcome.DEFERRED for r in reports)
        assert ESCALATES_SAFE.values in session.local_db.facts("emp")
        assert session.pending_count == 1
        assert session.pending[0].applied
        assert session.stats.deferred_remote == 1

    def test_pessimistic_defer_holds_and_queues(self):
        session = self.build_session(apply_on_unknown=False)
        reports = session.process(ESCALATES_SAFE, remote=self.down)
        assert any(r.outcome is Outcome.DEFERRED for r in reports)
        assert ESCALATES_SAFE.values not in session.local_db.facts("emp")
        assert session.pending_count == 1
        assert not session.pending[0].applied

    def test_resolution_settles_safe_update(self):
        for optimistic in (True, False):
            session = self.build_session(apply_on_unknown=optimistic)
            session.process(ESCALATES_SAFE, remote=self.down)
            settled = session.resolve_pending(self.remote_db())
            assert len(settled) == 1
            assert all(
                r.outcome is Outcome.SATISFIED
                for r in settled[0].reports.values()
            )
            assert ESCALATES_SAFE.values in session.local_db.facts("emp")
            assert session.pending_count == 0
            assert session.stats.deferred_resolved == 1

    def test_optimistic_violation_rolled_back_exactly(self):
        session = self.build_session()
        session.process(ESCALATES_VIOLATING, remote=self.down)
        assert ESCALATES_VIOLATING.values in session.local_db.facts("emp")
        settled = session.resolve_pending(self.remote_db())
        assert any(
            r.outcome is Outcome.VIOLATED for r in settled[0].reports.values()
        )
        assert ESCALATES_VIOLATING.values not in session.local_db.facts("emp")
        assert session.stats.deferred_rolled_back == 1
        assert set(session.local_db.facts("emp")) == {("ann", "toys", 50)}

    def test_bad_unverified_fact_does_not_implicate_later_entry(self):
        """The quarantine: entry 1's unverified violating fact must not
        poison entry 2's global level-3 re-check."""
        session = self.build_session()
        session.process(ESCALATES_VIOLATING, remote=self.down)
        session.process(ESCALATES_SAFE, remote=self.down)
        settled = session.resolve_pending(self.remote_db())
        assert len(settled) == 2
        first, second = settled
        assert any(r.outcome is Outcome.VIOLATED for r in first.reports.values())
        assert all(
            r.outcome is Outcome.SATISFIED for r in second.reports.values()
        )
        assert ESCALATES_SAFE.values in session.local_db.facts("emp")
        assert ESCALATES_VIOLATING.values not in session.local_db.facts("emp")

    def test_failed_drain_leaves_state_and_queue_intact(self):
        session = self.build_session()
        session.process(ESCALATES_SAFE, remote=self.down)
        before = set(session.local_db.facts("emp"))
        assert session.resolve_pending(self.down) == []
        assert session.pending_count == 1
        # The quarantine reversal was redone: optimistic facts are back.
        assert set(session.local_db.facts("emp")) == before

    def test_transaction_aborts_on_deferred(self):
        session = self.build_session()
        committed, reports = session.process_transaction(
            [LOCAL_SAFE, ESCALATES_SAFE], remote=self.down
        )
        assert not committed
        assert any(
            r.outcome is Outcome.DEFERRED for r in reports[-1]
        )
        # Nothing queued, nothing left applied.
        assert session.pending_count == 0
        assert set(session.local_db.facts("emp")) == {("ann", "toys", 50)}


class TestCheckerDeferral:
    def test_process_defers_and_resolves(self):
        checker, link = build_checker()
        reports = checker.process(ESCALATES_SAFE)
        assert any(r.outcome is Outcome.DEFERRED for r in reports)
        assert checker.pending_count == 1
        assert checker.stats.deferred_remote == 1
        # Not yet attributed to any level.
        assert sum(checker.stats.resolved_at_level.values()) == 0
        heal(link)
        settled = drain(checker)
        assert len(settled) == 1
        update, final = settled[0]
        assert update is ESCALATES_SAFE
        assert all(r.outcome is Outcome.SATISFIED for r in final)
        assert checker.stats.deferred_resolved == 1
        assert sum(checker.stats.resolved_at_level.values()) == 1

    def test_breaker_opens_and_recloses(self):
        checker, link = build_checker(failure_threshold=2, cooldown_fetches=1)
        checker.process(ESCALATES_SAFE)
        assert link.state is BreakerState.OPEN
        assert checker.stats.breaker_opens >= 1
        heal(link)
        drain(checker)
        assert link.state is BreakerState.CLOSED
        assert checker.stats.breaker_closes >= 1
        assert checker.pending_count == 0

    def test_optimistic_violation_rolled_back(self):
        checker, link = build_checker()
        checker.process(ESCALATES_VIOLATING)
        local = checker.sites.local.unmetered()
        assert ESCALATES_VIOLATING.values in local.facts("emp")
        heal(link)
        settled = drain(checker)
        assert any(
            r.outcome is Outcome.VIOLATED for r in settled[0][1]
        )
        assert ESCALATES_VIOLATING.values not in local.facts("emp")
        assert checker.stats.deferred_rolled_back == 1
        assert checker.stats.rejected == 1

    def test_pessimistic_check_stream_end_to_end(self):
        """apply_on_unknown=False through check_stream: deferred updates
        are withheld, then settle to the fault-free outcome."""
        checker, link = build_checker(apply_on_unknown=False)
        results = checker.check_stream(
            [LOCAL_SAFE, ESCALATES_SAFE, ESCALATES_VIOLATING]
        )
        local = checker.sites.local.unmetered()
        assert LOCAL_SAFE.values in local.facts("emp")
        assert ESCALATES_SAFE.values not in local.facts("emp")
        assert ESCALATES_VIOLATING.values not in local.facts("emp")
        assert checker.pending_count == 2
        heal(link)
        settled = drain(checker)
        assert len(settled) == 2
        assert ESCALATES_SAFE.values in local.facts("emp")
        assert ESCALATES_VIOLATING.values not in local.facts("emp")
        assert checker.stats.deferred_rolled_back == 0  # held, not applied
        assert checker.stats.rejected == 1

    def test_transaction_aborts_on_deferred(self):
        checker, _ = build_checker()
        committed, reports = checker.process_transaction(
            [LOCAL_SAFE, ESCALATES_SAFE]
        )
        assert not committed
        assert checker.stats.transactions_rolled_back == 1
        assert checker.pending_count == 0
        local = checker.sites.local.unmetered()
        assert set(local.facts("emp")) == {("ann", "toys", 50)}

    def test_check_stream_transaction_plumbed_through(self):
        checker, _ = build_checker(down=False)
        (session,) = checker.sessions
        txn = session.transaction()
        session.process_stream(
            [LOCAL_SAFE, ESCALATES_SAFE],
            remote=checker.remote_source,
            transaction=txn,
        )
        local = checker.sites.local.unmetered()
        assert LOCAL_SAFE.values in local.facts("emp")
        txn.rollback()
        assert set(local.facts("emp")) == {("ann", "toys", 50)}

    def test_local_resolution_rate_with_zero_updates(self):
        checker, _ = build_checker()
        assert checker.stats.updates == 0
        assert checker.stats.local_resolution_rate == 1.0
        assert dict(checker.stats.summary_rows())["local resolution rate"] == 1.0


class TestFaultFreeEquivalence:
    """The acceptance bar: a pessimistic faulty run, after resolution,
    ends with the fault-free run's verdicts and local state."""

    def run_workload(self, fault_rate, outages=()):
        workload = employee_workload(
            num_updates=80, covered_fraction=0.4, seed=11
        )
        faults = FaultModel(failure_rate=fault_rate, outages=outages, seed=5)
        link = RemoteLink(
            UnreliableRemote(workload.sites.remotes["remote"], faults),
            FetchPolicy(max_attempts=2, failure_threshold=3, cooldown_fetches=2),
        )
        checker = ShardedChecker(
            workload.constraints, workload.sites, shards=1,
            apply_on_unknown=False, remote_links={"remote": link},
        )
        checker.check_stream(workload.updates)
        heal(link)
        settled = drain(checker)
        assert checker.pending_count == 0
        return workload, checker, settled

    def test_pessimistic_equivalence(self):
        clean_wl, clean, _ = self.run_workload(0.0)
        faulty_wl, faulty, settled = self.run_workload(0.2, outages=((5, 15),))
        assert faulty.stats.deferred_remote > 0
        assert faulty.stats.deferred_resolved == faulty.stats.deferred_remote
        assert faulty.stats.rejected == clean.stats.rejected
        clean_db = clean_wl.sites.local.unmetered()
        faulty_db = faulty_wl.sites.local.unmetered()
        assert clean_db.predicates() == faulty_db.predicates()
        for predicate in clean_db.predicates():
            assert set(clean_db.facts(predicate)) == set(
                faulty_db.facts(predicate)
            )
