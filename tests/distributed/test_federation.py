"""N-site federation tests: topology, fan-out link, site-need
classification, partial-recovery drain, and N=2 link equivalence.

The refactor's contract has three legs:

* :class:`FederatedDatabase` generalizes the two-site model (one local
  site, one remote);
* :class:`FederationLink` fans an escalation out across per-site links,
  attributes partial failures to the sites that caused them, and (when
  enabled) serves repeat escalations from a bounded-staleness snapshot
  cache;
* the deferred-verdict drain recovers *partially*: with some sites back
  and others dark, exactly the entries whose full site-need set is
  covered settle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.compiler import ConstraintCompiler
from repro.core.outcomes import Outcome
from repro.distributed.faults import FaultModel, UnreliableRemote
from repro.distributed.remote import (
    BreakerState,
    FederationLink,
    FetchPolicy,
    RemoteFetchInFlight,
    RemoteLink,
    resolve_escalation_link,
)
from repro.distributed.sharded import ShardedChecker
from repro.distributed.site import FederatedDatabase, Site
from repro.distributed.workload import federated_workload
from repro.errors import RemoteUnavailableError
from repro.updates.update import Insertion


def heal(link):
    """Swap every fault model under *link* for a clean one."""
    links = link.links.values() if isinstance(link, FederationLink) else [link]
    for site_link in links:
        if hasattr(site_link.remote, "faults"):
            site_link.remote.faults = FaultModel()


def drain(checker, rounds=100):
    settled = []
    for _ in range(rounds):
        if not checker.pending_count:
            break
        settled.extend(checker.resolve_pending())
    return settled


def local_state(checker):
    """The final local contents — the union of the shard slices
    (non-empty relations only, order-normalized)."""
    contents = checker.local_database()
    return {
        predicate: sorted(contents.facts(predicate), key=repr)
        for predicate in sorted(contents.predicates())
        if contents.facts(predicate)
    }


def verdicts(results):
    return [
        sorted(
            (r.constraint_name, r.outcome, r.level, r.remote_accessed)
            for r in reports
        )
        for reports in results
    ]


class TestFederatedDatabase:
    def build(self):
        return FederatedDatabase(
            local=Site("local", {"emp": [("ann", "toys", 50)]}),
            remotes=[
                Site("r1", {"closedDept": [("mines",)]}),
                Site("r2", {"salFloor": [("toys", 40)]}),
            ],
            site_predicates={"r2": ["deptBudget"]},
        )

    def test_site_of_local_stored_declared_default(self):
        fed = self.build()
        assert fed.site_of("emp") is None
        assert fed.site_of("closedDept") == "r1"
        assert fed.site_of("salFloor") == "r2"
        # declared but empty relations still have an owner
        assert fed.site_of("deptBudget") == "r2"
        # an undeclared, unstored predicate defaults to the first remote
        assert fed.site_of("mystery") == "r1"

    def test_remote_predicates_include_declarations(self):
        fed = self.build()
        assert fed.remote_predicates("r2") == {"salFloor", "deptBudget"}

    def test_duplicate_site_names_rejected(self):
        with pytest.raises(ValueError):
            FederatedDatabase(
                local=Site("local", {}),
                remotes=[Site("r", {"a": []}), Site("r", {"b": []})],
            )

    def test_at_least_one_remote(self):
        with pytest.raises(ValueError):
            FederatedDatabase(local=Site("local", {}), remotes=[])

    def test_full_database_merges_every_site(self):
        fed = self.build()
        merged = fed.full_database()
        assert merged.facts("emp")
        assert merged.facts("closedDept")
        assert merged.facts("salFloor")


class TestSiteNeedClassification:
    CONSTRAINTS = ConstraintSet(
        [
            Constraint("panic :- emp(E,D,S) & closedDept(D)", "c1"),
            Constraint(
                "panic :- emp(E,D,S) & salFloor(D,F) & S < F", "c2"
            ),
            Constraint("panic :- emp(E,D,S) & emp(F,D,T) & S < T & E = F", "c3"),
        ]
    )

    def build_compiler(self):
        fed = FederatedDatabase(
            local=Site("local", {"emp": []}),
            remotes=[
                Site("r1", {"closedDept": []}),
                Site("r2", {"salFloor": []}),
            ],
            local_predicates={"emp"},
            site_predicates={"r1": ["closedDept"], "r2": ["salFloor"]},
        )
        return ConstraintCompiler(
            self.CONSTRAINTS, {"emp"}, site_of=fed.site_of
        )

    def test_site_needs_are_minimal(self):
        compiler = self.build_compiler()
        assert compiler.site_needs("c1") == frozenset({"r1"})
        assert compiler.site_needs("c2") == frozenset({"r2"})
        # a purely local constraint never escalates anywhere
        assert compiler.site_needs("c3") == frozenset()

    def test_predicate_sites(self):
        compiler = self.build_compiler()
        assert compiler.predicate_sites(["closedDept", "salFloor"]) == (
            frozenset({"r1", "r2"})
        )
        assert compiler.predicate_sites(["emp"]) == frozenset()

    def test_without_placement_everything_is_the_default_remote(self):
        compiler = ConstraintCompiler(self.CONSTRAINTS, {"emp"})
        assert compiler.site_needs("c1") == frozenset({"remote"})

    def test_single_binding_positive_cases(self):
        compiler = self.build_compiler()
        # every constraint binds one emp atom... except c3, which joins
        # emp against itself
        assert not compiler.single_binding("emp")
        assert compiler.single_binding("closedDept")

    def test_single_binding_negation_refused(self):
        constraints = ConstraintSet(
            [Constraint("panic :- emp(E,D,S) & not dept(D)", "ref")]
        )
        compiler = ConstraintCompiler(constraints, {"emp", "dept"})
        assert not compiler.single_binding("dept")
        assert compiler.single_binding("emp")


def make_federation(parallel=True, snapshot_ttl=None, latency=0.0,
                    down=(), **policy_kwargs):
    """Two sites (r1: closedDept, r2: salFloor) behind their own links."""
    fed = FederatedDatabase(
        local=Site("local", {"emp": [("ann", "toys", 50)]}),
        remotes=[
            Site("r1", {"closedDept": [("mines",)]}),
            Site("r2", {"salFloor": [("toys", 40)]}),
        ],
    )
    policy_kwargs.setdefault("max_attempts", 2)
    policy_kwargs.setdefault("failure_threshold", 4)
    policy_kwargs.setdefault("cooldown_fetches", 1)
    links = {}
    for name, site in fed.remotes.items():
        faults = FaultModel(
            failure_rate=1.0 if name in down else 0.0, latency=latency
        )
        links[name] = RemoteLink(
            UnreliableRemote(site, faults), FetchPolicy(**policy_kwargs)
        )
    link = FederationLink(
        links, fed.site_of, parallel=parallel, snapshot_ttl=snapshot_ttl
    )
    return fed, link


class TestFederationLink:
    def test_fetch_merges_across_sites(self):
        _, link = make_federation()
        db = link.fetch(["closedDept", "salFloor"])
        assert db.facts("closedDept") == frozenset({("mines",)})
        assert db.facts("salFloor") == frozenset({("toys", 40)})
        assert link.fanouts == 1
        assert link.fanout_fetches == 2

    def test_single_site_fetch_is_not_a_fanout(self):
        _, link = make_federation()
        db = link.fetch(["closedDept"])
        assert db.facts("closedDept")
        assert not db.facts("salFloor")
        assert link.fanouts == 0
        assert link.links["r2"].stats.fetches == 0

    def test_partial_failure_names_the_failed_sites(self):
        _, link = make_federation(down={"r1"})
        with pytest.raises(RemoteUnavailableError) as excinfo:
            link.fetch(["closedDept", "salFloor"])
        assert excinfo.value.sites == frozenset({"r1"})
        # the healthy site was still attempted (complete attribution)
        assert link.links["r2"].stats.fetches_ok == 1

    def test_parallel_clock_is_max_sequential_is_sum(self):
        _, parallel_link = make_federation(parallel=True, latency=0.25)
        parallel_link.fetch(["closedDept", "salFloor"])
        assert parallel_link.clock == pytest.approx(0.25)

        _, sequential_link = make_federation(parallel=False, latency=0.25)
        sequential_link.fetch(["closedDept", "salFloor"])
        assert sequential_link.clock == pytest.approx(0.5)

    def test_fetch_nowait_composite_future(self):
        _, link = make_federation()
        with pytest.raises(RemoteFetchInFlight) as excinfo:
            link.fetch_nowait(["closedDept", "salFloor"])
        db = excinfo.value.future.result(timeout=5)
        assert db.facts("closedDept") and db.facts("salFloor")
        assert link.wait_inflight(timeout=5)
        link.close()
        link.close()  # federation close is idempotent too

    def test_fetch_nowait_composite_failure_attribution(self):
        _, link = make_federation(down={"r2"})
        with pytest.raises(RemoteFetchInFlight) as excinfo:
            link.fetch_nowait(["closedDept", "salFloor"])
        with pytest.raises(RemoteUnavailableError) as failure:
            excinfo.value.future.result(timeout=5)
        assert failure.value.sites == frozenset({"r2"})

    def test_fetch_nowait_all_breakers_open_fails_synchronously(self):
        # a long cooldown keeps both breakers fast-failing (no half-open
        # probe), so the fan-out can fail without going async at all
        _, link = make_federation(
            down={"r1", "r2"}, failure_threshold=1, cooldown_fetches=10
        )
        for _ in range(2):  # trip both breakers
            with pytest.raises(RemoteUnavailableError):
                link.fetch(["closedDept", "salFloor"])
        assert link.state is BreakerState.OPEN
        with pytest.raises(RemoteUnavailableError) as excinfo:
            link.fetch_nowait(["closedDept", "salFloor"])
        assert not isinstance(excinfo.value, RemoteFetchInFlight)
        assert excinfo.value.sites == frozenset({"r1", "r2"})

    def test_snapshot_cache_serves_repeat_escalations(self):
        _, link = make_federation(snapshot_ttl=10.0)
        link.fetch(["closedDept", "salFloor"])
        fetches_before = link.stats.fetches
        db = link.fetch(["closedDept", "salFloor"])
        assert db.facts("closedDept") and db.facts("salFloor")
        assert link.stats.fetches == fetches_before  # no site touched
        assert link.cache_hits == 2

    def test_snapshot_cache_expires_on_the_site_clock(self):
        _, link = make_federation(snapshot_ttl=0.1)
        link.fetch(["closedDept"])
        link.fetch(["closedDept"])
        assert link.links["r1"].stats.fetches == 1  # fresh: served cached
        # staleness is measured on the owning site's clock
        link.links["r1"].clock += 1.0
        link.fetch(["closedDept"])
        assert link.links["r1"].stats.fetches == 2  # expired: refetched

    def test_cache_disabled_by_default(self):
        _, link = make_federation()
        link.fetch(["closedDept"])
        link.fetch(["closedDept"])
        assert link.cache_hits == 0
        assert link.links["r1"].stats.fetches == 2

    def test_stats_sum_and_state_is_worst(self):
        _, link = make_federation(down={"r1"}, failure_threshold=1)
        with pytest.raises(RemoteUnavailableError):
            link.fetch(["closedDept", "salFloor"])
        assert link.stats.fetches == (
            link.links["r1"].stats.fetches + link.links["r2"].stats.fetches
        )
        assert link.links["r1"].state is BreakerState.OPEN
        assert link.links["r2"].state is BreakerState.CLOSED
        assert link.state is BreakerState.OPEN

    def test_summary_rows_extend_link_stats(self):
        _, link = make_federation(snapshot_ttl=5.0)
        link.fetch(["closedDept", "salFloor"])
        labels = [label for label, _ in link.summary_rows()]
        assert "federated fan-outs" in labels
        assert "snapshot cache hits" in labels


class TestResolveEscalationLink:
    def test_single_remote_preserves_the_scalar_link(self):
        sites = FederatedDatabase(
            local=Site("local", {"emp": []}),
            remotes=[Site("remote", {"closedDept": []})],
        )
        link = RemoteLink(sites.remotes["remote"])
        assert resolve_escalation_link(sites) is None
        assert resolve_escalation_link(sites, remote_links={}) is None
        assert resolve_escalation_link(
            sites, remote_links={"remote": link}
        ) is link

    def test_multi_remote_always_federates(self):
        fed, _ = make_federation()
        resolved = resolve_escalation_link(fed)
        assert isinstance(resolved, FederationLink)
        assert set(resolved.links) == {"r1", "r2"}

    def test_unknown_remote_links_rejected(self):
        fed, _ = make_federation()
        with pytest.raises(ValueError):
            resolve_escalation_link(fed, remote_links={"nosuch": None})


# -- partial recovery: disjoint constraint families over distinct sites ----------

FAMILY_CONSTRAINTS = ConstraintSet(
    [
        Constraint("panic :- emp(E,D,S) & closedDept(D)", "no-closed-dept"),
        Constraint("panic :- ship(I,R) & closedRoute(R)", "no-closed-route"),
    ]
)

# every update escalates (fresh department / fresh route: no local witness)
FAMILY_UPDATES = [
    Insertion("emp", ("bob", "books", 90)),
    Insertion("ship", (1, "north")),
    Insertion("emp", ("eve", "mines", 90)),      # violates at siteA
    Insertion("ship", (2, "arctic")),            # violates at siteB
]


def build_family_checker(sharded=False, pessimistic=True, down=("sA", "sB")):
    fed = FederatedDatabase(
        local=Site("local", {"emp": [("ann", "toys", 50)], "ship": [(0, "east")]}),
        remotes=[
            Site("sA", {"closedDept": [("mines",)]}),
            Site("sB", {"closedRoute": [("arctic",)]}),
        ],
    )
    links = {}
    for name, site in fed.remotes.items():
        faults = FaultModel(failure_rate=1.0 if name in down else 0.0)
        links[name] = RemoteLink(
            UnreliableRemote(site, faults),
            FetchPolicy(max_attempts=2, failure_threshold=2, cooldown_fetches=1),
        )
    kwargs = dict(
        apply_on_unknown=not pessimistic,
        remote_links=links,
    )
    checker = ShardedChecker(
        FAMILY_CONSTRAINTS, fed, shards=2 if sharded else 1, **kwargs
    )
    return checker, checker.remote_link, fed


@pytest.mark.parametrize("sharded", [False, True])
class TestPartialRecoveryDrain:
    def test_stream_defers_while_every_site_is_dark(self, sharded):
        checker, _, _ = build_family_checker(sharded=sharded)
        results = checker.check_stream(FAMILY_UPDATES)
        assert all(
            any(r.outcome is Outcome.DEFERRED for r in reports)
            for reports in results
        )
        assert checker.pending_count == len(FAMILY_UPDATES)

    def test_partial_heal_settles_exactly_the_covered_family(self, sharded):
        checker, link, _ = build_family_checker(sharded=sharded)
        checker.check_stream(FAMILY_UPDATES)
        heal(link.links["sB"])  # ship's site is back; emp's stays dark
        settled = drain(checker)
        settled_updates = sorted(str(update) for update, _ in settled)
        assert settled_updates == sorted(
            str(u) for u in FAMILY_UPDATES if u.predicate == "ship"
        )
        # the violating shipment was rejected on settlement
        by_update = {str(u): reports for u, reports in settled}
        assert any(
            r.outcome is Outcome.VIOLATED
            for r in by_update["+ship(2, 'arctic')"]
        )
        # the emp entries still await their dark site
        assert checker.pending_count == 2
        # ...and the dark site was not hammered once per entry: the
        # first failure darkens it for the rest of the walk
        assert link.links["sB"].stats.fetches_ok >= 1

    def test_full_heal_finishes_the_drain(self, sharded):
        checker, link, fed = build_family_checker(sharded=sharded)
        checker.check_stream(FAMILY_UPDATES)
        heal(link.links["sB"])
        drain(checker)
        heal(link.links["sA"])
        drain(checker)
        assert checker.pending_count == 0
        assert local_state(checker) == self.expected_final_state(sharded)

    def test_matches_fault_free_run(self, sharded):
        checker, _, fed = build_family_checker(sharded=sharded, down=())
        results = checker.check_stream(FAMILY_UPDATES)
        assert checker.pending_count == 0
        faulted, link, faulted_fed = build_family_checker(sharded=sharded)
        faulted.check_stream(FAMILY_UPDATES)
        heal(link.links["sB"])
        drain(faulted)
        heal(link.links["sA"])
        drain(faulted)
        assert local_state(faulted) == local_state(checker)

    @staticmethod
    def expected_final_state(sharded):
        # the two violating updates are rejected; the two safe ones land
        return {
            "emp": sorted(
                [("ann", "toys", 50), ("bob", "books", 90)], key=repr
            ),
            "ship": sorted([(0, "east"), (1, "north")], key=repr),
        }


class TestFederatedVerdictEquivalence:
    """A federated run must agree with the same data merged into one
    remote — placement is an implementation detail of the storage, not
    of the constraint semantics."""

    def test_three_sites_match_merged_single_remote(self):
        workload = federated_workload(
            remote_sites=3, num_updates=40, initial_employees=60, seed=7
        )
        fed_checker = ShardedChecker(
            workload.constraints, workload.sites, shards=1
        )
        fed_results = fed_checker.check_stream(list(workload.updates))

        merged_tables = {}
        for site in workload.sites.remotes.values():
            contents = site.unmetered()
            for predicate in contents.predicates():
                merged_tables.setdefault(predicate, []).extend(
                    contents.facts(predicate)
                )
        merged = FederatedDatabase(
            local=Site("local", workload.sites.local.unmetered()
                       .restricted_to({"emp"})),
            remotes=[Site("remote", merged_tables)],
        )
        merged_checker = ShardedChecker(workload.constraints, merged, shards=1)
        merged_results = merged_checker.check_stream(list(workload.updates))

        assert [
            sorted((r.constraint_name, r.outcome) for r in reports)
            for reports in fed_results
        ] == [
            sorted((r.constraint_name, r.outcome) for r in reports)
            for reports in merged_results
        ]
        assert local_state(fed_checker) == local_state(merged_checker)


# -- N=2 equivalence property: a one-site federation link vs a plain link --------

N2_CONSTRAINTS = ConstraintSet(
    [
        Constraint("panic :- emp(E,D,S) & closedDept(D)", "no-closed-dept"),
        Constraint("panic :- emp(E,D,S) & salFloor(D,F) & S < F", "salary-floor"),
    ]
)


def n2_updates(seed):
    import random

    rng = random.Random(seed)
    updates = []
    for i in range(12):
        kind = rng.randrange(3)
        if kind == 0:  # locally resolvable: colleague earns less
            updates.append(Insertion("emp", (f"n{i}", "toys", 50 + i)))
        elif kind == 1:  # escalates, safe
            updates.append(Insertion("emp", (f"n{i}", f"fresh{i}", 90)))
        else:  # escalates, violating
            updates.append(Insertion("emp", (f"n{i}", "mines", 90)))
    return updates


def n2_build(federated, fault_rate, seed, shards, parallelism, overlap,
             pessimistic):
    sites = FederatedDatabase(
        local=Site("local", {"emp": [("ann", "toys", 50)]}),
        remotes=[
            Site(
                "remote",
                {"closedDept": [("mines",)],
                 "salFloor": [("toys", 40), ("mines", 10)]},
            )
        ],
    )
    scalar = RemoteLink(
        UnreliableRemote(sites.remotes["remote"],
                         FaultModel(failure_rate=fault_rate, seed=seed)),
        FetchPolicy(max_attempts=2, failure_threshold=3, cooldown_fetches=1),
        seed=seed,
    )
    link = (
        FederationLink({"remote": scalar}, sites.site_of)
        if federated
        else scalar
    )
    # A single remote's entry is used as-is, so the one-site
    # FederationLink really is what the checker escalates through.
    checker = ShardedChecker(
        N2_CONSTRAINTS, sites, shards=shards, parallelism=parallelism,
        apply_on_unknown=not pessimistic,
        remote_links={"remote": link},
        overlap_remote=overlap,
    )
    return checker, link


def n2_run(federated, fault_rate, seed, shards, parallelism, overlap,
           pessimistic):
    checker, link = n2_build(
        federated, fault_rate, seed, shards, parallelism, overlap,
        pessimistic,
    )
    results = checker.check_stream(n2_updates(seed))
    if overlap:
        link.wait_inflight(timeout=10)
    heal(link)
    settled = drain(checker)
    link.close()
    return (
        verdicts(results),
        sorted(
            (str(update), sorted((r.constraint_name, r.outcome)
                                 for r in reports))
            for update, reports in settled
        ),
        local_state(checker),
        checker.stats,
    )


class TestLegacyEquivalence:
    """The classic two-site path — one plain :class:`RemoteLink` — and a
    one-site :class:`FederationLink` over the same link are
    indistinguishable."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        fault_rate=st.sampled_from([0.0, 0.4, 1.0]),
        pessimistic=st.booleans(),
        shards=st.sampled_from([1, 2]),
        parallelism=st.sampled_from([1, 2]),
        overlap=st.booleans(),
    )
    def test_federation_at_n2_is_byte_identical(
        self, seed, fault_rate, pessimistic, shards, parallelism, overlap
    ):
        # concurrency reorders fault draws between runs, so faulted
        # cases stick to the deterministic synchronous schedule
        if fault_rate:
            parallelism, overlap = 1, False
        plain = n2_run(
            False, fault_rate, seed, shards, parallelism, overlap,
            pessimistic,
        )
        federated = n2_run(
            True, fault_rate, seed, shards, parallelism, overlap,
            pessimistic,
        )
        assert federated[0] == plain[0]  # stream verdicts
        assert federated[1] == plain[1]  # drained verdicts
        assert federated[2] == plain[2]  # final local state
        assert federated[3] == plain[3]  # full ProtocolStats
