"""Site and access-accounting tests."""

from repro.datalog.database import Database
from repro.distributed.site import AccessStats, FederatedDatabase, Site


class TestSite:
    def test_reads_are_metered(self):
        site = Site("remote", {"r": [(1,), (2,)]}, cost_per_read=2.5)
        site.facts("r")
        site.facts("r")
        assert site.stats.reads == 2
        assert site.stats.tuples_read == 4
        assert site.stats.simulated_cost == 5.0

    def test_writes_are_metered(self):
        site = Site("local")
        site.insert("p", (1,))
        site.delete("p", (1,))
        assert site.stats.writes == 2

    def test_snapshot_meters_everything(self):
        site = Site("remote", {"r": [(1,)], "s": [(2,), (3,)]}, cost_per_read=1.0)
        snapshot = site.snapshot()
        assert snapshot.facts("r") == {(1,)}
        assert site.stats.reads == 2
        assert site.stats.tuples_read == 3
        assert site.stats.simulated_cost == 2.0

    def test_snapshot_is_a_copy(self):
        site = Site("remote", {"r": [(1,)]})
        snapshot = site.snapshot()
        snapshot.insert("r", (9,))
        assert site.unmetered().facts("r") == {(1,)}

    def test_unmetered_access_free(self):
        site = Site("local", {"p": [(1,)]})
        site.unmetered().facts("p")
        assert site.stats.reads == 0

    def test_from_database(self):
        db = Database({"p": [(1,)]})
        site = Site("x", db)
        db.insert("p", (2,))  # the site took a copy
        assert site.unmetered().facts("p") == {(1,)}

    def test_stats_reset(self):
        stats = AccessStats(reads=3, tuples_read=9, writes=1, simulated_cost=4.0)
        stats.reset()
        assert stats.reads == stats.tuples_read == stats.writes == 0
        assert stats.simulated_cost == 0.0


class TestOneRemoteFederation:
    """The classic two-site split: a federation with one remote."""

    def build(self):
        return FederatedDatabase(
            local=Site("local", {"emp": [("a", "d1", 5)]}),
            remotes=[Site("remote", {"dept": [("d1",)]}, cost_per_read=1.0)],
        )

    def test_local_predicates(self):
        assert self.build().local_predicates == {"emp"}

    def test_full_database_merges_and_meters(self):
        sites = self.build()
        merged = sites.full_database()
        assert merged.facts("emp") and merged.facts("dept")
        assert sites.remotes["remote"].stats.reads >= 1

    def test_ground_truth_is_unmetered(self):
        sites = self.build()
        merged = sites.ground_truth_database()
        assert merged.facts("dept") == {("d1",)}
        assert sites.remotes["remote"].stats.reads == 0
