"""Direct unit tests for the shared protocol-stats helpers.

``ProtocolStats.record_reports`` and ``sync_session_gauges`` live once,
in ``repro.distributed.stats``; these tests pin them directly.
"""

from dataclasses import dataclass

from repro.core.outcomes import CheckLevel, CheckReport, Outcome
from repro.distributed.stats import (
    _SESSION_GAUGES,
    ProtocolStats,
    sync_session_gauges,
)


def report(outcome, level, name="c"):
    return CheckReport(name, outcome, level, remote_accessed=False)


class TestRecordReports:
    def test_violation_counts_rejected_and_its_level(self):
        stats = ProtocolStats()
        stats.record_reports(
            [
                report(Outcome.SATISFIED, CheckLevel.CONSTRAINTS_ONLY),
                report(Outcome.VIOLATED, CheckLevel.FULL_DATABASE),
            ]
        )
        assert stats.rejected == 1
        # a rejection is still a settled verdict: it resolves at the
        # level that decided it
        assert stats.resolved_at_level[CheckLevel.FULL_DATABASE] == 1

    def test_deferred_outcome_counts_nothing_at_any_level(self):
        stats = ProtocolStats()
        stats.record_reports(
            [
                report(Outcome.SATISFIED, CheckLevel.WITH_UPDATE),
                report(Outcome.DEFERRED, CheckLevel.FULL_DATABASE),
            ]
        )
        assert stats.deferred_remote == 1
        assert sum(stats.resolved_at_level.values()) == 0
        # a deferral is not a local resolution
        stats.updates = 1
        assert stats.local_resolution_rate == 0.0

    def test_deciding_level_is_the_max(self):
        stats = ProtocolStats()
        stats.record_reports(
            [
                report(Outcome.SATISFIED, CheckLevel.CONSTRAINTS_ONLY),
                report(Outcome.SATISFIED, CheckLevel.WITH_LOCAL_DATA),
            ]
        )
        assert stats.resolved_at_level[CheckLevel.WITH_LOCAL_DATA] == 1
        assert stats.resolved_locally == 1

    def test_empty_reports_resolve_at_constraints_only(self):
        stats = ProtocolStats()
        stats.record_reports([])
        assert stats.resolved_at_level[CheckLevel.CONSTRAINTS_ONLY] == 1

    def test_pessimistic_unknown_counts_deferred_unknown(self):
        stats = ProtocolStats()
        stats.record_reports(
            [report(Outcome.UNKNOWN, CheckLevel.WITH_LOCAL_DATA)],
            apply_on_unknown=False,
        )
        assert stats.deferred_unknown == 1
        stats.record_reports(
            [report(Outcome.UNKNOWN, CheckLevel.WITH_LOCAL_DATA)],
            apply_on_unknown=True,
        )
        assert stats.deferred_unknown == 1

    def test_local_resolution_rate_bounds(self):
        stats = ProtocolStats()
        assert stats.local_resolution_rate == 1.0  # vacuously local
        stats.updates = 4
        stats.resolved_at_level[CheckLevel.WITH_UPDATE] = 3
        stats.resolved_at_level[CheckLevel.FULL_DATABASE] = 1
        assert stats.local_resolution_rate == 0.75

    def test_summary_rows_cover_every_counter(self):
        rows = ProtocolStats().summary_rows()
        labels = [label for label, _ in rows]
        assert len(labels) == len(set(labels))
        assert "remote fast-fails (breaker open)" in labels
        assert "peer (cross-shard) fetches" in labels


@dataclass
class FakeSessionStats:
    materializations_built: int = 0
    materialization_reuses: int = 0
    incremental_deltas: int = 0
    peer_fetches: int = 0


class FakeSession:
    def __init__(self, **gauges):
        self.stats = FakeSessionStats(**gauges)


class FakeCompiler:
    def __init__(self, hits=0, misses=0):
        self._info = {"hits": hits, "misses": misses}

    def level1_cache_info(self):
        return dict(self._info)


@dataclass
class FakeLinkStats:
    retries: int = 0
    failures: int = 0
    fetches_fast_failed: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0


class FakeLink:
    def __init__(self, **kwargs):
        self.stats = FakeLinkStats(**kwargs)


class TestSyncSessionGauges:
    def test_gauges_are_summed_across_sessions(self):
        stats = ProtocolStats()
        sessions = [
            FakeSession(materializations_built=2, peer_fetches=1),
            None,  # a dormant shard session must be skipped, not crash
            FakeSession(materializations_built=3, incremental_deltas=4),
        ]
        sync_session_gauges(stats, sessions, FakeCompiler(hits=7, misses=9))
        assert stats.materializations_built == 5
        assert stats.peer_fetches == 1
        assert stats.incremental_deltas == 4
        assert stats.level1_cache_hits == 7
        assert stats.level1_cache_misses == 9

    def test_gauges_overwrite_not_accumulate(self):
        stats = ProtocolStats()
        session = FakeSession(incremental_deltas=5)
        for _ in range(3):  # cumulative gauges: repeated syncs are stable
            sync_session_gauges(stats, [session], FakeCompiler())
        assert stats.incremental_deltas == 5

    def test_no_live_sessions_leaves_gauges_alone(self):
        stats = ProtocolStats(materializations_built=11)
        sync_session_gauges(stats, [None], FakeCompiler())
        assert stats.materializations_built == 11

    def test_link_stats_mirrored(self):
        stats = ProtocolStats()
        link = FakeLink(
            retries=2,
            failures=3,
            fetches_fast_failed=4,
            breaker_opens=5,
            breaker_half_opens=6,
            breaker_closes=7,
        )
        sync_session_gauges(stats, [], FakeCompiler(), remote_link=link)
        assert stats.remote_retries == 2
        assert stats.remote_failures == 3
        assert stats.remote_fast_fails == 4
        assert stats.breaker_opens == 5
        assert stats.breaker_half_opens == 6
        assert stats.breaker_closes == 7

    def test_every_declared_gauge_exists_on_protocol_stats(self):
        stats = ProtocolStats()
        for gauge in _SESSION_GAUGES:
            assert hasattr(stats, gauge)


class TestCheckpointSerialization:
    """``to_dict``/``from_dict`` round-trips for every stats surface the
    checkpoint manifests persist — counter for counter, no field
    silently dropped when one is added."""

    def _distinct(self, cls):
        """An instance with every counter set to a distinct value."""
        from dataclasses import fields as dc_fields

        instance = cls()
        for index, spec in enumerate(dc_fields(cls), start=1):
            current = getattr(instance, spec.name)
            if isinstance(current, dict):
                continue  # resolved_at_level, handled separately
            setattr(
                instance, spec.name,
                index + 0.5 if isinstance(current, float) else index,
            )
        return instance

    def _json_round_trip(self, payload):
        import json

        return json.loads(json.dumps(payload))

    def test_protocol_stats_round_trip(self):
        from dataclasses import fields as dc_fields

        stats = self._distinct(ProtocolStats)
        for offset, level in enumerate(CheckLevel):
            stats.resolved_at_level[level] = 100 + offset
        clone = ProtocolStats.from_dict(
            self._json_round_trip(stats.to_dict())
        )
        for spec in dc_fields(ProtocolStats):
            assert getattr(clone, spec.name) == getattr(stats, spec.name), (
                f"{spec.name} did not survive the manifest round trip"
            )

    def test_protocol_stats_levels_keyed_by_integer_value(self):
        payload = ProtocolStats().to_dict()
        assert set(payload["resolved_at_level"]) == {
            str(int(level)) for level in CheckLevel
        }

    def test_session_stats_round_trip(self):
        from dataclasses import fields as dc_fields

        from repro.core.session import SessionStats

        stats = self._distinct(SessionStats)
        clone = SessionStats.from_dict(self._json_round_trip(stats.to_dict()))
        assert clone == stats
        assert len(dc_fields(SessionStats)) == len(stats.to_dict())

    def test_link_stats_round_trip(self):
        from dataclasses import fields as dc_fields

        from repro.distributed.remote import LinkStats

        stats = self._distinct(LinkStats)
        clone = LinkStats.from_dict(self._json_round_trip(stats.to_dict()))
        assert clone == stats
        assert len(dc_fields(LinkStats)) == len(stats.to_dict())
        # the simulated-clock gauges are floats and must stay exact
        assert isinstance(clone.backoff_waited, float)

    def test_from_dict_rejects_nothing_it_wrote(self):
        # a manifest written by this version always loads in this version
        stats = ProtocolStats()
        stats.record_reports(
            [report(Outcome.VIOLATED, CheckLevel.FULL_DATABASE)]
        )
        stats.updates = 1
        clone = ProtocolStats.from_dict(stats.to_dict())
        assert clone.rejected == 1
        assert clone.resolved_at_level[CheckLevel.FULL_DATABASE] == 1
        assert clone.local_resolution_rate == stats.local_resolution_rate
