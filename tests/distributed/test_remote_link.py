"""RemoteLink tests: retry budget, backoff bounds, breaker state machine."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.datalog.database import Database
from repro.distributed.faults import FaultModel, UnreliableRemote
from repro.distributed.remote import (
    BreakerState,
    FetchPolicy,
    RemoteFetchInFlight,
    RemoteLink,
)
from repro.distributed.site import Site
from repro.errors import RemoteUnavailableError


class ScriptedRemote:
    """Fails or succeeds per a boolean script (True = attempt succeeds)."""

    def __init__(self, script):
        self.script = list(script)
        self.attempts = 0

    def snapshot(self, predicates=None):
        index = self.attempts
        self.attempts += 1
        ok = self.script[index] if index < len(self.script) else True
        if not ok:
            raise RemoteUnavailableError(f"scripted failure {index}")
        db = Database()
        db.insert("reading", (index,))
        return db


def make_link(script, **policy_kwargs):
    policy = FetchPolicy(**policy_kwargs)
    return RemoteLink(ScriptedRemote(script), policy, seed=0)


class TestFetchPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"failure_threshold": 0},
            {"cooldown_fetches": -1},
            {"backoff_jitter": 1.5},
            {"backoff_base": -0.1},
            {"attempt_timeout": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FetchPolicy(**kwargs)

    @given(retry=st.integers(1, 20), seed=st.integers(0, 1000))
    def test_backoff_bounded(self, retry, seed):
        policy = FetchPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=1.0,
            backoff_jitter=0.5,
        )
        wait = policy.backoff(retry, random.Random(seed))
        assert 0.0 <= wait <= 1.0 * 1.5
        if retry == 1:
            assert wait <= 0.1 * 1.5

    def test_backoff_grows_then_caps(self):
        policy = FetchPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5,
            backoff_jitter=0.0,
        )
        rng = random.Random(0)
        waits = [policy.backoff(n, rng) for n in (1, 2, 3, 4, 10)]
        assert waits == [0.1, 0.2, 0.4, 0.5, 0.5]


class TestRetries:
    def test_success_first_try(self):
        link = make_link([True])
        snap = link.fetch()
        assert (0,) in snap.facts("reading")
        assert link.stats.retries == 0
        assert link.state is BreakerState.CLOSED

    def test_transient_failures_absorbed_by_retries(self):
        link = make_link([False, False, True], max_attempts=3)
        link.fetch()
        assert link.stats.retries == 2
        assert link.stats.failures == 2
        assert link.stats.fetches_ok == 1
        assert link.stats.backoff_waited > 0
        assert link.clock == pytest.approx(link.stats.backoff_waited)

    def test_exhausted_budget_raises(self):
        link = make_link([False] * 10, max_attempts=2, failure_threshold=10)
        with pytest.raises(RemoteUnavailableError) as exc:
            link.fetch()
        assert exc.value.reason == "exhausted"
        assert link.stats.fetches_failed == 1
        assert link.stats.attempts == 2


class TestBreaker:
    def test_opens_after_consecutive_failures(self):
        link = make_link(
            [False] * 10, max_attempts=2, failure_threshold=3,
            cooldown_fetches=2,
        )
        with pytest.raises(RemoteUnavailableError):
            link.fetch()  # 2 failures
        assert link.state is BreakerState.CLOSED
        with pytest.raises(RemoteUnavailableError):
            link.fetch()  # 3rd failure crosses the threshold mid-fetch
        assert link.state is BreakerState.OPEN
        assert link.stats.breaker_opens == 1
        # The remote saw 3 attempts, not 4: the open breaker cut the
        # second fetch short.
        assert link.remote.attempts == 3

    def test_open_fast_fails_without_touching_remote(self):
        link = make_link(
            [False] * 3 + [True] * 10, max_attempts=1, failure_threshold=3,
            cooldown_fetches=2,
        )
        for _ in range(3):
            with pytest.raises(RemoteUnavailableError):
                link.fetch()
        assert link.state is BreakerState.OPEN
        attempts_before = link.remote.attempts
        for _ in range(2):  # cooldown: fast-fail, remote untouched
            with pytest.raises(RemoteUnavailableError) as exc:
                link.fetch()
            assert exc.value.reason == "circuit-open"
        assert link.remote.attempts == attempts_before
        assert link.stats.fetches_fast_failed == 2
        assert not link.available or link.state is BreakerState.OPEN

    def test_half_open_probe_recloses_on_success(self):
        link = make_link(
            [False] * 3 + [True] * 10, max_attempts=1, failure_threshold=3,
            cooldown_fetches=1,
        )
        for _ in range(3):
            with pytest.raises(RemoteUnavailableError):
                link.fetch()
        with pytest.raises(RemoteUnavailableError):
            link.fetch()  # cooldown fast-fail
        snap = link.fetch()  # half-open probe succeeds
        assert snap is not None
        assert link.state is BreakerState.CLOSED
        assert link.stats.breaker_half_opens == 1
        assert link.stats.breaker_closes == 1

    def test_half_open_probe_reopens_on_failure(self):
        link = make_link(
            [False] * 10 + [True] * 10, max_attempts=1, failure_threshold=3,
            cooldown_fetches=1,
        )
        for _ in range(3):
            with pytest.raises(RemoteUnavailableError):
                link.fetch()
        with pytest.raises(RemoteUnavailableError):
            link.fetch()  # fast-fail
        with pytest.raises(RemoteUnavailableError):
            link.fetch()  # probe fails: re-open
        assert link.state is BreakerState.OPEN
        assert link.stats.breaker_opens == 2
        # Recovery is still possible once the remote heals.
        with pytest.raises(RemoteUnavailableError):
            link.fetch()  # cooldown again
        for _ in range(20):
            try:
                link.fetch()
                break
            except RemoteUnavailableError:
                continue
        assert link.state is BreakerState.CLOSED


class TestLinkInvariants:
    @given(
        script=st.lists(st.booleans(), min_size=1, max_size=60),
        max_attempts=st.integers(1, 4),
        failure_threshold=st.integers(1, 6),
        cooldown=st.integers(0, 3),
    )
    def test_accounting_invariants(
        self, script, max_attempts, failure_threshold, cooldown
    ):
        link = make_link(
            script,
            max_attempts=max_attempts,
            failure_threshold=failure_threshold,
            cooldown_fetches=cooldown,
        )
        for _ in range(len(script)):
            try:
                link.fetch()
            except RemoteUnavailableError as exc:
                assert exc.reason in ("exhausted", "circuit-open")
        s = link.stats
        assert s.fetches == s.fetches_ok + s.fetches_failed + s.fetches_fast_failed
        assert s.attempts == s.fetches_ok + s.failures
        assert s.retries <= s.fetches * (max_attempts - 1)
        assert s.breaker_closes <= s.breaker_half_opens <= s.breaker_opens
        assert link.remote.attempts == s.attempts
        assert s.backoff_waited >= 0 and link.clock >= s.backoff_waited

    def test_unreliable_remote_latency_feeds_clock(self):
        site = Site("remote", {"reading": [(1,)]})
        remote = UnreliableRemote(site, FaultModel(latency=0.25))
        link = RemoteLink(remote, FetchPolicy(max_attempts=1))
        link.fetch()
        assert link.clock == pytest.approx(0.25)
        assert link.stats.attempt_latency == pytest.approx(0.25)


class TestTeardown:
    def test_close_is_idempotent(self):
        link = make_link([True])
        link.fetch()
        link.close()
        link.close()  # second close must be a no-op, not an error

    def test_wait_inflight_after_close(self):
        link = make_link([True])
        link.close()
        assert link.wait_inflight(timeout=0.1) is True

    def test_fetch_after_close_still_works_synchronously(self):
        # close() only tears down the async pool; the synchronous path
        # (used by the post-stream drain) must keep working.
        link = make_link([True, True])
        link.fetch()
        link.close()
        db = link.fetch()
        assert db.facts("reading")

    def test_fetch_nowait_after_close_is_rejected_not_resurrected(self):
        link = make_link([True])
        link.close()
        with pytest.raises(RemoteUnavailableError) as caught:
            link.fetch_nowait()
        assert caught.value.reason == "closed"
        assert not isinstance(caught.value, RemoteFetchInFlight)
        assert link._pool is None, "closed link must not rebuild its pool"
        assert link.inflight == 0

    def test_close_races_concurrent_fetch_nowait_deterministically(self):
        """Stress the close()/fetch_nowait race: regression for the pool
        being swapped out under the lock but submitted to outside it.

        Many threads issue async fetches against a latency-bearing flaky
        remote while another closes the link mid-storm.  Every call must
        either (a) raise RemoteFetchInFlight whose future settles with a
        result or RemoteUnavailableError — never CancelledError, never a
        raw pool RuntimeError — or (b) be rejected with reason
        ``"closed"``.  After close() returns, no pool thread may still
        be writing stats, and the counters must balance exactly.
        """
        import threading
        import time

        for seed in range(5):
            faults = FaultModel(
                failure_rate=0.3, latency=0.05, latency_jitter=0.05, seed=seed
            )
            site = Site("remote", {"rem": [(1,)]})
            remote = UnreliableRemote(site, faults)
            # A touch of real latency keeps fetches genuinely in flight
            # when close() lands (the FaultModel clock is simulated).
            real_snapshot = remote.snapshot

            def slow_snapshot(predicates=None, timeout=None, _s=real_snapshot):
                time.sleep(0.001)
                return _s(predicates=predicates, timeout=timeout)

            remote.snapshot = slow_snapshot
            link = RemoteLink(
                remote, FetchPolicy(max_attempts=2), seed=seed, async_workers=4
            )

            futures = []
            outcomes = []
            outcome_lock = threading.Lock()
            start = threading.Barrier(9)

            def worker():
                start.wait()
                for _ in range(8):
                    try:
                        link.fetch_nowait(predicates={"rem"})
                    except RemoteFetchInFlight as exc:
                        with outcome_lock:
                            futures.append(exc.future)
                            outcomes.append("in-flight")
                    except RemoteUnavailableError as exc:
                        with outcome_lock:
                            outcomes.append(exc.reason)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            start.wait()
            time.sleep(0.002)
            link.close()  # mid-storm; must wait for submitted fetches
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()

            # close() returned: every submitted fetch already ran, so the
            # stats are final and the accounting balances exactly.
            assert link.inflight == 0
            for future in futures:
                assert future.done(), "close() must wait for queued fetches"
                try:
                    future.result(timeout=0)
                except RemoteUnavailableError:
                    pass  # a flaky fetch exhausting its budget is fine
            assert set(outcomes) <= {"in-flight", "closed", "circuit-open"}
            submitted = outcomes.count("in-flight")
            assert submitted == len(futures) == link.stats.fetches_async
            # And the closed link stays closed.
            with pytest.raises(RemoteUnavailableError) as caught:
                link.fetch_nowait()
            assert caught.value.reason == "closed"
            assert link._pool is None
