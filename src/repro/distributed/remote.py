"""Fault-tolerant access to a remote site: retries, backoff, breaker.

A :class:`RemoteLink` is the only thing the checking protocol sees of the
network.  It wraps anything with a ``snapshot(predicates=None)`` method —
a plain metered :class:`~repro.distributed.site.Site` or an
:class:`~repro.distributed.faults.UnreliableRemote` — behind a
:class:`FetchPolicy`:

* a **retry budget** of ``max_attempts`` per fetch, with **bounded
  exponential backoff** between attempts (base × factor^n, capped, with
  seeded deterministic jitter so synchronized retries don't stampede);
* a **per-attempt timeout** forwarded to fault-aware remotes;
* a **circuit breaker**: after ``failure_threshold`` *consecutive*
  failed attempts the breaker opens and fetches fast-fail without
  touching the remote at all; after ``cooldown_fetches`` fast-failed
  fetches it half-opens and risks exactly one probe attempt — success
  recloses it, failure re-opens it.

On an exhausted budget (or an open breaker) :meth:`RemoteLink.fetch`
raises :class:`~repro.errors.RemoteUnavailableError`; the protocol layer
degrades to a DEFERRED verdict instead of crashing the stream.  Nothing
sleeps — backoff waits and attempt latencies accumulate on a simulated
clock, which the benchmarks read as verdict latency.

The link is **thread-safe**: breaker state, statistics, and the clock
are guarded by one lock, while the actual ``snapshot`` calls are
serialized on a separate I/O lock — the link models one connection to
one remote site, so attempts form a total order (which is also what
makes "consecutive failures" well-defined) and the wrapped remote never
sees concurrent access.  Every fetch blocks its caller: the remote's
cost is simulated, so there is no wait for a background fetch to hide.
"""

from __future__ import annotations

import enum
import random
import threading
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping, Optional, Protocol

from repro.constraints.classify import group_predicates_by_site
from repro.core.session import counters_from_dict
from repro.datalog.database import Database
from repro.errors import RemoteUnavailableError

__all__ = [
    "BreakerState",
    "FederationLink",
    "FetchPolicy",
    "LinkStats",
    "RemoteLink",
    "RemoteSite",
    "resolve_escalation_link",
]


class RemoteSite(Protocol):
    """Anything the link can snapshot — a Site or an UnreliableRemote."""

    def snapshot(self, predicates: Iterable[str] | None = None) -> Database: ...


class BreakerState(enum.Enum):
    """Classic three-state circuit breaker."""

    CLOSED = "closed"        # normal operation
    OPEN = "open"            # fast-failing, remote not touched
    HALF_OPEN = "half-open"  # one probe in flight

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FetchPolicy:
    """How hard one :meth:`RemoteLink.fetch` tries before giving up."""

    #: attempts per fetch (1 initial + max_attempts-1 retries)
    max_attempts: int = 4
    #: per-attempt timeout in simulated seconds (None = no timeout);
    #: honoured by fault-aware remotes that accept a ``timeout=`` kwarg
    attempt_timeout: Optional[float] = None
    #: backoff before retry n (1-based): min(base * factor**(n-1), max),
    #: multiplied by a jitter factor drawn from [1-jitter, 1+jitter]
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    backoff_jitter: float = 0.5
    #: consecutive failed attempts (across fetches) that open the breaker
    failure_threshold: int = 5
    #: fast-failed fetches while open before the breaker half-opens
    cooldown_fetches: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.attempt_timeout is not None and self.attempt_timeout < 0:
            raise ValueError("attempt_timeout must be non-negative")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.cooldown_fetches < 0:
            raise ValueError("cooldown_fetches must be non-negative")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be in [0, 1]")
        if min(self.backoff_base, self.backoff_factor, self.backoff_max) < 0:
            raise ValueError("backoff parameters must be non-negative")

    def backoff(self, retry: int, rng: random.Random) -> float:
        """The simulated wait before *retry* (1-based)."""
        wait = min(self.backoff_base * self.backoff_factor ** (retry - 1),
                   self.backoff_max)
        if self.backoff_jitter:
            wait *= 1.0 + self.backoff_jitter * (2.0 * rng.random() - 1.0)
        return wait


@dataclass
class LinkStats:
    """Fetch-level accounting for one :class:`RemoteLink`."""

    fetches: int = 0
    fetches_ok: int = 0
    #: fetches that exhausted the retry budget (or died half-open)
    fetches_failed: int = 0
    #: fetches rejected instantly by an open breaker (remote untouched)
    fetches_fast_failed: int = 0
    attempts: int = 0
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    #: simulated seconds spent waiting in backoff
    backoff_waited: float = 0.0
    #: simulated seconds spent on attempt latency
    attempt_latency: float = 0.0

    def summary_rows(self) -> list[tuple[str, object]]:
        return [
            ("remote fetches", self.fetches),
            ("remote fetches ok", self.fetches_ok),
            ("remote fetches failed", self.fetches_failed),
            ("remote fast-fails (breaker open)", self.fetches_fast_failed),
            ("remote attempts", self.attempts),
            ("remote retries", self.retries),
            ("remote attempt failures", self.failures),
            ("remote timeouts", self.timeouts),
            ("breaker opens", self.breaker_opens),
            ("breaker half-opens", self.breaker_half_opens),
            ("breaker closes", self.breaker_closes),
            ("simulated backoff wait", round(self.backoff_waited, 4)),
            ("simulated attempt latency", round(self.attempt_latency, 4)),
        ]

    def to_dict(self) -> dict:
        """Plain-dict form for checkpoint manifests (JSON-safe)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "LinkStats":
        return counters_from_dict(cls, payload)


class RemoteLink:
    """A remote site behind a retry/backoff/breaker fetch policy.

    ``fetch(predicates=...)`` either returns a snapshot or raises
    :class:`~repro.errors.RemoteUnavailableError`; it never raises
    anything else and never blocks forever.  The simulated ``clock``
    advances by attempt latencies and backoff waits, so benchmarks can
    report verdict latency without sleeping.

    The link is safe to call from multiple threads.  Breaker state,
    statistics, the rng, and the clock live under one lock;
    the wrapped remote's ``snapshot`` calls are serialized on a separate
    I/O lock (one link ~ one connection), so attempt outcomes form a
    total order and "consecutive failures" keeps its serial meaning.
    """

    def __init__(
        self,
        remote: RemoteSite,
        policy: Optional[FetchPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.remote = remote
        self.policy = policy if policy is not None else FetchPolicy()
        self.stats = LinkStats()
        self.clock = 0.0
        self._rng = random.Random(seed)
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._open_fetches = 0
        # Fault-aware remotes take a per-attempt timeout; plain Sites don't.
        self._supports_timeout = hasattr(remote, "last_latency")
        #: guards breaker/stats/clock/rng bookkeeping
        self._lock = threading.Lock()
        #: serializes the actual ``remote.snapshot`` calls
        self._io_lock = threading.Lock()

    # -- breaker ----------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    @property
    def available(self) -> bool:
        """Would a fetch right now at least try the remote?"""
        with self._lock:
            return self._state is not BreakerState.OPEN or (
                self._open_fetches >= self.policy.cooldown_fetches
            )

    def _transition(self, state: BreakerState) -> None:
        # Callers hold self._lock.
        if state is self._state:
            return
        self._state = state
        if state is BreakerState.OPEN:
            self.stats.breaker_opens += 1
            self._open_fetches = 0
        elif state is BreakerState.HALF_OPEN:
            self.stats.breaker_half_opens += 1
        else:
            self.stats.breaker_closes += 1
            self._consecutive_failures = 0

    # -- fetching ---------------------------------------------------------------
    def _attempt(self, predicates: Iterable[str] | None) -> Database:
        # The remote itself is not assumed thread-safe; one connection,
        # one snapshot at a time.  last_latency is read while we still
        # hold the I/O lock so a concurrent attempt can't clobber it.
        with self._io_lock:
            if self._supports_timeout:
                try:
                    return self.remote.snapshot(
                        predicates=predicates, timeout=self.policy.attempt_timeout
                    )
                finally:
                    latency = getattr(self.remote, "last_latency", 0.0)
                    with self._lock:
                        self.clock += latency
                        self.stats.attempt_latency += latency
            return self.remote.snapshot(predicates=predicates)

    def fetch(self, predicates: Iterable[str] | None = None) -> Database:
        """Fetch a (possibly predicate-restricted) remote snapshot.

        Raises :class:`~repro.errors.RemoteUnavailableError` when the
        breaker is open (reason ``"circuit-open"``) or the retry budget
        is exhausted (reason ``"exhausted"``).
        """
        policy = self.policy
        with self._lock:
            self.stats.fetches += 1
            if self._state is BreakerState.OPEN:
                if self._open_fetches < policy.cooldown_fetches:
                    self._open_fetches += 1
                    self.stats.fetches_fast_failed += 1
                    raise RemoteUnavailableError(
                        f"circuit breaker open ({self._open_fetches}/"
                        f"{policy.cooldown_fetches} of cooldown)",
                        reason="circuit-open",
                    )
                self._transition(BreakerState.HALF_OPEN)

            # Half-open risks exactly one probe; closed gets the full budget.
            budget = (
                1 if self._state is BreakerState.HALF_OPEN else policy.max_attempts
            )
        last_error: Optional[RemoteUnavailableError] = None
        for attempt in range(budget):
            with self._lock:
                if attempt:
                    wait = policy.backoff(attempt, self._rng)
                    self.clock += wait
                    self.stats.backoff_waited += wait
                    self.stats.retries += 1
                self.stats.attempts += 1
            try:
                snapshot = self._attempt(predicates)
            except RemoteUnavailableError as exc:
                last_error = exc
                with self._lock:
                    self.stats.failures += 1
                    if exc.reason == "timeout":
                        self.stats.timeouts += 1
                    self._consecutive_failures += 1
                    if (
                        self._state is BreakerState.HALF_OPEN
                        or self._consecutive_failures >= policy.failure_threshold
                    ):
                        self._transition(BreakerState.OPEN)
                        opened = True
                    else:
                        opened = False
                if opened:
                    break
                continue
            with self._lock:
                self._consecutive_failures = 0
                if self._state is not BreakerState.CLOSED:
                    self._transition(BreakerState.CLOSED)
                self.stats.fetches_ok += 1
            return snapshot

        with self._lock:
            self.stats.fetches_failed += 1
            state = self._state
            attempts = self.stats.attempts
        raise RemoteUnavailableError(
            f"remote fetch failed after {attempts} cumulative "
            f"attempts (breaker {state}): {last_error}",
            reason="exhausted",
        )

    # -- durability --------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable mutable state for checkpoint manifests.

        Captures everything a resumed run needs to continue the fetch
        sequence exactly where the crashed run left off: breaker state
        and counters, the simulated clock, the backoff-jitter RNG, the
        fetch statistics, and — when the wrapped remote is an
        :class:`~repro.distributed.faults.UnreliableRemote` — its fault
        RNG and attempt counters, so outage windows and transient draws
        line up attempt-for-attempt after recovery.
        """
        with self._lock:
            version, internal, gauss_next = self._rng.getstate()
            state = {
                "breaker": self._state.value,
                "consecutive_failures": self._consecutive_failures,
                "open_fetches": self._open_fetches,
                "clock": self.clock,
                "rng": [version, list(internal), gauss_next],
                "stats": self.stats.to_dict(),
            }
            if hasattr(self.remote, "state_dict"):
                state["remote"] = self.remote.state_dict()
            return state

    def restore_state(self, state: dict) -> None:
        with self._lock:
            self._state = BreakerState(state["breaker"])
            self._consecutive_failures = state["consecutive_failures"]
            self._open_fetches = state["open_fetches"]
            self.clock = state["clock"]
            version, internal, gauss_next = state["rng"]
            self._rng.setstate((version, tuple(internal), gauss_next))
            self.stats = LinkStats.from_dict(state["stats"])
            if "remote" in state and hasattr(self.remote, "restore_state"):
                self.remote.restore_state(state["remote"])


class FederationLink:
    """Fan-out escalation across N per-site :class:`RemoteLink`\\ s.

    The protocol layer keeps seeing one remote-source surface —
    ``fetch(predicates=...)`` / ``stats`` — while underneath each fetch
    is *split by owning site* (via the federation's placement) and
    issued to every involved site's own link, each with its own
    retry/backoff/breaker policy and fault model.  Three things
    distinguish the federated surface:

    * **fan-out on the simulated clock**: the per-site fetches of one
      escalation run one after another on the calling thread, but the
      federation clock charges the escalation the *maximum* of the
      per-site latency deltas — the cost of sites answering
      concurrently — while each site's own link clock carries its
      share (the M7 benchmark compares the federation clock with the
      sum of the link clocks).
    * **partial-failure attribution**: when some sites answer and others
      do not, the raised :class:`~repro.errors.RemoteUnavailableError`
      carries ``sites`` naming exactly the failed ones, and the answers
      that did arrive are still cached — the partial-recovery drain in
      :meth:`~repro.core.session.CheckSession.resolve_pending` marks
      only those sites dark.
    * a **verified-snapshot cache**: a successful per-site fetch is
      remembered for ``snapshot_ttl`` simulated seconds on *that site's*
      link clock, and a later escalation whose needs are covered is
      served from the cache without touching the site.  The default
      (``None``) disables caching, preserving exact fetch-for-fetch
      equivalence with the unfederated link.
    """

    def __init__(
        self,
        links: Mapping[str, RemoteLink],
        site_of: Callable[[str], Optional[str]],
        snapshot_ttl: Optional[float] = None,
    ) -> None:
        if not links:
            raise ValueError("a federation link needs at least one site link")
        if snapshot_ttl is not None and not snapshot_ttl >= 0:
            raise ValueError(
                f"snapshot_ttl must be non-negative (got {snapshot_ttl})"
            )
        self.links: dict[str, RemoteLink] = dict(links)
        self.site_of = site_of
        self.snapshot_ttl = snapshot_ttl
        #: simulated federation clock: each escalation adds the max of
        #: its per-site latency deltas
        self.clock = 0.0
        #: multi-site escalations issued / per-site fetches they fanned
        #: out to / snapshot-cache accounting
        self.fanouts = 0
        self.fanout_fetches = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._lock = threading.Lock()
        #: site -> (link clock at fetch, covered predicates or None, db)
        self._cache: dict[str, tuple[float, Optional[frozenset], Database]] = {}

    # -- plumbing ---------------------------------------------------------------
    def _split(self, predicates: Iterable[str] | None) -> dict[str, Optional[frozenset]]:
        """The fan-out plan: site -> predicate restriction (``None`` =
        unrestricted).  An unrestricted fetch involves every site."""
        if predicates is None:
            return {name: None for name in self.links}
        default = next(iter(self.links))
        groups = group_predicates_by_site(
            predicates, self.site_of, default_site=default
        )
        unknown = set(groups) - set(self.links)
        if unknown:
            raise ValueError(
                f"placement routes predicates to unknown sites: {sorted(unknown)}"
            )
        return {site: frozenset(wanted) for site, wanted in groups.items()}

    def _serve_cached(
        self, groups: dict[str, Optional[frozenset]]
    ) -> tuple[dict[str, Database], list[str]]:
        """Split the plan into cache-served answers and remaining sites."""
        results: dict[str, Database] = {}
        misses: list[str] = []
        for site, wanted in groups.items():
            hit = self._cached(site, wanted)
            if hit is not None:
                results[site] = hit
            else:
                misses.append(site)
        return results, misses

    def _cached(self, site: str, wanted: Optional[frozenset]) -> Optional[Database]:
        ttl = self.snapshot_ttl
        if ttl is None:
            return None
        with self._lock:
            entry = self._cache.get(site)
            link = self.links[site]
            if entry is not None:
                fetched_at, covered, db = entry
                fresh = link.clock - fetched_at <= ttl
                covers = covered is None or (
                    wanted is not None and wanted <= covered
                )
                if fresh and covers:
                    self.cache_hits += 1
                    if wanted is not None and covered != wanted:
                        return db.restricted_to(set(wanted))
                    return db
            self.cache_misses += 1
            return None

    def _store(self, site: str, wanted: Optional[frozenset], db: Database) -> None:
        if self.snapshot_ttl is None:
            return
        with self._lock:
            self._cache[site] = (self.links[site].clock, wanted, db.copy())

    def _merge(
        self, groups: dict[str, Optional[frozenset]], results: dict[str, Database]
    ) -> Database:
        merged = Database()
        for site in groups:
            db = results[site]
            for predicate in db.predicates():
                for fact in db.facts(predicate):
                    merged.insert(predicate, fact)
        return merged

    @staticmethod
    def _failure(
        failures: dict[str, RemoteUnavailableError], total: int
    ) -> RemoteUnavailableError:
        reasons = {exc.reason for exc in failures.values()}
        reason = reasons.pop() if len(reasons) == 1 else "federated"
        detail = "; ".join(
            f"{site}: {failures[site]}" for site in sorted(failures)
        )
        return RemoteUnavailableError(
            f"{len(failures)}/{total} federated site fetch(es) failed: {detail}",
            reason=reason,
            sites=failures,
        )

    # -- fetching ---------------------------------------------------------------
    def fetch(self, predicates: Iterable[str] | None = None) -> Database:
        """Fetch (and merge) the snapshots of every site the restriction
        touches; raises with ``sites`` naming the failed subset.

        The sites are fetched one after another and the federation clock
        advances by the slowest site's latency delta.  Every site is
        attempted even after another has failed, so the failure
        attribution is complete and the successes are cached.
        """
        groups = self._split(predicates)
        results, misses = self._serve_cached(groups)
        failures: dict[str, RemoteUnavailableError] = {}
        deltas: dict[str, float] = {}
        if len(misses) > 1:
            with self._lock:
                self.fanouts += 1
                self.fanout_fetches += len(misses)
        for site in misses:
            link = self.links[site]
            before = link.clock
            wanted = groups[site]
            try:
                db = link.fetch(
                    predicates=sorted(wanted) if wanted is not None else None
                )
            except RemoteUnavailableError as exc:
                failures[site] = exc
            else:
                results[site] = db
                self._store(site, wanted, db)
            deltas[site] = link.clock - before
        if deltas:
            with self._lock:
                self.clock += max(deltas.values())
        if failures:
            raise self._failure(failures, len(groups))
        return self._merge(groups, results)

    # -- aggregate accounting / lifecycle ----------------------------------------
    @property
    def stats(self) -> LinkStats:
        """Per-site link statistics summed across the federation (the
        gauges :func:`~repro.distributed.stats.sync_session_gauges`
        mirrors into :class:`~repro.distributed.stats.ProtocolStats`)."""
        total = LinkStats()
        for link in self.links.values():
            for spec in fields(LinkStats):
                setattr(
                    total,
                    spec.name,
                    getattr(total, spec.name) + getattr(link.stats, spec.name),
                )
        return total

    @property
    def state(self) -> BreakerState:
        """The worst per-site breaker state (OPEN > HALF_OPEN > CLOSED)."""
        order = [BreakerState.CLOSED, BreakerState.HALF_OPEN, BreakerState.OPEN]
        return max((link.state for link in self.links.values()), key=order.index)

    @property
    def available(self) -> bool:
        """Would a fan-out right now at least try every site?"""
        return all(link.available for link in self.links.values())

    def summary_rows(self) -> list[tuple[str, object]]:
        rows = self.stats.summary_rows()
        rows.append(("federated fan-outs", self.fanouts))
        rows.append(("federated fan-out site fetches", self.fanout_fetches))
        rows.append(("snapshot cache hits", self.cache_hits))
        rows.append(("snapshot cache misses", self.cache_misses))
        return rows

    def state_dict(self) -> dict:
        """Per-site link states plus the federation's own counters.

        The verified-snapshot cache is deliberately *not* captured: a
        journalled run disables caching (``--snapshot-ttl`` is rejected
        with ``--journal``), because a resume that re-fetched what the
        crashed run served from cache would diverge fetch-for-fetch.
        """
        return {
            "links": {
                site: link.state_dict() for site, link in self.links.items()
            },
            "clock": self.clock,
            "fanouts": self.fanouts,
            "fanout_fetches": self.fanout_fetches,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def restore_state(self, state: dict) -> None:
        for site, link_state in state["links"].items():
            if site not in self.links:
                raise ValueError(f"state names unknown federated site {site!r}")
            self.links[site].restore_state(link_state)
        self.clock = state["clock"]
        self.fanouts = state["fanouts"]
        self.fanout_fetches = state["fanout_fetches"]
        self.cache_hits = state["cache_hits"]
        self.cache_misses = state["cache_misses"]


def resolve_escalation_link(
    sites,
    remote_links: Optional[Mapping[str, RemoteLink]] = None,
    snapshot_ttl: Optional[float] = None,
) -> Optional[RemoteLink | FederationLink]:
    """The escalation link for a
    :class:`~repro.distributed.site.FederatedDatabase` *sites*.

    With a single remote and no *snapshot_ttl* its entry in
    *remote_links* is used as-is, and ``None`` (no entry) means the
    checker fetches from the raw metered ``snapshot`` of the site.
    Otherwise the result is a :class:`FederationLink` — with one remote,
    a one-site federation, which is where the snapshot cache lives: each
    site gets its entry from *remote_links* or, when absent, a default
    fault-free :class:`RemoteLink` wrapper.
    """
    remotes = sites.remotes
    remote_links = remote_links or {}
    unknown = set(remote_links) - set(remotes)
    if unknown:
        raise ValueError(f"remote_links names unknown sites: {sorted(unknown)}")
    if len(remotes) == 1 and snapshot_ttl is None:
        return remote_links.get(next(iter(remotes)))
    links = {
        name: remote_links.get(name) or RemoteLink(site)
        for name, site in remotes.items()
    }
    return FederationLink(links, sites.site_of, snapshot_ttl=snapshot_ttl)
