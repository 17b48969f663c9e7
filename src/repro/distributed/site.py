"""Sites with access accounting — the simulated distributed database.

The paper's motivation (Section 1): "the database may be divided into
'local' and 'remote' data with respect to the site of the update.
Accessing remote data may be expensive or impossible."  The paper has no
testbed, so the reproduction substitutes a two-site simulation whose
remote site *counts accesses* and charges a configurable latency; the M1
benchmark reports remote accesses avoided by the local tests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.datalog.database import Database

__all__ = ["AccessStats", "Site", "FederatedDatabase"]


@dataclass
class AccessStats:
    """Counters for one site."""

    reads: int = 0
    tuples_read: int = 0
    writes: int = 0
    simulated_cost: float = 0.0
    #: snapshot calls, and the facts they actually shipped — with
    #: predicate-restricted snapshots this is the measure of how much
    #: narrower an escalation fetch is than a whole-database copy
    snapshots: int = 0
    snapshot_facts: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.tuples_read = 0
        self.writes = 0
        self.simulated_cost = 0.0
        self.snapshots = 0
        self.snapshot_facts = 0


class Site:
    """A named database site that meters every read and write.

    ``cost_per_read`` models the latency of touching the site; the bench
    harness sums ``simulated_cost`` rather than sleeping.

    Access is thread-safe: each metered method runs under one internal
    lock, so a snapshot taken on one thread observes a consistent
    database and consistent counters even while another thread writes.
    (Parallel shard execution snapshots sites from pool threads.)
    """

    def __init__(
        self,
        name: str,
        contents: Mapping[str, Iterable[tuple]] | Database | None = None,
        cost_per_read: float = 0.0,
    ) -> None:
        self.name = name
        if isinstance(contents, Database):
            self._db = contents.copy()
        else:
            self._db = Database(contents)
        self.cost_per_read = cost_per_read
        self.stats = AccessStats()
        self._lock = threading.Lock()

    # -- metered access -----------------------------------------------------------
    def facts(self, predicate: str) -> frozenset[tuple]:
        with self._lock:
            result = self._db.facts(predicate)
            self.stats.reads += 1
            self.stats.tuples_read += len(result)
            self.stats.simulated_cost += self.cost_per_read
            return result

    def insert(self, predicate: str, fact: tuple) -> bool:
        with self._lock:
            changed = self._db.insert(predicate, fact)
            if changed:
                self.stats.writes += 1
            return changed

    def delete(self, predicate: str, fact: tuple) -> bool:
        with self._lock:
            changed = self._db.delete(predicate, fact)
            if changed:
                self.stats.writes += 1
            return changed

    def predicates(self) -> set[str]:
        with self._lock:
            return self._db.predicates()

    def snapshot(self, predicates: Iterable[str] | None = None) -> Database:
        """A copy of the site — one read per shipped relation.

        With *predicates*, only the named relations are copied and
        metered: an escalation that needs two remote tables no longer
        pays for (or waits on) the whole remote database.
        """
        with self._lock:
            if predicates is None:
                wanted = self._db.predicates()
                copied = self._db.copy()
            else:
                wanted = set(predicates) & self._db.predicates()
                copied = self._db.restricted_to(wanted)
            shipped = copied.size()
            self.stats.reads += len(wanted)
            self.stats.tuples_read += shipped
            self.stats.snapshots += 1
            self.stats.snapshot_facts += shipped
            self.stats.simulated_cost += self.cost_per_read * max(1, len(wanted))
            return copied

    def unmetered(self) -> Database:
        """Direct access for test fixtures and ground-truth checks."""
        return self._db

    def partition(
        self, owner: "Callable[[str, tuple], int]", shards: int
    ) -> list[Database]:
        """Split this site's contents into *shards* disjoint databases.

        Each fact ``(predicate, values)`` lands in slice
        ``owner(predicate, values)``.  The slices are fresh copies; a
        sharded checker that adopts them becomes the authority over the
        site's data and this site object is thereafter only the source
        of the initial contents."""
        if shards < 1:
            raise ValueError("shards must be >= 1")
        with self._lock:
            slices = [Database() for _ in range(shards)]
            for predicate in self._db.predicates():
                for fact in self._db.facts(predicate):
                    index = owner(predicate, fact)
                    if not 0 <= index < shards:
                        raise ValueError(
                            f"owner({predicate!r}, {fact!r}) -> {index} is not a "
                            f"shard index in [0, {shards})"
                        )
                    slices[index].insert(predicate, fact)
            return slices

    def __repr__(self) -> str:
        return f"Site({self.name!r}, {self._db!r})"


class FederatedDatabase:
    """One local site plus N named remote partitions.

    Every non-local predicate is stored at exactly one remote site
    (partitioned, not replicated): :meth:`site_of` maps a predicate to
    its owning site's name, derived from each remote's contents plus the
    optional *site_predicates* declarations (which matter for relations
    that start out empty).  A non-local predicate no site declares or
    stores is charged to the first remote — with one remote that is the
    classic two-site reading, with several it is a deterministic default.

    *remotes* is a sequence of :class:`Site`\\ s (keyed by their names)
    or an explicit name-to-site mapping; names must be unique.

    *local_predicates* declares which predicates live locally; when
    omitted it is derived from the local site's contents.
    """

    def __init__(
        self,
        local: Site,
        remotes: Iterable[Site] | Mapping[str, Site],
        local_predicates: Iterable[str] | None = None,
        site_predicates: Mapping[str, Iterable[str]] | None = None,
    ) -> None:
        self.local = local
        if isinstance(remotes, Mapping):
            named = dict(remotes)
        else:
            named = {}
            for site in remotes:
                if site.name in named:
                    raise ValueError(
                        f"duplicate remote site name {site.name!r}"
                    )
                named[site.name] = site
        if not named:
            raise ValueError("a federation needs at least one remote site")
        self.remotes: dict[str, Site] = named
        self._local_predicates = (
            set(local_predicates) if local_predicates is not None else None
        )
        self._declared: dict[str, str] = {}
        for name, predicates in (site_predicates or {}).items():
            if name not in named:
                raise ValueError(f"site_predicates names unknown site {name!r}")
            for predicate in predicates:
                self._declared[predicate] = name

    @property
    def site_names(self) -> tuple[str, ...]:
        return tuple(self.remotes)

    @property
    def local_predicates(self) -> set[str]:
        if self._local_predicates is not None:
            return self._local_predicates | self.local.predicates()
        return self.local.predicates()

    def site_of(self, predicate: str) -> str | None:
        """The remote site owning *predicate*, or ``None`` when local."""
        if predicate in self.local_predicates:
            return None
        owner = self._declared.get(predicate)
        if owner is not None:
            return owner
        for name, site in self.remotes.items():
            if predicate in site.predicates():
                return name
        return next(iter(self.remotes))

    def remote_predicates(self, name: str) -> set[str]:
        """The predicates stored (or declared) at remote site *name*."""
        declared = {p for p, owner in self._declared.items() if owner == name}
        return self.remotes[name].predicates() | declared

    def full_database(self) -> Database:
        """Merge every site (meters a full snapshot of each remote)."""
        merged = self.local.unmetered().copy()
        for site in self.remotes.values():
            snapshot = site.snapshot()
            for predicate in snapshot.predicates():
                for fact in snapshot.facts(predicate):
                    merged.insert(predicate, fact)
        return merged

    def ground_truth_database(self) -> Database:
        """Merge every site without metering (for verification only)."""
        merged = self.local.unmetered().copy()
        for site in self.remotes.values():
            contents = site.unmetered()
            for predicate in contents.predicates():
                for fact in contents.facts(predicate):
                    merged.insert(predicate, fact)
        return merged

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.local!r}, "
            f"remotes={list(self.remotes)!r})"
        )

