"""The static half of the checking pipeline: compile constraints once.

Everything about a constraint set that does not depend on the database or
the concrete update values is decided here, ahead of any checking:

* **Subsumption verdicts** (Theorem 3.1): which constraints never need
  checking while the rest of the set is maintained.
* **Local-test plans**: for each (constraint, updated predicate) pair,
  which complete local test of Sections 5/6 applies — the Theorem 5.3
  algebra, the Fig. 6.1 interval machinery, the box sweep, the
  Theorem 5.2 containment (with its statically assumed companion
  reductions), the per-disjunct union variant — or none.  The CQC-form
  analysis, ICQ analysis, and test-object construction all happen once.
* **Level-1 verdicts** (Section 4 rewrite-and-containment) are cached in
  a bounded LRU keyed by the exact update, with hit/miss accounting —
  update streams repeat shapes, and the verdict is database-independent.

The execution half lives in :class:`~repro.core.session.CheckSession`
(stateful, stream-oriented) and the thin
:class:`~repro.core.engine.PartialInfoChecker` facade (stateless,
per-call databases).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import (
    NotApplicableError,
    ReproError,
    UndecidableError,
    UnsupportedClassError,
)
from repro.constraints.classify import SitePlacement, minimal_site_needs
from repro.constraints.constraint import Constraint, ConstraintSet
from repro.constraints.subsumption import subsumes
from repro.datalog.database import Database
from repro.datalog.rules import Rule
from repro.localtests.algebraic import AlgebraicLocalTest
from repro.localtests.complete import ContainmentLocalTest
from repro.localtests.icq import BoxLocalTest, IntervalLocalTest, analyze_icq
from repro.localtests.interval_datalog import IntervalDatalogTest
from repro.localtests.reduction import check_cqc_form
from repro.updates.independence import cannot_cause_violation
from repro.updates.update import Update

__all__ = ["ConstraintCompiler", "CompiledConstraint", "LocalTestPlan", "LRUCache"]

#: Default bound for the per-constraint level-1 verdict cache.  Keyed per
#: exact update, the cache would otherwise grow without limit under
#: streams of distinct tuples.
LEVEL1_CACHE_SIZE = 256

_MISSING = object()


class LRUCache:
    """A small bounded mapping with least-recently-used eviction.

    Keys may be temporarily :meth:`pin`\\ ned: a pinned entry is never
    evicted, even when the cache is over its bound (the overshoot is
    reclaimed by :meth:`trim` once the pins are released).  The
    deferred-verdict drain uses this to keep the materializations its
    queued entries reference alive across the whole quarantine /
    settle / redo cycle.
    """

    __slots__ = ("maxsize", "hits", "misses", "_data", "_pinned")

    def __init__(self, maxsize: int = LEVEL1_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()
        self._pinned: set = set()

    def get(self, key, default=None):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return default
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> list[tuple]:
        """Store *key*; returns the ``(key, value)`` pairs evicted to make
        room (empty for most calls)."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        return self._evict_over_bound()

    def _evict_over_bound(self) -> list[tuple]:
        evicted: list[tuple] = []
        if len(self._data) <= self.maxsize:
            return evicted
        for key in list(self._data.keys()):
            if len(self._data) <= self.maxsize:
                break
            if key in self._pinned:
                continue
            evicted.append((key, self._data.pop(key)))
        return evicted

    # -- pinning ---------------------------------------------------------------
    def pin(self, key) -> None:
        """Exempt *key* from eviction until :meth:`unpin`."""
        self._pinned.add(key)

    def unpin(self, key) -> None:
        """Release a pin (the entry stays cached until a :meth:`trim` or
        a later :meth:`put` reclaims any overshoot)."""
        self._pinned.discard(key)

    @contextmanager
    def pinning(self, keys: Iterable):
        """Pin *keys* for the duration of a ``with`` block.

        The pins are released even when the body raises, so an exception
        mid-drain can no longer leak a pinned entry and silently shrink
        the effective cache capacity forever.  Any overshoot the pins
        protected is left for the caller's :meth:`trim` (or the next
        :meth:`put`) to reclaim — callers account evictions.  Yields the
        list of pinned keys (a snapshot of *keys*).
        """
        pinned = list(keys)
        for key in pinned:
            self._pinned.add(key)
        try:
            yield pinned
        finally:
            for key in pinned:
                self._pinned.discard(key)

    @property
    def pinned(self) -> frozenset:
        return frozenset(self._pinned)

    def trim(self) -> list[tuple]:
        """Evict least-recently-used unpinned entries down to the bound;
        returns the evicted ``(key, value)`` pairs."""
        return self._evict_over_bound()

    def pop(self, key, default=None):
        """Remove and return *key*'s value without touching the counters."""
        return self._data.pop(key, default)

    def __getitem__(self, key):
        """Raw access: no counter updates, no recency bump."""
        return self._data[key]

    def keys(self):
        return self._data.keys()

    def values(self):
        """Current values, least recently used first (no counter updates)."""
        return self._data.values()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def info(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "maxsize": self.maxsize,
        }


@dataclass
class LocalTestPlan:
    """The precompiled complete local test for one (constraint, predicate).

    ``kind`` is one of ``"none"``, ``"algebraic"``, ``"interval"``,
    ``"interval-datalog"``, ``"box"``, ``"containment"``, or
    ``"union-containment"``; :meth:`run_against` executes the corresponding
    test against concrete inserted values and the stored local relation.
    """

    kind: str
    predicate: str
    rule: Optional[Rule] = None
    algebraic_test: Optional[AlgebraicLocalTest] = None
    analysis: object = None
    #: the Section 6 test over the ICQ analysis: the maintained interval
    #: union (``"interval"``), the generated Fig. 6.1 program
    #: (``"interval-datalog"``) or the box sweep (``"box"``)
    interval_test: IntervalLocalTest | IntervalDatalogTest | BoxLocalTest | None = None
    #: the Theorem 5.2 tests, all of which must pass: one for
    #: ``"containment"``, one per disjunct for ``"union-containment"``
    containment_tests: Sequence[ContainmentLocalTest] = ()

    def run_against(self, values: tuple, local_db: Database) -> Optional[bool]:
        """Execute the plan for inserted *values* against *local_db*;
        ``None`` when no local test applies.  Every test reads the live
        relation itself: the algebraic and containment tests by index
        probes, the interval test from its maintained union."""
        if self.kind == "none":
            return None
        if self.kind == "algebraic":
            return self.algebraic_test.passes_in(values, local_db)
        if self.kind in ("containment", "union-containment"):
            return all(
                test.passes_in(values, local_db) for test in self.containment_tests
            )
        return self.interval_test.passes_in(values, local_db)


@dataclass
class CompiledConstraint:
    """Per-constraint precomputation: subsumption status, cached level-1
    verdicts, and lazily built per-predicate local-test plans."""

    constraint: Constraint
    subsumed: bool = False
    level1_cache: LRUCache = field(default_factory=LRUCache)
    plans: dict[str, LocalTestPlan] = field(default_factory=dict)
    #: the minimal set of remote sites whose data can settle this
    #: constraint (owners of its non-local predicates); empty when the
    #: constraint is purely local and never escalates
    site_needs: frozenset[str] = frozenset()


class ConstraintCompiler:
    """Compile a constraint set for a site once; execute many times.

    Parameters mirror the old ``PartialInfoChecker`` constructor: the
    constraint set (assumed to hold initially), the predicates stored at
    this site, and whether single-variable ICQs should run the generated
    Fig. 6.1 datalog program instead of the direct interval algebra.

    One compiler may be shared by sessions running on several threads
    (the parallel sharded checker does exactly that): the static
    compilation products are immutable after ``__init__``, and the two
    mutable caches — the per-constraint level-1 LRU and the lazily built
    plan dicts — are guarded by an internal lock, since an LRU hit is a
    multi-step ``OrderedDict`` mutation.  Call :meth:`prewarm` before
    fanning out to also force the lazily initialized per-constraint
    engines and classifications on one thread.
    """

    def __init__(
        self,
        constraints: ConstraintSet | Iterable[Constraint],
        local_predicates: Iterable[str],
        use_interval_datalog: bool = False,
        level1_cache_size: int = LEVEL1_CACHE_SIZE,
        site_of: SitePlacement = None,
    ) -> None:
        if not isinstance(constraints, ConstraintSet):
            constraints = ConstraintSet(constraints)
        self.constraints = constraints
        self.local_predicates = frozenset(local_predicates)
        self.use_interval_datalog = use_interval_datalog
        self.level1_cache_size = level1_cache_size
        #: the federation placement (predicate -> owning remote site name,
        #: None for local); with no placement every non-local predicate is
        #: charged to the single default remote — the two-site case
        self.site_of = site_of
        #: guards the level-1 LRUs and the lazy plan dicts under
        #: multi-threaded session access (re-entrant: plan building may
        #: consult level1 helpers)
        self._lock = threading.RLock()
        self._compiled: dict[str, CompiledConstraint] = {}
        #: per-predicate cache for :meth:`single_binding`
        self._single_binding: dict[str, bool] = {}
        for constraint in constraints:
            compiled = CompiledConstraint(
                constraint, level1_cache=LRUCache(level1_cache_size)
            )
            others = constraints.others(constraint)
            if others:
                try:
                    compiled.subsumed = subsumes(others, constraint)
                except (UndecidableError, UnsupportedClassError):
                    compiled.subsumed = False
            compiled.site_needs = minimal_site_needs(
                constraint.predicates(), self.local_predicates, site_of
            )
            self._compiled[constraint.name] = compiled

    # -- lookups ---------------------------------------------------------------
    def compiled(self, constraint: Constraint | str) -> CompiledConstraint:
        name = constraint if isinstance(constraint, str) else constraint.name
        return self._compiled[name]

    def is_local_constraint(self, constraint: Constraint) -> bool:
        """True when the constraint reads only local predicates."""
        return constraint.predicates() <= self.local_predicates

    def mentions(self, constraint: Constraint, predicate: str) -> bool:
        return predicate in constraint.predicates()

    def site_needs(self, constraint: Constraint | str) -> frozenset[str]:
        """The minimal set of remote sites that can settle *constraint*
        (precomputed from the placement; empty = purely local)."""
        return self.compiled(constraint).site_needs

    def predicate_sites(self, predicates: Iterable[str]) -> frozenset[str]:
        """The remote sites owning the non-local members of *predicates*
        — the sites a fetch restricted to them must reach."""
        return minimal_site_needs(predicates, self.local_predicates, self.site_of)

    def single_binding(self, predicate: str) -> bool:
        """Do updates of *predicate* commute with each other?

        True when every constraint mentioning *predicate* binds at most
        one positive atom of it in a single rule and never negates it:
        then each tuple's violation status is decided by its own atom
        binding — another tuple of the same relation can only ever *add*
        a level-2 witness, never flip an outcome — so two such updates
        can be settled in either order.  Multi-rule (or recursive)
        programs are conservatively refused: an intermediate predicate
        could smuggle in a second binding.  The verdict is static;
        cached per predicate.
        """
        with self._lock:
            cached = self._single_binding.get(predicate)
            if cached is not None:
                return cached
        verdict = True
        for constraint in self.constraints:
            if predicate not in constraint.predicates():
                continue
            rules = constraint.program.rules
            if len(rules) != 1:
                verdict = False
                break
            rule = rules[0]
            positives = sum(
                1 for atom in rule.positive_atoms
                if atom.predicate == predicate
            )
            negatives = sum(
                1 for neg in rule.negations if neg.predicate == predicate
            )
            if negatives or positives > 1:
                verdict = False
                break
        with self._lock:
            self._single_binding[predicate] = verdict
        return verdict

    # -- level 1 ---------------------------------------------------------------
    def level1_verdict(self, constraint: Constraint, update: Update) -> bool:
        """Cached Section 4 independence verdict for one exact update."""
        with self._lock:
            compiled = self._compiled[constraint.name]
            # Updates are frozen dataclasses: hashable, with equality
            # distinguishing kind/predicate/values — exactly the cache
            # identity, without rendering str(update) on every lookup.
            key = update
            verdict = compiled.level1_cache.get(key, _MISSING)
            if verdict is not _MISSING:
                return verdict
            try:
                verdict = cannot_cause_violation(
                    constraint, update, self.constraints.others(constraint)
                )
            except (UndecidableError, UnsupportedClassError, NotApplicableError):
                verdict = False
            compiled.level1_cache.put(key, verdict)
            return verdict

    def level1_cache_info(self) -> dict:
        """Aggregate hit/miss/size statistics across all constraints."""
        total = {"hits": 0, "misses": 0, "size": 0, "maxsize": 0}
        with self._lock:
            for compiled in self._compiled.values():
                info = compiled.level1_cache.info()
                for key in total:
                    total[key] += info[key]
        return total

    # -- level 2 plans -----------------------------------------------------------
    def local_test_plan(self, constraint: Constraint, predicate: str) -> LocalTestPlan:
        """The (cached) complete-local-test plan for insertions into
        *predicate* under *constraint*."""
        with self._lock:
            compiled = self._compiled[constraint.name]
            plan = compiled.plans.get(predicate)
            if plan is None:
                plan = self._build_plan(compiled, predicate)
                compiled.plans[predicate] = plan
            return plan

    # -- thread preparation ------------------------------------------------------
    def prewarm(self) -> None:
        """Force the remaining lazy per-constraint state on this thread.

        Constraints initialize their datalog :class:`Engine`, panic
        polarities, and class label lazily on first use; those
        initializations are idempotent but wasteful to race.  The
        parallel sharded checker calls this once before fanning sessions
        out to worker threads.
        """
        for compiled in self._compiled.values():
            constraint = compiled.constraint
            try:
                constraint.engine.panic_polarities()
            except ReproError:
                pass
            try:
                constraint.constraint_class
            except ReproError:
                pass

    def _build_plan(
        self, compiled: CompiledConstraint, predicate: str
    ) -> LocalTestPlan:
        constraint = compiled.constraint
        if not constraint.is_single_rule:
            return self._build_union_plan(constraint, predicate)
        rule = constraint.as_rule()
        try:
            check_cqc_form(rule, predicate)
        except NotApplicableError:
            return LocalTestPlan("none", predicate)
        # The CQC form requires every predicate other than the update's to
        # be remote-or-local; the complete local test additionally needs
        # the non-updated subgoals to be remote (a second local subgoal
        # would make the reduction unsound to skip).
        other_preds = {
            atom.predicate
            for atom in rule.ordinary_subgoals
            if atom.predicate != predicate
        }
        if other_preds & self.local_predicates:
            return LocalTestPlan("none", predicate)

        # Fast path 1: arithmetic-free -> Theorem 5.3 algebra.
        if not rule.comparisons:
            return LocalTestPlan(
                "algebraic",
                predicate,
                rule=rule,
                algebraic_test=AlgebraicLocalTest(rule, predicate),
            )

        # Fast path 2: single-variable ICQ -> intervals (Fig. 6.1).
        try:
            analysis = analyze_icq(rule, predicate)
        except NotApplicableError:
            analysis = None
        if analysis is not None:
            remote_args_ok = all(
                arg in analysis.remote_variables
                for atom in analysis.variants[0].rule.ordinary_subgoals
                if atom.predicate != predicate
                for arg in atom.args
            )
            if remote_args_ok and analysis.single_variable is not None:
                if self.use_interval_datalog:
                    return LocalTestPlan(
                        "interval-datalog",
                        predicate,
                        rule=rule,
                        analysis=analysis,
                        interval_test=IntervalDatalogTest(analysis),
                    )
                return LocalTestPlan(
                    "interval",
                    predicate,
                    rule=rule,
                    analysis=analysis,
                    interval_test=IntervalLocalTest(analysis),
                )
            if remote_args_ok:
                # Several independently constrained remote variables:
                # coverage of a box by a union of boxes (Section 6's
                # generalization beyond the single-interval case).
                return LocalTestPlan(
                    "box",
                    predicate,
                    rule=rule,
                    analysis=analysis,
                    interval_test=BoxLocalTest(analysis),
                )

        # General CQC: Theorem 5.2, with the companion constraints'
        # reductions statically selected.
        assumed = [
            other.as_rule()
            for other in self.constraints.others(constraint)
            if other.is_single_rule and self._shares_local_form(other, predicate)
        ]
        return LocalTestPlan(
            "containment",
            predicate,
            rule=rule,
            containment_tests=(ContainmentLocalTest(rule, predicate, assumed),),
        )

    def _build_union_plan(
        self, constraint: Constraint, predicate: str
    ) -> LocalTestPlan:
        """Theorem 5.2 extended to union-of-CQC constraints.

        A union constraint held before the update iff *no* disjunct fired,
        so each disjunct's reduction may be tested against the reductions
        of every disjunct ("we then add to the union on the right the
        reductions of the other constraints by all tuples in L").
        """
        try:
            disjuncts = constraint.as_union()
        except (NotApplicableError, ReproError):
            return LocalTestPlan("none", predicate)
        usable: list[Rule] = []
        for disjunct in disjuncts:
            if predicate not in {a.predicate for a in disjunct.ordinary_subgoals}:
                # A disjunct not mentioning the updated relation cannot
                # acquire a new firing from this insertion.
                continue
            try:
                check_cqc_form(disjunct, predicate)
            except NotApplicableError:
                return LocalTestPlan("none", predicate)
            other_preds = {
                atom.predicate
                for atom in disjunct.ordinary_subgoals
                if atom.predicate != predicate
            }
            if other_preds & self.local_predicates:
                return LocalTestPlan("none", predicate)
            usable.append(disjunct)
        tests = tuple(
            ContainmentLocalTest(
                disjunct, predicate, [d for d in usable if d is not disjunct]
            )
            for disjunct in usable
        )
        return LocalTestPlan("union-containment", predicate, containment_tests=tests)

    def _shares_local_form(self, constraint: Constraint, predicate: str) -> bool:
        try:
            check_cqc_form(constraint.as_rule(), predicate)
        except (NotApplicableError, ReproError):
            return False
        other_preds = {
            atom.predicate
            for atom in constraint.as_rule().ordinary_subgoals
            if atom.predicate != predicate
        }
        return not (other_preds & self.local_predicates)

    # -- explanation -------------------------------------------------------------
    def explain(self, constraint: Constraint, predicate: str) -> str:
        """Describe the level-2 strategy an insertion into *predicate*
        would use for *constraint* — for operators and tests.

        One of: ``"subsumed"``, ``"purely-local"``, ``"algebraic"``
        (Theorem 5.3), ``"interval"`` (Fig. 6.1), ``"box"``,
        ``"containment"`` (Theorem 5.2), ``"union-containment"``
        (Theorem 5.2 per disjunct), or ``"none"``.
        """
        compiled = self._compiled[constraint.name]
        if compiled.subsumed:
            return "subsumed"
        if self.is_local_constraint(constraint):
            return "purely-local"
        plan = self.local_test_plan(constraint, predicate)
        if plan.kind == "interval-datalog":
            return "interval"
        return plan.kind
