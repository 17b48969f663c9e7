"""The extensional database: named relations holding tuples of values.

Tuples contain raw Python values (``int``/``float``/``Fraction``/``str``),
not AST :class:`~repro.datalog.terms.Constant` wrappers — the engine wraps
and unwraps at the boundary.  Relations are sets, matching the paper's
set semantics.

Three mechanisms support the incremental check sessions:

* **Copy-on-write snapshots.** :meth:`Relation.copy` (and therefore
  :meth:`Database.copy` / :meth:`Database.restricted_to` /
  :meth:`Database.snapshot`) shares tuples *and* lazily built column
  indexes with the original until either side mutates, so taking a
  snapshot per checked update is O(#relations), not O(#tuples), and a
  copy never pays re-indexing for indexes the original already built.
* **Maintained structures.** :meth:`Relation.maintained` attaches a
  structure derived from the tuples (the Fig. 6.1 interval union of
  :class:`~repro.localtests.icq.IntervalLocalTest`) that every later
  insert and delete keeps current, so a test reads it instead of the
  tuples (DESIGN.md §17).
* **Deltas.** A :class:`Delta` names the tuples inserted into and
  deleted from each predicate.  :meth:`Database.apply` applies one and
  returns an :class:`UndoToken` recording the *effective* changes (facts
  genuinely added/removed), which both :meth:`Database.undo` and the
  incremental view maintenance in :mod:`repro.datalog.evaluation` key
  off.
"""

from __future__ import annotations

from sys import intern as _intern
from typing import Iterable, Iterator, Mapping

from repro.errors import EvaluationError

__all__ = [
    "Relation",
    "Database",
    "Delta",
    "UndoToken",
    "intern_fact",
    "merged_view",
]

Fact = tuple


def intern_fact(fact: Iterable) -> Fact:
    """Canonicalize a fact tuple for storage.

    String components are interned so the equality probes the join inner
    loop performs per candidate short-circuit on object identity, and so
    long update streams repeating the same keys share one copy of each
    string.  Non-string values (and str subclasses, which ``sys.intern``
    rejects) pass through untouched.
    """
    return tuple(_intern(v) if type(v) is str else v for v in fact)


class Relation:
    """A named, fixed-arity set of tuples with optional hash indexes.

    Indexes are built lazily per column and invalidated on mutation; they
    are what makes the local tests "use the structure of the database"
    (Section 1's point about expressibility in the query language).

    Copies share tuples, indexes and maintained structures copy-on-write:
    the first mutation on either side makes that side's structures
    private.  :meth:`lookup` results are memoized as frozensets per
    ``(column, value)`` and the affected entries are dropped on mutation,
    so repeated probes during a join do not re-allocate.
    """

    __slots__ = (
        "name",
        "arity",
        "_tuples",
        "_indexes",
        "_lookup_cache",
        "_facts_cache",
        "_shared",
        "_maintained",
    )

    def __init__(self, name: str, arity: int, tuples: Iterable[Fact] = ()) -> None:
        self.name = name
        self.arity = arity
        self._tuples: set[Fact] = set()
        self._indexes: dict[int, dict[object, set[Fact]]] = {}
        self._lookup_cache: dict[tuple[int, object], frozenset] = {}
        self._facts_cache: frozenset | None = None
        self._shared = False
        self._maintained: dict | None = None
        for fact in tuples:
            self.insert(fact)

    # -- copy-on-write -------------------------------------------------------
    def _unshare(self) -> None:
        """Make this side's structures private before the first mutation."""
        self._tuples = set(self._tuples)
        self._indexes = {
            column: {value: set(bucket) for value, bucket in index.items()}
            for column, index in self._indexes.items()
        }
        self._lookup_cache = dict(self._lookup_cache)
        if self._maintained is not None:
            self._maintained = {
                key: structure.copy() for key, structure in self._maintained.items()
            }
        self._shared = False

    def _maintain(self, fact: Fact, inserting: bool) -> None:
        """Pass *fact*'s insert or delete to every maintained structure,
        before the tuples change.  A structure raises before it changes
        itself; if one raises, the others may already have changed, so
        all are dropped and rebuilt from the tuples on next use."""
        try:
            for structure in self._maintained.values():
                if inserting:
                    structure.insert(fact)
                else:
                    structure.delete(fact)
        except Exception:
            self._maintained = None
            raise

    # -- mutation ------------------------------------------------------------
    def insert(self, fact: Fact) -> bool:
        """Add a tuple; returns True when it was not already present."""
        fact = intern_fact(fact)
        if len(fact) != self.arity:
            raise EvaluationError(
                f"relation {self.name}/{self.arity} cannot hold tuple of length {len(fact)}"
            )
        if fact in self._tuples:
            return False
        if self._shared:
            self._unshare()
        if self._maintained is not None:
            self._maintain(fact, inserting=True)
        self._facts_cache = None
        self._tuples.add(fact)
        for column, index in self._indexes.items():
            index.setdefault(fact[column], set()).add(fact)
        if self._lookup_cache:
            for column in range(self.arity):
                self._lookup_cache.pop((column, fact[column]), None)
        return True

    def delete(self, fact: Fact) -> bool:
        """Remove a tuple; returns True when it was present."""
        fact = tuple(fact)
        if fact not in self._tuples:
            return False
        if self._shared:
            self._unshare()
        if self._maintained is not None:
            self._maintain(fact, inserting=False)
        self._facts_cache = None
        self._tuples.discard(fact)
        for column, index in self._indexes.items():
            bucket = index.get(fact[column])
            if bucket is not None:
                bucket.discard(fact)
                if not bucket:
                    del index[fact[column]]
        if self._lookup_cache:
            for column in range(self.arity):
                self._lookup_cache.pop((column, fact[column]), None)
        return True

    # -- access ----------------------------------------------------------------
    def __contains__(self, fact: Fact) -> bool:
        return tuple(fact) in self._tuples

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def lookup(self, column: int, value: object) -> frozenset[Fact]:
        """Return all tuples whose *column* equals *value*, via an index.

        The returned frozenset is cached until a mutation touches that
        ``(column, value)`` bucket, so hot joins probing the same keys
        pay one allocation, not one per call.
        """
        key = (column, value)
        cached = self._lookup_cache.get(key)
        if cached is not None:
            return cached
        index = self._indexes.get(column)
        if index is None:
            index = {}
            for fact in self._tuples:
                index.setdefault(fact[column], set()).add(fact)
            self._indexes[column] = index
        result = frozenset(index.get(value, ()))
        self._lookup_cache[key] = result
        return result

    def as_frozenset(self) -> frozenset[Fact]:
        """All tuples as a frozenset, memoized until the next mutation.

        The semi-naive evaluator calls :meth:`Database.facts` once per
        unindexed subgoal probe; without memoization each call allocated
        a fresh frozenset over the whole relation.
        """
        cached = self._facts_cache
        if cached is None:
            cached = self._facts_cache = frozenset(self._tuples)
        return cached

    def maintained(self, key: object, build):
        """The structure registered under *key*, built by ``build(self)``
        on first use.

        A structure is any object with ``insert(fact)``, ``delete(fact)``
        and ``copy()``; ``insert`` and ``delete`` raise, if at all, before
        changing it.  Every later :meth:`insert` and :meth:`delete` of a
        new or stored tuple calls it before the tuples change, so it
        stays a function of the tuples; a copy shares it until either
        side mutates.
        """
        structures = self._maintained
        if structures is None:
            structures = self._maintained = {}
        structure = structures.get(key)
        if structure is None:
            structure = structures[key] = build(self)
        return structure

    def copy(self) -> "Relation":
        """A copy-on-write snapshot sharing tuples, built indexes and
        maintained structures."""
        clone = Relation.__new__(Relation)
        clone.name = self.name
        clone.arity = self.arity
        clone._tuples = self._tuples
        clone._indexes = self._indexes
        clone._lookup_cache = self._lookup_cache
        clone._facts_cache = self._facts_cache
        clone._maintained = self._maintained
        clone._shared = True
        self._shared = True
        return clone

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, arity={self.arity}, size={len(self)})"


class Delta:
    """A set of insertions and deletions per predicate.

    Normalized so a fact is never pending both ways: inserting a fact
    cancels a pending deletion of it and vice versa (last write wins,
    matching sequential application).
    """

    __slots__ = ("insertions", "deletions")

    def __init__(
        self,
        insertions: Mapping[str, Iterable[Fact]] | None = None,
        deletions: Mapping[str, Iterable[Fact]] | None = None,
    ) -> None:
        self.insertions: dict[str, set[Fact]] = {}
        self.deletions: dict[str, set[Fact]] = {}
        if deletions:
            for predicate, facts in deletions.items():
                for fact in facts:
                    self.delete(predicate, fact)
        if insertions:
            for predicate, facts in insertions.items():
                for fact in facts:
                    self.insert(predicate, fact)

    # -- construction --------------------------------------------------------
    def insert(self, predicate: str, fact: Fact) -> "Delta":
        fact = tuple(fact)
        pending = self.deletions.get(predicate)
        if pending and fact in pending:
            pending.discard(fact)
            if not pending:
                del self.deletions[predicate]
        self.insertions.setdefault(predicate, set()).add(fact)
        return self

    def delete(self, predicate: str, fact: Fact) -> "Delta":
        fact = tuple(fact)
        pending = self.insertions.get(predicate)
        if pending and fact in pending:
            pending.discard(fact)
            if not pending:
                del self.insertions[predicate]
        self.deletions.setdefault(predicate, set()).add(fact)
        return self

    # -- views ---------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self.insertions and not self.deletions

    def __bool__(self) -> bool:
        return not self.is_empty()

    def predicates(self) -> set[str]:
        return set(self.insertions) | set(self.deletions)

    def inverted(self) -> "Delta":
        """The delta that undoes this one (assuming it applied cleanly)."""
        inverse = Delta()
        for predicate, facts in self.insertions.items():
            inverse.deletions[predicate] = set(facts)
        for predicate, facts in self.deletions.items():
            inverse.insertions[predicate] = set(facts)
        return inverse

    def size(self) -> int:
        total = sum(len(facts) for facts in self.insertions.values())
        total += sum(len(facts) for facts in self.deletions.values())
        return total

    def __repr__(self) -> str:
        parts = []
        for predicate, facts in sorted(self.insertions.items()):
            parts.extend(f"+{predicate}{fact!r}" for fact in sorted(facts, key=repr))
        for predicate, facts in sorted(self.deletions.items()):
            parts.extend(f"-{predicate}{fact!r}" for fact in sorted(facts, key=repr))
        return f"Delta({', '.join(parts)})"


class UndoToken:
    """The *effective* changes one :meth:`Database.apply` made.

    Insertions of already-present facts and deletions of absent facts do
    not appear here, so :meth:`Database.undo` restores exactly the prior
    state, and :meth:`as_delta` is the precise delta for incremental view
    maintenance.
    """

    __slots__ = ("insertions", "deletions")

    def __init__(
        self,
        insertions: dict[str, set[Fact]],
        deletions: dict[str, set[Fact]],
    ) -> None:
        self.insertions = insertions
        self.deletions = deletions

    def is_noop(self) -> bool:
        return not self.insertions and not self.deletions

    def as_delta(self) -> Delta:
        delta = Delta()
        for predicate, facts in self.insertions.items():
            delta.insertions[predicate] = set(facts)
        for predicate, facts in self.deletions.items():
            delta.deletions[predicate] = set(facts)
        return delta

    def inverted_delta(self) -> Delta:
        return self.as_delta().inverted()

    def __repr__(self) -> str:
        return f"UndoToken({self.as_delta()!r})"


class Database:
    """A collection of named relations.

    Relations are created on first use; arity is checked on every insert.
    """

    __slots__ = ("_relations",)

    def __init__(self, contents: Mapping[str, Iterable[Fact]] | None = None) -> None:
        self._relations: dict[str, Relation] = {}
        if contents:
            for name, facts in contents.items():
                for fact in facts:
                    self.insert(name, fact)

    # -- mutation ------------------------------------------------------------
    def insert(self, predicate: str, fact: Fact) -> bool:
        """Insert a fact, creating the relation on first use."""
        fact = tuple(fact)
        relation = self._relations.get(predicate)
        if relation is None:
            relation = Relation(predicate, len(fact))
            self._relations[predicate] = relation
        return relation.insert(fact)

    def delete(self, predicate: str, fact: Fact) -> bool:
        relation = self._relations.get(predicate)
        if relation is None:
            return False
        return relation.delete(fact)

    def apply(self, delta: Delta) -> UndoToken:
        """Apply *delta* (deletions first) and return the effective changes."""
        applied_insertions: dict[str, set[Fact]] = {}
        applied_deletions: dict[str, set[Fact]] = {}
        for predicate, facts in delta.deletions.items():
            for fact in facts:
                if self.delete(predicate, fact):
                    applied_deletions.setdefault(predicate, set()).add(fact)
        for predicate, facts in delta.insertions.items():
            for fact in facts:
                if self.insert(predicate, fact):
                    applied_insertions.setdefault(predicate, set()).add(fact)
        return UndoToken(applied_insertions, applied_deletions)

    def undo(self, token: UndoToken) -> None:
        """Reverse the effective changes recorded by :meth:`apply`."""
        for predicate, facts in token.insertions.items():
            for fact in facts:
                self.delete(predicate, fact)
        for predicate, facts in token.deletions.items():
            for fact in facts:
                self.insert(predicate, fact)

    # -- access ----------------------------------------------------------------
    def relation(self, predicate: str) -> Relation | None:
        return self._relations.get(predicate)

    def facts(self, predicate: str) -> frozenset[Fact]:
        relation = self._relations.get(predicate)
        if relation is None:
            return frozenset()
        return relation.as_frozenset()

    def contains(self, predicate: str, fact: Fact) -> bool:
        relation = self._relations.get(predicate)
        return relation is not None and tuple(fact) in relation

    def predicates(self) -> set[str]:
        return set(self._relations)

    def arity_of(self, predicate: str) -> int | None:
        relation = self._relations.get(predicate)
        return relation.arity if relation is not None else None

    def size(self) -> int:
        """Total number of facts across all relations."""
        return sum(len(rel) for rel in self._relations.values())

    def copy(self) -> "Database":
        """A copy-on-write snapshot: O(#relations) until a side mutates."""
        new = Database()
        new._relations = {name: rel.copy() for name, rel in self._relations.items()}
        return new

    def snapshot(self) -> "Database":
        """Alias for :meth:`copy`, named for the cheap-snapshot intent."""
        return self.copy()

    def restricted_to(self, predicates: Iterable[str]) -> "Database":
        """A copy containing only the given predicates (e.g. the local site)."""
        wanted = set(predicates)
        new = Database()
        new._relations = {
            name: rel.copy() for name, rel in self._relations.items() if name in wanted
        }
        return new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {name: set(rel) for name, rel in self._relations.items() if len(rel)}
        theirs = {name: set(rel) for name, rel in other._relations.items() if len(rel)}
        return mine == theirs

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}/{rel.arity}:{len(rel)}" for name, rel in sorted(self._relations.items())
        )
        return f"Database({inner})"


def merged_view(base, sources: Iterable, private: Iterable[str] = ()) -> Database:
    """*base* plus every fact of the databases in *sources* (``None``
    entries skipped), copying only the relations that change.

    A relation of *base* that receives source facts, or is named in
    *private*, is a private copy the view may be written through.  Every
    other relation is *base*'s own object, neither copied nor marked
    shared, so the next write to *base* copies nothing: read those only.
    (:meth:`Database.copy` would mark every relation of *base* shared,
    and its next write would copy the whole relation and its indexes.)
    """
    incoming: dict[str, list[frozenset]] = {}
    for source in sources:
        if source is None:
            continue
        for predicate in source.predicates():
            incoming.setdefault(predicate, []).append(source.facts(predicate))
    copied = set(incoming).union(private)
    view = Database()
    for predicate in base.predicates():
        relation = base.relation(predicate)
        if predicate in copied:
            relation = Relation(predicate, relation.arity, relation)
        view._relations[predicate] = relation
    for predicate, fact_sets in incoming.items():
        for facts in fact_sets:
            for fact in facts:
                view.insert(predicate, fact)
    return view
