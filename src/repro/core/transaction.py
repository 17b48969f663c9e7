"""Exact-rollback transactions over the effective-change machinery.

The paper treats constraints as invariants of the *committed* state: the
level pipeline decides update by update, but the verdicts are only
meaningful if a multi-update transaction either lands whole or leaves no
trace.  Rolling back by inverting the *requested* updates is wrong — a
redundant insertion (fact already present) inverts to a deletion of a
fact the transaction never added, destroying pre-existing data.  The
incremental checking literature makes the same point from the other
side: a simplification is only sound when the pre-state it assumed is
exactly restorable.

A :class:`Transaction` therefore accumulates the per-update
:class:`~repro.datalog.database.UndoToken`\\ s — the *effective* changes
each application actually made — and rolls back by replaying them in
reverse.  A token for a redundant insertion is empty, so rollback
restores the store byte-identically.  Maintained
:class:`~repro.datalog.evaluation.Materialization`\\ s are restored the
same way the single-update rollback in
:class:`~repro.core.session.CheckSession` does it: recorded
:class:`~repro.datalog.evaluation.MaterializationUndo`\\ s are replayed
exactly (no rule evaluation), and materializations built *after* an
entry was recorded take the entry's inverse delta through ordinary
incremental maintenance.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Protocol

from repro.datalog.database import UndoToken
from repro.datalog.evaluation import Materialization, MaterializationUndo

__all__ = [
    "Transaction",
    "TransactionStateError",
    "WritableStore",
    "rollback_token",
]


class WritableStore(Protocol):
    """Anything facts can be put into and taken out of one at a time.

    Both :class:`~repro.datalog.database.Database` and the metered
    :class:`~repro.distributed.site.Site` satisfy this, so one rollback
    path serves any store (and rolling back through a site meters the
    compensating writes like any other).
    """

    def insert(self, predicate: str, fact: tuple) -> bool: ...

    def delete(self, predicate: str, fact: tuple) -> bool: ...


#: Zero-arg callable yielding the materializations that must be kept in
#: sync with the store; consulted at rollback time so materializations
#: built mid-transaction are handled correctly.
MaterializationSource = Callable[[], Iterable[Materialization]]

MatUndos = tuple[tuple[Materialization, MaterializationUndo], ...]


class TransactionStateError(RuntimeError):
    """Raised when a finished transaction is recorded into or re-finished."""


def rollback_token(
    store: WritableStore,
    token: UndoToken,
    materializations: Iterable[Materialization] = (),
    exact_undos: Iterable[tuple[Materialization, MaterializationUndo]] = (),
) -> UndoToken:
    """Reverse one effective-change *token* against *store*.

    The single-entry building block shared by :meth:`Transaction.rollback`
    and the deferred-verdict machinery in
    :class:`~repro.core.session.CheckSession`: when an optimistically
    applied update's deferred level-3 check finally resolves to VIOLATED,
    its recorded token is reversed through here — delete what it
    inserted, re-insert what it deleted, *effectively* (pre-existing and
    since-removed facts are left alone, so an out-of-order or repeated
    reversal is safe).

    Materializations with an entry in *exact_undos* are reverted exactly
    (no rule evaluation); every other materialization in
    *materializations* takes the effective reversal through ordinary
    incremental maintenance.

    Returns the changes the reversal actually made, as a token.
    """
    reversed_insertions: dict[str, set] = {}
    reversed_deletions: dict[str, set] = {}
    for predicate, facts in token.insertions.items():
        for fact in facts:
            if store.delete(predicate, fact):
                reversed_insertions.setdefault(predicate, set()).add(fact)
    for predicate, facts in token.deletions.items():
        for fact in facts:
            if store.insert(predicate, fact):
                reversed_deletions.setdefault(predicate, set()).add(fact)
    reversed_token = UndoToken(reversed_insertions, reversed_deletions)

    exact_undos = tuple(exact_undos)
    covered = {id(mat) for mat, _ in exact_undos}
    for mat, undo in reversed(exact_undos):
        mat.revert(undo)
    inverse = None
    for mat in materializations:
        if id(mat) in covered:
            continue
        if inverse is None:
            inverse = reversed_token.inverted_delta()
        if not inverse.is_empty():
            mat.apply_delta(inverse)
    return reversed_token


class Transaction:
    """Accumulated exact-rollback state for a sequence of applied updates.

    Parameters
    ----------
    store:
        Where the updates were applied; rollback replays the recorded
        tokens against it in reverse (delete what was inserted, insert
        what was deleted — only *effective* changes, so pre-existing
        facts survive an abort untouched).
    materializations:
        Optional source of the currently maintained materializations.
        On rollback, each entry's recorded undos are replayed exactly;
        a live materialization with no recorded undo for an entry (it
        was built later) takes the entry's inverse delta instead.
    """

    def __init__(
        self,
        store: WritableStore,
        materializations: Optional[MaterializationSource] = None,
    ) -> None:
        self._store = store
        self._materializations = materializations
        self._entries: list[tuple[UndoToken, MatUndos]] = []
        self.state = "active"

    # -- recording -----------------------------------------------------------
    def record(
        self,
        token: UndoToken,
        mat_undos: Iterable[tuple[Materialization, MaterializationUndo]] = (),
    ) -> None:
        """Remember one applied update's effective changes.

        No-op tokens with no materialization changes are dropped — there
        is nothing to compensate for.
        """
        if self.state != "active":
            raise TransactionStateError(
                f"cannot record into a {self.state} transaction"
            )
        mat_undos = tuple(mat_undos)
        if token.is_noop() and not mat_undos:
            return
        self._entries.append((token, mat_undos))

    @property
    def recorded(self) -> int:
        """Entries with a non-empty effect (not the update count)."""
        return len(self._entries)

    # -- resolution ----------------------------------------------------------
    def commit(self) -> None:
        """Seal the transaction; the applied state is the new baseline."""
        if self.state != "active":
            raise TransactionStateError(f"cannot commit a {self.state} transaction")
        self._entries.clear()
        self.state = "committed"

    def rollback(self) -> None:
        """Replay the recorded tokens in reverse, restoring the store —
        and every maintained materialization — to the exact
        pre-transaction state."""
        if self.state != "active":
            raise TransactionStateError(f"cannot roll back a {self.state} transaction")
        for token, mat_undos in reversed(self._entries):
            mats = (
                self._materializations()
                if self._materializations is not None
                else ()
            )
            rollback_token(self._store, token, mats, mat_undos)
        self._entries.clear()
        self.state = "rolled-back"
