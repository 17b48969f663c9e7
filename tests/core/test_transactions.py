"""Exact-rollback transactions.

The contract under test: an aborted transaction leaves the database AND
every maintained materialization byte-identical to the pre-transaction
state — including when the transaction contained redundant insertions or
deletions, whose naive inverses would destroy pre-existing facts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core import CheckSession, Outcome
from repro.core.transaction import Transaction, TransactionStateError
from repro.datalog.database import Database
from repro.updates.update import Deletion, Insertion


def fd_session() -> CheckSession:
    constraints = ConstraintSet(
        [Constraint("panic :- p(X, A) & p(X, B) & A < B", "p-fd")]
    )
    db = Database({"p": [(1, 10), (2, 20)]})
    return CheckSession(constraints, local_predicates={"p"}, local_db=db)


def snapshot(db: Database) -> dict:
    return {pred: db.facts(pred) for pred in db.predicates()}


class TestTransaction:
    def test_commit_keeps_updates(self):
        session = fd_session()
        committed, reports = session.process_transaction(
            [Insertion("p", (3, 30)), Deletion("p", (2, 20))]
        )
        assert committed
        assert session.local_db.facts("p") == {(1, 10), (3, 30)}
        assert session.stats.transactions == 1
        assert session.stats.transactions_rolled_back == 0

    def test_abort_rolls_back_exactly(self):
        session = fd_session()
        before = snapshot(session.local_db)
        committed, reports = session.process_transaction(
            [Insertion("p", (3, 30)), Insertion("p", (1, 99))]  # second violates FD
        )
        assert not committed
        assert any(r.outcome is Outcome.VIOLATED for r in reports[-1])
        assert snapshot(session.local_db) == before
        assert session.stats.transactions_rolled_back == 1

    def test_abort_preserves_preexisting_fact_after_redundant_insert(self):
        """The data-loss bug: +p(1) (already present) then an aborting
        update must NOT delete p(1) — its undo token is empty."""
        constraints = ConstraintSet([Constraint("panic :- q(X)", "no-q")])
        db = Database({"p": [(1,)]})
        session = CheckSession(constraints, local_predicates={"p", "q"}, local_db=db)
        committed, _ = session.process_transaction(
            [Insertion("p", (1,)), Insertion("q", (5,))]
        )
        assert not committed
        assert session.local_db.facts("p") == {(1,)}
        assert session.local_db.facts("q") == frozenset()

    def test_abort_restores_materializations(self):
        session = fd_session()
        # Build the materialization before the transaction starts.
        session.process(Insertion("p", (4, 40)))
        mat = session._materializations.get("p-fd")
        assert mat is not None
        before = dict(mat._derived)
        committed, _ = session.process_transaction(
            [Insertion("p", (5, 50)), Insertion("p", (4, 41))]
        )
        assert not committed
        assert session._materializations.get("p-fd") is mat
        assert dict(mat._derived) == before

    def test_finished_transaction_rejects_further_use(self):
        session = fd_session()
        txn = session.transaction()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.rollback()
        with pytest.raises(TransactionStateError):
            txn.commit()
        db = Database()
        token = db.apply(Insertion("p", (1,)).as_delta())
        with pytest.raises(TransactionStateError):
            txn.record(token)

    def test_rollback_without_entries_is_fine(self):
        txn = Transaction(Database())
        txn.rollback()
        assert txn.state == "rolled-back"


class TestApplyOnUnknownPolicy:
    """``process`` docstring vs. behavior: an explicit, honored policy."""

    def constraints(self):
        # r is remote, so an insertion into p stays UNKNOWN without a
        # remote database.
        return ConstraintSet([Constraint("panic :- p(X) & r(X)", "no-pr")])

    def test_optimistic_default_applies_unknown(self):
        session = CheckSession(self.constraints(), local_predicates={"p"})
        reports = session.process(Insertion("p", (1,)))
        assert any(r.outcome is Outcome.UNKNOWN for r in reports)
        assert session.local_db.facts("p") == {(1,)}
        assert session.stats.applied == 1

    def test_pessimistic_withholds_unknown(self):
        session = CheckSession(
            self.constraints(), local_predicates={"p"}, apply_on_unknown=False
        )
        reports = session.process(Insertion("p", (1,)))
        assert any(r.outcome is Outcome.UNKNOWN for r in reports)
        assert session.local_db.facts("p") == frozenset()
        assert session.stats.applied == 0
        assert session.stats.deferred_unknown == 1

    def test_pessimistic_transaction_aborts_on_unknown(self):
        session = CheckSession(
            self.constraints(), local_predicates={"p"}, apply_on_unknown=False
        )
        committed, _ = session.process_transaction([Insertion("p", (1,))])
        assert not committed
        assert session.local_db.facts("p") == frozenset()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["+", "-"]),
            st.integers(min_value=0, max_value=3),
            st.sampled_from([10, 20, 30]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_aborted_transaction_restores_exact_state(ops):
    """Property: whatever the transaction did — redundant inserts,
    redundant deletes, genuine violations — rollback restores the
    database and the maintained materialization exactly."""
    session = fd_session()
    # Materialize before the transaction so rollback must maintain it.
    session.process(Insertion("p", (3, 30)))
    db_before = snapshot(session.local_db)
    mat_before = dict(session._materializations["p-fd"]._derived)

    updates = [
        Insertion("p", (key, val)) if sign == "+" else Deletion("p", (key, val))
        for sign, key, val in ops
    ]
    txn = session.transaction()
    for update in updates:
        session.process(update, transaction=txn)
    txn.rollback()

    assert snapshot(session.local_db) == db_before
    mat = session._materializations.get("p-fd")
    assert mat is not None
    assert dict(mat._derived) == mat_before
    # And the maintained state agrees with a from-scratch evaluation.
    fresh = next(iter(session.constraints)).engine.materialize(session.local_db)
    assert dict(mat._derived) == dict(fresh._derived)
