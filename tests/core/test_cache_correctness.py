"""Maintained-materialization correctness under draining.

A materialization built *between* queueing a :class:`PendingVerdict` and
draining it was built from a state that includes the entry's optimistic
facts; the drain's quarantine, settle and redo must keep it exact.
"""

from repro.constraints.constraint import Constraint, ConstraintSet
from repro.core.session import CheckSession
from repro.datalog.database import Database
from repro.errors import RemoteUnavailableError
from repro.updates.update import Insertion


def assert_no_drift(session, constraints):
    """Every cached materialization equals a from-scratch evaluation."""
    for constraint in constraints:
        mat = session._materializations.get(constraint.name)
        if mat is not None:
            assert mat.as_database() == constraint.engine.evaluate(
                session.local_db
            ), f"{constraint.name} drifted from the database"


class TestDrainAfterInterveningBuild:
    CONSTRAINTS = ConstraintSet(
        [
            Constraint("panic :- p(X, Y) & p(Y, X)", "c_p"),
            Constraint("panic :- q(X, Y) & q(Y, X)", "c_q"),
            Constraint("panic :- p(X, Y) & rem(Y)", "cr_p"),
            Constraint("panic :- q(X, Y) & rem(Y)", "cr_q"),
        ]
    )

    def down(self, predicates=None):
        raise RemoteUnavailableError("down")

    def healthy(self, predicates=None):
        return Database({"rem": [(99,)]})

    def test_drain_consistent_after_build_between_queue_and_resolve(self):
        """Build a different constraint's materialization *between*
        queueing and draining, then drain: verdicts and state stay exact."""
        session = CheckSession(
            self.CONSTRAINTS,
            {"p", "q"},
            local_db=Database({"p": [], "q": []}),
        )
        session.process(Insertion("p", (1, 2)), remote=self.down)
        # A build between queueing and draining: c_q's materialization.
        session.process(Insertion("q", (5, 6)), remote=self.healthy)
        assert session.pending_count == 1

        resolved = session.resolve_pending(self.healthy)
        assert [e.update.values for e in resolved] == [(1, 2)]
        assert session.pending_count == 0
        assert session.local_db.facts("p") == {(1, 2)}
        assert_no_drift(session, self.CONSTRAINTS)
