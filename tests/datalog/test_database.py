"""Unit tests for relations and databases."""

import pytest

from repro.errors import EvaluationError
from repro.datalog.database import Database, Relation, merged_view


class TestRelation:
    def test_insert_dedup(self):
        relation = Relation("p", 2)
        assert relation.insert((1, 2))
        assert not relation.insert((1, 2))
        assert len(relation) == 1

    def test_arity_enforced(self):
        relation = Relation("p", 2)
        with pytest.raises(EvaluationError):
            relation.insert((1, 2, 3))

    def test_delete(self):
        relation = Relation("p", 1, [(1,), (2,)])
        assert relation.delete((1,))
        assert not relation.delete((1,))
        assert (2,) in relation and (1,) not in relation

    def test_lookup_index(self):
        relation = Relation("p", 2, [(1, "a"), (1, "b"), (2, "a")])
        assert relation.lookup(0, 1) == {(1, "a"), (1, "b")}
        assert relation.lookup(1, "a") == {(1, "a"), (2, "a")}
        assert relation.lookup(0, 99) == frozenset()

    def test_index_maintained_across_mutation(self):
        relation = Relation("p", 1)
        relation.insert((1,))
        assert relation.lookup(0, 1) == {(1,)}
        relation.insert((2,))
        relation.delete((1,))
        assert relation.lookup(0, 1) == frozenset()
        assert relation.lookup(0, 2) == {(2,)}

    def test_copy_independent(self):
        relation = Relation("p", 1, [(1,)])
        copy = relation.copy()
        copy.insert((2,))
        assert len(relation) == 1 and len(copy) == 2


class TestDatabase:
    def test_relations_created_on_demand(self):
        db = Database()
        db.insert("p", (1, 2))
        assert db.arity_of("p") == 2
        assert db.contains("p", (1, 2))

    def test_missing_relation_is_empty(self):
        db = Database()
        assert db.facts("nope") == frozenset()
        assert not db.contains("nope", (1,))
        assert db.arity_of("nope") is None

    def test_initial_contents(self):
        db = Database({"p": [(1,), (2,)], "q": [("a", "b")]})
        assert db.facts("p") == {(1,), (2,)}
        assert db.predicates() == {"p", "q"}
        assert db.size() == 3

    def test_copy_independent(self):
        db = Database({"p": [(1,)]})
        copy = db.copy()
        copy.insert("p", (2,))
        copy.insert("q", ("x",))
        assert db.facts("p") == {(1,)}
        assert "q" not in db.predicates()

    def test_restricted_to(self):
        db = Database({"p": [(1,)], "q": [(2,)]})
        local = db.restricted_to({"p"})
        assert local.predicates() == {"p"}

    def test_equality_ignores_empty_relations(self):
        left = Database({"p": [(1,)]})
        right = Database({"p": [(1,)]})
        right.insert("q", (1,))
        right.delete("q", (1,))
        assert left == right

    def test_delete_missing(self):
        db = Database()
        assert not db.delete("p", (1,))


class TestMergedView:
    def test_untouched_relations_are_the_base_objects(self):
        base = Database({"emp": [(1, "a"), (2, "b")], "dept": [("a",)]})
        view = merged_view(base, (Database({"remote": [(7,)]}), None))
        assert view.relation("emp") is base.relation("emp")
        assert not base.relation("emp")._shared
        assert view.facts("remote") == {(7,)}
        assert view == Database(
            {"emp": [(1, "a"), (2, "b")], "dept": [("a",)], "remote": [(7,)]}
        )

    def test_receiving_relation_is_private(self):
        """Peer facts for a split local predicate land in a copy; the
        base relation neither changes nor becomes shared."""
        base = Database({"meter": [(1, 10)]})
        before = base.relation("meter")
        view = merged_view(base, (Database({"meter": [(150, 3)]}),))
        assert view.facts("meter") == {(1, 10), (150, 3)}
        assert base.facts("meter") == {(1, 10)}
        assert base.relation("meter") is before and not before._shared

    def test_private_predicates_may_be_written(self):
        base = Database({"emp": [(1,)], "dept": [("a",)]})
        view = merged_view(base, (), private=("emp",))
        view.insert("emp", (2,))
        view.delete("emp", (1,))
        assert view.facts("emp") == {(2,)}
        assert base.facts("emp") == {(1,)}
        assert view.relation("dept") is base.relation("dept")
