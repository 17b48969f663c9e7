"""Bottom-up, semi-naive evaluation of stratified datalog with builtins.

This is the execution substrate for everything in the paper that must
actually *run*: constraints (``panic`` queries), the rewritten constraints
of Section 4, and the recursive interval programs of Fig. 6.1.

Features:

* positive recursion via semi-naive (delta) iteration;
* stratified negation (checked by :mod:`repro.datalog.stratify`);
* arithmetic comparison subgoals evaluated as builtins over the dense
  total order of :mod:`repro.arith.order`;
* safety (range restriction) enforced up front, so negations and
  comparisons are always ground when reached.

The main entry points are :func:`evaluate`, :func:`evaluate_predicate`,
and :func:`fires` (does a constraint derive ``panic``).  For repeated
evaluation of one program against many databases, :class:`Engine` caches
the static analysis.  For a *stream of updates against one database*,
:meth:`Engine.materialize` returns a :class:`Materialization` whose
derived facts are maintained incrementally by :meth:`Materialization.
apply_delta` instead of re-evaluated from scratch — delta rules for
non-recursive strata, delete-and-rederive (DRed) for recursive strata,
both aware of stratified negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from repro.arith.order import comparison_holds
from repro.datalog.atoms import Atom, BodyLiteral, Comparison, Negation
from repro.datalog.database import Database, Delta
from repro.datalog.rules import Program, Rule
from repro.datalog.safety import check_program_safety
from repro.datalog.stratify import stratify
from repro.datalog.terms import Constant, Variable

__all__ = [
    "Engine",
    "Materialization",
    "MaterializationStats",
    "MaterializationUndo",
    "evaluate",
    "evaluate_predicate",
    "fires",
    "PANIC_PREDICATE",
]

PANIC_PREDICATE = "panic"

Fact = tuple


class _FactSource:
    """Union view over EDB facts and facts derived so far."""

    __slots__ = ("_edb", "_derived")

    def __init__(self, edb: Database, derived: Mapping[str, set[Fact]]) -> None:
        self._edb = edb
        self._derived = derived

    def facts(self, predicate: str) -> Iterable[Fact]:
        derived = self._derived.get(predicate)
        edb_facts = self._edb.facts(predicate)
        if derived:
            if edb_facts:
                return derived | edb_facts
            return derived
        return edb_facts

    def facts_with(self, predicate: str, column: int, value: object) -> Iterable[Fact]:
        """Facts whose *column* equals *value*, using the EDB hash index
        where available; derived facts are filtered by scan."""
        relation = self._edb.relation(predicate)
        if relation is not None:
            indexed: Iterable[Fact] = relation.lookup(column, value)
        else:
            indexed = ()
        derived = self._derived.get(predicate)
        if not derived:
            return indexed
        matching = {fact for fact in derived if fact[column] == value}
        if not matching:
            return indexed
        return set(indexed) | matching

    def contains(self, predicate: str, fact: Fact) -> bool:
        derived = self._derived.get(predicate)
        if derived is not None and fact in derived:
            return True
        return self._edb.contains(predicate, fact)


class _AdjustedSource:
    """The *pre-delta* state, reconstructed from a post-delta database.

    Incremental maintenance runs after the delta has been applied to the
    EDB (and after lower strata updated their derived sets), but the
    deletion phase of DRed must evaluate rules against the old state.
    Rather than keeping a second copy of the database, this view undoes
    the recorded changes on the fly: ``old = (new - insertions) + deletions``.
    """

    __slots__ = ("_edb", "_derived", "_ins", "_dels")

    def __init__(
        self,
        edb: Database,
        derived: Mapping[str, set[Fact]],
        ins: Mapping[str, set[Fact]],
        dels: Mapping[str, set[Fact]],
    ) -> None:
        self._edb = edb
        self._derived = derived
        self._ins = ins
        self._dels = dels

    def facts(self, predicate: str) -> Iterable[Fact]:
        result = set(self._edb.facts(predicate))
        derived = self._derived.get(predicate)
        if derived:
            result |= derived
        added = self._ins.get(predicate)
        if added:
            result -= added
        removed = self._dels.get(predicate)
        if removed:
            result |= removed
        return result

    def facts_with(self, predicate: str, column: int, value: object) -> Iterable[Fact]:
        relation = self._edb.relation(predicate)
        result: set[Fact] = set(relation.lookup(column, value)) if relation else set()
        derived = self._derived.get(predicate)
        if derived:
            result |= {fact for fact in derived if fact[column] == value}
        added = self._ins.get(predicate)
        if added:
            result -= added
        removed = self._dels.get(predicate)
        if removed:
            result |= {fact for fact in removed if fact[column] == value}
        return result

    def contains(self, predicate: str, fact: Fact) -> bool:
        removed = self._dels.get(predicate)
        if removed and fact in removed:
            return True
        added = self._ins.get(predicate)
        if added and fact in added:
            return False
        derived = self._derived.get(predicate)
        if derived and fact in derived:
            return True
        return self._edb.contains(predicate, fact)


_UNBOUND = object()

# Join environments are plain ``{Variable: raw value}`` dicts rather than
# Substitution objects: the inner join loop runs once per candidate fact,
# and wrapping every fact value in a fresh Constant (plus copying the
# binding dict per extension) dominated the maintenance profile.  An
# environment is copied at most once per match — on the first new binding
# — so sibling branches of the backtracking search stay isolated.


def _match_fact(args: tuple, fact: Fact, env: dict) -> Optional[dict]:
    """Extend *env* by matching atom *args* against a raw fact tuple.

    Returns the (possibly shared) environment, or ``None`` on mismatch.
    Constants compare by raw value — the same ``==`` the Constant
    dataclass delegates to — and an existing binding must agree with the
    fact's value at that position.
    """
    if len(args) != len(fact):
        return None
    copied = False
    for term, value in zip(args, fact):
        if isinstance(term, Constant):
            if term.value != value:
                return None
            continue
        bound = env.get(term, _UNBOUND)
        if bound is _UNBOUND:
            if not copied:
                env = dict(env)
                copied = True
            env[term] = value
        elif bound != value:
            return None
    return env


def _comparison_env_holds(comparison: Comparison, env: dict) -> bool:
    left = comparison.left
    right = comparison.right
    a = left.value if isinstance(left, Constant) else env[left]
    b = right.value if isinstance(right, Constant) else env[right]
    return comparison_holds(comparison.op, a, b)


def _ground_args(args: tuple, env: dict) -> Fact:
    return tuple(t.value if isinstance(t, Constant) else env[t] for t in args)


def _order_body(rule: Rule, first: Optional[Atom] = None) -> list[BodyLiteral]:
    """Choose an evaluation order: positive atoms in given order, with each
    comparison/negation placed as early as its variables allow.

    This keeps joins small by filtering eagerly while preserving safety
    (every comparison/negation is ground when reached).  When *first* is
    given (the delta-restricted occurrence in semi-naive evaluation), that
    atom leads the join, so the work is proportional to the delta rather
    than to the widest relation scanned ahead of it.
    """
    bound: set[Variable] = set()
    pending = list(rule.body)
    ordered: list[BodyLiteral] = []
    if first is not None:
        for i, literal in enumerate(pending):
            if literal is first:
                ordered.append(pending.pop(i))
                bound.update(first.variables())
                break
    while pending:
        placed = False
        for i, literal in enumerate(pending):
            if isinstance(literal, (Comparison, Negation)):
                if all(v in bound for v in literal.variables()):
                    ordered.append(pending.pop(i))
                    placed = True
                    break
        if placed:
            continue
        # No filter is ready: take the next positive atom.
        for i, literal in enumerate(pending):
            if isinstance(literal, Atom):
                ordered.append(pending.pop(i))
                bound.update(literal.variables())
                placed = True
                break
        if not placed:  # remaining literals reference unbound vars: unsafe
            ordered.extend(pending)
            break
    return ordered


def _evaluate_rule(
    rule: Rule,
    source: _FactSource,
    restrict_atom: Optional[Atom] = None,
    restrict_facts: Optional[set[Fact]] = None,
    use_indexes: bool = True,
) -> set[Fact]:
    """All head facts derivable from *rule* against *source*.

    When *restrict_atom* is given (semi-naive deltas), that particular
    subgoal occurrence draws its facts from *restrict_facts* instead of
    the full source — and leads the join, so the cost scales with the
    delta.  ``use_indexes=False`` forces full scans (ablation).
    """
    ordered = _order_body(
        rule, first=restrict_atom if restrict_facts is not None else None
    )
    length = len(ordered)
    head_args = rule.head.args
    results: set[Fact] = set()
    # Depth-first join over the ordered body.
    stack: list[tuple[int, dict]] = [(0, {})]
    while stack:
        position, env = stack.pop()
        if position == length:
            results.add(_ground_args(head_args, env))
            continue
        literal = ordered[position]
        if isinstance(literal, Comparison):
            if _comparison_env_holds(literal, env):
                stack.append((position + 1, env))
            continue
        if isinstance(literal, Negation):
            fact = _ground_args(literal.args, env)
            if not source.contains(literal.predicate, fact):
                stack.append((position + 1, env))
            continue
        assert isinstance(literal, Atom)
        args = literal.args
        if literal is restrict_atom and restrict_facts is not None:
            candidates: Iterable[Fact] = restrict_facts
        else:
            # Index-assisted retrieval: when some argument is already
            # ground (a constant, or a variable the join has bound), pull
            # only the matching bucket instead of scanning the relation.
            bound_column = -1
            bound_value: object = None
            for column, term in enumerate(args):
                if isinstance(term, Constant):
                    bound_column, bound_value = column, term.value
                    break
                value = env.get(term, _UNBOUND)
                if value is not _UNBOUND:
                    bound_column, bound_value = column, value
                    break
            if bound_column >= 0 and use_indexes:
                candidates = source.facts_with(
                    literal.predicate, bound_column, bound_value
                )
            else:
                candidates = source.facts(literal.predicate)
        next_position = position + 1
        for fact in candidates:
            extended = _match_fact(args, fact, env)
            if extended is not None:
                stack.append((next_position, extended))
    return results


def _derives_fact(
    rule: Rule,
    source: _FactSource,
    fact: Fact,
    use_indexes: bool = True,
) -> bool:
    """Does *rule* derive the ground head *fact* from *source*?

    A point query: the head unification binds most variables up front, so
    the join below is far cheaper than evaluating the rule outright.  The
    DRed rederivation phase calls this once per deletion candidate.
    """
    initial = _match_fact(rule.head.args, fact, {})
    if initial is None:
        return False
    ordered = _order_body(rule)
    length = len(ordered)
    stack: list[tuple[int, dict]] = [(0, initial)]
    while stack:
        position, env = stack.pop()
        if position == length:
            return True
        literal = ordered[position]
        if isinstance(literal, Comparison):
            if _comparison_env_holds(literal, env):
                stack.append((position + 1, env))
            continue
        if isinstance(literal, Negation):
            negated = _ground_args(literal.args, env)
            if not source.contains(literal.predicate, negated):
                stack.append((position + 1, env))
            continue
        assert isinstance(literal, Atom)
        args = literal.args
        bound_column = -1
        bound_value: object = None
        for column, term in enumerate(args):
            if isinstance(term, Constant):
                bound_column, bound_value = column, term.value
                break
            value = env.get(term, _UNBOUND)
            if value is not _UNBOUND:
                bound_column, bound_value = column, value
                break
        if bound_column >= 0 and use_indexes:
            candidates: Iterable[Fact] = source.facts_with(
                literal.predicate, bound_column, bound_value
            )
        else:
            candidates = source.facts(literal.predicate)
        next_position = position + 1
        for candidate in candidates:
            extended = _match_fact(args, candidate, env)
            if extended is not None:
                stack.append((next_position, extended))
    return False


def _flip_negation(rule: Rule, index: int) -> tuple[Rule, Atom]:
    """Replace the negated literal at body position *index* with a fresh
    positive occurrence of the same atom.

    Used by the maintenance delta rules: a derivation gained (lost) via a
    negated subgoal is found by drawing the negated predicate's deleted
    (inserted) facts through a positive occurrence instead.  The atom is
    freshly allocated so identity-based restriction targets exactly it.
    """
    literal = rule.body[index]
    assert isinstance(literal, Negation)
    flipped = Atom(literal.atom.predicate, literal.atom.args)
    body = list(rule.body)
    body[index] = flipped
    return Rule(rule.head, tuple(body)), flipped


class Engine:
    """A compiled program: safety-checked, stratified, ready to evaluate.

    ``seminaive=False`` switches to naive fixpoint iteration (every rule
    re-evaluated against the full fact set each round) — kept for the
    ablation benchmark; semantics are identical.
    """

    def __init__(
        self,
        program: Program,
        seminaive: bool = True,
        use_indexes: bool = True,
    ) -> None:
        check_program_safety(program)
        self.program = program
        self.seminaive = seminaive
        self.use_indexes = use_indexes
        self.strata: list[set[str]] = stratify(program)
        self._rules_by_stratum: list[list[Rule]] = [
            [rule for rule in program if rule.head.predicate in stratum]
            for stratum in self.strata
        ]
        self._recursive_by_stratum: list[list[Rule]] = [
            [
                rule
                for rule in rules
                if any(
                    isinstance(lit, Atom) and lit.predicate in stratum
                    for lit in rule.body
                )
            ]
            for stratum, rules in zip(self.strata, self._rules_by_stratum)
        ]

    def _compute(self, db: Database) -> dict[str, set[Fact]]:
        """Full bottom-up evaluation into a predicate -> facts mapping."""
        derived: dict[str, set[Fact]] = {}
        for stratum_preds, rules in zip(self.strata, self._rules_by_stratum):
            self._evaluate_stratum(db, derived, stratum_preds, rules)
        return derived

    def evaluate(self, db: Database) -> Database:
        """Return a database of all derived IDB facts (EDB not included)."""
        result = Database()
        for predicate, facts in self._compute(db).items():
            for fact in facts:
                result.insert(predicate, fact)
        return result

    def materialize(self, db: Database) -> "Materialization":
        """Evaluate once and keep the result maintainable under deltas.

        The returned :class:`Materialization` holds a reference to *db*;
        after mutating *db* (e.g. via :meth:`Database.apply`), call
        :meth:`Materialization.apply_delta` with the effective delta to
        bring the derived facts up to date incrementally.
        """
        return Materialization(self, db)

    def _evaluate_stratum(
        self,
        db: Database,
        derived: dict[str, set[Fact]],
        stratum_preds: set[str],
        rules: Sequence[Rule],
    ) -> None:
        source = _FactSource(db, derived)
        if not self.seminaive:
            # Naive mode: keep re-running every rule until nothing is new.
            changed = True
            while changed:
                changed = False
                for rule in rules:
                    new_facts = _evaluate_rule(
                        rule, source, use_indexes=self.use_indexes
                    )
                    existing = derived.setdefault(rule.head.predicate, set())
                    fresh = new_facts - existing
                    if fresh:
                        existing.update(fresh)
                        changed = True
            return
        recursive_rules: list[Rule] = []
        # Round 0: full evaluation of every rule in the stratum.
        delta: dict[str, set[Fact]] = {}
        for rule in rules:
            new_facts = _evaluate_rule(rule, source, use_indexes=self.use_indexes)
            pred = rule.head.predicate
            existing = derived.setdefault(pred, set())
            fresh = new_facts - existing
            if fresh:
                existing.update(fresh)
                delta.setdefault(pred, set()).update(fresh)
            if any(
                isinstance(lit, Atom) and lit.predicate in stratum_preds
                for lit in rule.body
            ):
                recursive_rules.append(rule)
        # Semi-naive iteration for the recursive rules.
        while delta:
            new_delta: dict[str, set[Fact]] = {}
            for rule in recursive_rules:
                for literal in rule.body:
                    if not isinstance(literal, Atom):
                        continue
                    if literal.predicate not in stratum_preds:
                        continue
                    delta_facts = delta.get(literal.predicate)
                    if not delta_facts:
                        continue
                    new_facts = _evaluate_rule(
                        rule, source, literal, delta_facts, self.use_indexes
                    )
                    pred = rule.head.predicate
                    existing = derived.setdefault(pred, set())
                    fresh = new_facts - existing
                    if fresh:
                        existing.update(fresh)
                        new_delta.setdefault(pred, set()).update(fresh)
            delta = new_delta

    def evaluate_predicate(self, db: Database, predicate: str) -> frozenset[Fact]:
        """Facts derived for one predicate."""
        return self.evaluate(db).facts(predicate)

    def fires(self, db: Database) -> bool:
        """True when the program derives the 0-ary ``panic`` fact.

        In the paper's terms: the database *violates* the constraint
        exactly when this returns True.
        """
        return () in self.evaluate_predicate(db, PANIC_PREDICATE)


@dataclass
class MaterializationStats:
    """Counters describing how much work incremental maintenance did."""

    deltas_applied: int = 0
    strata_maintained: int = 0
    strata_skipped: int = 0
    facts_added: int = 0
    facts_removed: int = 0
    rederivation_checks: int = 0
    full_refreshes: int = 0
    reverts: int = 0


@dataclass
class MaterializationUndo:
    """The exact derived-fact changes one :meth:`Materialization.apply_delta`
    made, sufficient to restore the previous materialization without any
    rule evaluation (see :meth:`Materialization.revert`)."""

    added: dict[str, set[Fact]]
    removed: dict[str, set[Fact]]

    def is_noop(self) -> bool:
        return not self.added and not self.removed


class Materialization:
    """Derived facts of one program over one database, kept current under
    a stream of deltas instead of re-evaluated from scratch.

    Contract: the caller applies a delta to the underlying database first
    (``token = db.apply(delta)``) and then calls ``apply_delta`` with the
    *effective* changes (``token.as_delta()``, or any delta whose
    insertions are genuinely new facts and deletions genuinely removed
    ones).  Maintenance is stratum by stratum:

    * strata whose rules mention no changed predicate are skipped;
    * non-recursive strata run pure delta rules — each rule is evaluated
      once per changed body occurrence, restricted to the changed facts;
    * recursive strata run delete-and-rederive (DRed): overestimate
      deletions against the old state, rederive survivors with head-bound
      point queries, then propagate insertions semi-naively;
    * negated subgoals invert the roles — insertions into a negated
      predicate kill derivations, deletions enable them — which is sound
      because stratification guarantees the negated predicate's changes
      are final before this stratum runs.
    """

    def __init__(self, engine: Engine, db: Database) -> None:
        self.engine = engine
        self.db = db
        self.stats = MaterializationStats()
        self._derived: dict[str, set[Fact]] = engine._compute(db)
        self._idb = frozenset(engine.program.idb_predicates())

    # -- views ---------------------------------------------------------------
    def facts(self, predicate: str) -> frozenset[Fact]:
        return frozenset(self._derived.get(predicate, ()))

    def fires(self) -> bool:
        """True when the maintained program currently derives ``panic``."""
        return () in self._derived.get(PANIC_PREDICATE, ())

    def as_database(self) -> Database:
        """The derived IDB facts, shaped like :meth:`Engine.evaluate`."""
        result = Database()
        for predicate, facts in self._derived.items():
            for fact in facts:
                result.insert(predicate, fact)
        return result

    def refresh(self) -> None:
        """Throw away the maintained state and re-evaluate from scratch."""
        self._derived = self.engine._compute(self.db)
        self.stats.full_refreshes += 1

    def revert(self, undo: MaterializationUndo) -> None:
        """Exactly undo one :meth:`apply_delta` (the most recent one, with
        the database already restored): remove the facts it added and
        restore the facts it removed — no rule evaluation involved."""
        self.stats.reverts += 1
        for predicate, facts in undo.added.items():
            existing = self._derived.get(predicate)
            if existing:
                existing -= facts
        for predicate, facts in undo.removed.items():
            self._derived.setdefault(predicate, set()).update(facts)

    # -- maintenance ---------------------------------------------------------
    def apply_delta(self, delta: Delta) -> MaterializationUndo:
        """Bring the derived facts up to date after *delta* hit the EDB.

        Returns a :class:`MaterializationUndo` recording the net derived
        changes, so a caller rolling the database back (e.g. a rejected
        update) can :meth:`revert` in time proportional to those changes.
        """
        self.stats.deltas_applied += 1
        ins: dict[str, set[Fact]] = {
            pred: set(facts) for pred, facts in delta.insertions.items() if facts
        }
        dels: dict[str, set[Fact]] = {
            pred: set(facts) for pred, facts in delta.deletions.items() if facts
        }
        if not ins and not dels:
            return MaterializationUndo({}, {})
        engine = self.engine
        for stratum_preds, rules, recursive_rules in zip(
            engine.strata, engine._rules_by_stratum, engine._recursive_by_stratum
        ):
            if not rules:
                continue
            changed = set(ins) | set(dels)
            relevant = any(
                isinstance(lit, (Atom, Negation)) and lit.predicate in changed
                for rule in rules
                for lit in rule.body
            )
            if not relevant:
                self.stats.strata_skipped += 1
                continue
            self.stats.strata_maintained += 1
            self._maintain_stratum(stratum_preds, rules, recursive_rules, ins, dels)
        # After all strata ran, the IDB entries of ins/dels are exactly the
        # net derived-fact changes (register() cancels delete-then-readd).
        return MaterializationUndo(
            added={p: facts for p, facts in ins.items() if p in self._idb and facts},
            removed={p: facts for p, facts in dels.items() if p in self._idb and facts},
        )

    def _maintain_stratum(
        self,
        stratum_preds: set[str],
        rules: Sequence[Rule],
        recursive_rules: Sequence[Rule],
        ins: dict[str, set[Fact]],
        dels: dict[str, set[Fact]],
    ) -> None:
        derived = self._derived
        use_idx = self.engine.use_indexes
        old = _AdjustedSource(self.db, derived, ins, dels)

        # ---- Phase 1: overestimate deletions against the old state.
        del_cand: dict[str, set[Fact]] = {}

        def note_candidates(head_pred: str, heads: set[Fact]) -> set[Fact]:
            existing = derived.get(head_pred)
            if not existing:
                return set()
            fresh = (heads & existing) - del_cand.get(head_pred, set())
            if fresh:
                del_cand.setdefault(head_pred, set()).update(fresh)
            return fresh

        frontier: dict[str, set[Fact]] = {}
        for rule in rules:
            head_pred = rule.head.predicate
            for index, literal in enumerate(rule.body):
                if isinstance(literal, Atom):
                    removed = dels.get(literal.predicate)
                    if removed:
                        heads = _evaluate_rule(rule, old, literal, removed, use_idx)
                        fresh = note_candidates(head_pred, heads)
                        if fresh:
                            frontier.setdefault(head_pred, set()).update(fresh)
                elif isinstance(literal, Negation):
                    added = ins.get(literal.predicate)
                    if added:
                        flipped_rule, flipped_atom = _flip_negation(rule, index)
                        heads = _evaluate_rule(
                            flipped_rule, old, flipped_atom, added, use_idx
                        )
                        fresh = note_candidates(head_pred, heads)
                        if fresh:
                            frontier.setdefault(head_pred, set()).update(fresh)
        while frontier:
            next_frontier: dict[str, set[Fact]] = {}
            for rule in recursive_rules:
                head_pred = rule.head.predicate
                for literal in rule.body:
                    if isinstance(literal, Atom) and literal.predicate in stratum_preds:
                        pending = frontier.get(literal.predicate)
                        if pending:
                            heads = _evaluate_rule(rule, old, literal, pending, use_idx)
                            fresh = note_candidates(head_pred, heads)
                            if fresh:
                                next_frontier.setdefault(head_pred, set()).update(fresh)
            frontier = next_frontier

        # ---- Phase 2: delete the candidates, then rederive survivors
        # with head-bound point queries against the new state.
        removed_facts: dict[str, set[Fact]] = {}
        for pred, facts in del_cand.items():
            existing = derived.get(pred)
            if existing:
                existing -= facts
                removed_facts[pred] = set(facts)
        new_source = _FactSource(self.db, derived)
        rules_by_head: dict[str, list[Rule]] = {}
        for rule in rules:
            rules_by_head.setdefault(rule.head.predicate, []).append(rule)
        while True:
            changed = False
            for pred, facts in removed_facts.items():
                candidates = rules_by_head.get(pred, ())
                for fact in list(facts):
                    self.stats.rederivation_checks += 1
                    if any(
                        _derives_fact(rule, new_source, fact, use_idx)
                        for rule in candidates
                    ):
                        derived.setdefault(pred, set()).add(fact)
                        facts.discard(fact)
                        changed = True
            if not changed or not recursive_rules:
                break
        for pred, facts in removed_facts.items():
            if facts:
                dels.setdefault(pred, set()).update(facts)
                self.stats.facts_removed += len(facts)

        # ---- Phase 3: propagate insertions semi-naively over the new state.
        added_total: dict[str, set[Fact]] = {}

        def register(head_pred: str, heads: set[Fact]) -> set[Fact]:
            existing = derived.setdefault(head_pred, set())
            fresh = heads - existing
            if not fresh:
                return fresh
            existing.update(fresh)
            # A fact deleted above and re-added here (e.g. an alternative
            # derivation through a just-inserted fact) is a net no-op for
            # upper strata — cancel instead of reporting both ways.
            pending_del = dels.get(head_pred)
            if pending_del:
                overlap = fresh & pending_del
                if overlap:
                    pending_del -= overlap
                    self.stats.facts_removed -= len(overlap)
                    added_total.setdefault(head_pred, set()).update(fresh - overlap)
                    return fresh
            added_total.setdefault(head_pred, set()).update(fresh)
            return fresh

        frontier = {}
        for rule in rules:
            head_pred = rule.head.predicate
            for index, literal in enumerate(rule.body):
                if isinstance(literal, Atom):
                    added = ins.get(literal.predicate)
                    if added:
                        heads = _evaluate_rule(rule, new_source, literal, added, use_idx)
                        fresh = register(head_pred, heads)
                        if fresh:
                            frontier.setdefault(head_pred, set()).update(fresh)
                elif isinstance(literal, Negation):
                    removed = dels.get(literal.predicate)
                    if removed and literal.predicate not in stratum_preds:
                        flipped_rule, flipped_atom = _flip_negation(rule, index)
                        heads = _evaluate_rule(
                            flipped_rule, new_source, flipped_atom, removed, use_idx
                        )
                        fresh = register(head_pred, heads)
                        if fresh:
                            frontier.setdefault(head_pred, set()).update(fresh)
        while frontier:
            next_frontier = {}
            for rule in recursive_rules:
                head_pred = rule.head.predicate
                for literal in rule.body:
                    if isinstance(literal, Atom) and literal.predicate in stratum_preds:
                        pending = frontier.get(literal.predicate)
                        if pending:
                            heads = _evaluate_rule(
                                rule, new_source, literal, pending, use_idx
                            )
                            fresh = register(head_pred, heads)
                            if fresh:
                                next_frontier.setdefault(head_pred, set()).update(fresh)
            frontier = next_frontier
        for pred, facts in added_total.items():
            if facts:
                ins.setdefault(pred, set()).update(facts)
                self.stats.facts_added += len(facts)


def evaluate(program: Program, db: Database) -> Database:
    """One-shot evaluation; see :class:`Engine` for the reusable form."""
    return Engine(program).evaluate(db)


def evaluate_predicate(program: Program, db: Database, predicate: str) -> frozenset[Fact]:
    """One-shot evaluation of a single predicate."""
    return Engine(program).evaluate_predicate(db, predicate)


def fires(program: Program, db: Database) -> bool:
    """One-shot check whether a constraint program derives ``panic``."""
    return Engine(program).fires(db)
