"""Command-line interface: classify, check, test, and subsume constraints.

Usage (see ``python -m repro --help``)::

    python -m repro classify constraints.dl
    python -m repro check constraints.dl --db data.json --update '+emp(ann, toys, 50)'
    python -m repro local-test constraints.dl --db data.json \\
        --local emp --update '+emp(bob, toys, 60)'
    python -m repro subsume constraints.dl --target NAME

File formats:

* constraints: datalog text; ``%%`` lines separate named constraints, a
  ``%% name`` header names the one that follows (unnamed constraints get
  ``c1``, ``c2``, ...);
* databases: JSON mapping predicate names to lists of tuples (lists).

Update syntax: ``+pred(v1, v2, ...)`` to insert, ``-pred(...)`` to
delete, ``~pred(old, ...)->(new, ...)`` to modify; values parse like
datalog terms (numbers, lowercase names, or quoted strings).

``check-stream`` reads one update per line (blank lines and ``#``
comments ignored) from a file or stdin and drives one
:class:`~repro.distributed.sharded.ShardedChecker` through the whole
stream — a single shard, i.e. one incremental
:class:`~repro.core.session.CheckSession` over the local site, unless
``--shards`` asks for more — printing per-update verdicts and the
protocol statistics.  With ``--transaction`` the stream is atomic and
any rejection rolls the local site back exactly, on any number of
shards (but not with ``--executor process``, whose worker processes
hold the shard state).  Every update must target a ``--local``
predicate: remote sites are read, never written.

The ``--fault-rate`` / ``--outage`` / ``--retries`` /
``--remote-timeout`` / ``--remote-latency`` / ``--fault-seed`` flags
simulate an unreliable remote site behind a retry/backoff/circuit-
breaker link: updates whose escalation cannot reach the remote come
back DEFERRED, are drained by ``resolve_pending`` once the link
recovers, and the run ends with a degradation summary.  ``--pessimistic``
holds updates back (instead of applying optimistically) until every
verdict is SATISFIED.

``--shards N`` partitions the local site into N per-shard check
sessions (verdicts identical to a single session); ``--parallel N``
additionally runs shard-confined updates on N worker threads with
explicit fences around cross-shard work, and ``--overlap-remote``
issues remote escalations asynchronously so the stream keeps flowing
while a slow fetch is in flight.  ``--executor process`` moves each
shard session into its own worker process (escalations bounce through
the parent's fault-tolerant link; verdicts stay identical), and
``--rebalance [N]`` enables live key-range rebalancing: every N routed
updates a hot shard's range is split at its sampled median key and the
affected facts (and pending verdicts) migrate at a fence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from repro.errors import InjectedCrash, ReproError
from repro.constraints.constraint import Constraint, ConstraintSet
from repro.constraints.subsumption import subsumes
from repro.core.engine import PartialInfoChecker
from repro.core.outcomes import Outcome
from repro.datalog.database import Database
from repro.datalog.parser import parse_program, parse_term_list
from repro.datalog.terms import Constant
from repro.updates.update import Deletion, Insertion, Modification, Update

__all__ = ["main", "parse_update", "load_constraints", "load_database", "load_updates"]


def load_constraints(path: str) -> ConstraintSet:
    """Parse a constraint file into a named ConstraintSet."""
    with open(path) as handle:
        text = handle.read()
    blocks: list[tuple[str | None, list[str]]] = [(None, [])]
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("%%"):
            name = stripped[2:].strip() or None
            blocks.append((name, []))
        else:
            blocks[-1][1].append(line)
    constraints = ConstraintSet()
    counter = 0
    for name, lines in blocks:
        source = "\n".join(lines).strip()
        if not source:
            continue
        program = parse_program(source)
        if not program.rules:
            continue  # a comment-only block (e.g. a file header)
        counter += 1
        constraints.add(Constraint(program, name or f"c{counter}"))
    return constraints


def load_database(path: str) -> Database:
    """Load a JSON database: {"pred": [[v, ...], ...], ...}.

    Every value must lie in the ordered domain: a string, a number other
    than NaN (which compares unequal to itself), or a boolean.
    """
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except ValueError as exc:
            raise ReproError(f"{path}: not a JSON database: {exc}") from exc
    if not isinstance(raw, dict):
        raise ReproError(
            f"{path}: a database is a JSON object mapping each predicate "
            f"to a list of facts"
        )
    db = Database()
    for predicate, facts in raw.items():
        if not isinstance(facts, list):
            raise ReproError(f"{path}: {predicate}: the facts must be a list")
        for fact in facts:
            if not isinstance(fact, list):
                raise ReproError(
                    f"{path}: {predicate} fact {json.dumps(fact)} is not a list "
                    f"of values"
                )
            for value in fact:
                kind = type(value)
                if not (
                    kind is str or kind is int or kind is bool
                    or (kind is float and value == value)
                ):
                    raise ReproError(
                        f"{path}: {predicate} fact {json.dumps(fact)}: "
                        f"{json.dumps(value)} is not a string, a number other "
                        f"than NaN, or a boolean"
                    )
            db.insert(predicate, tuple(fact))
    return db


def _parse_values(inner: str, context: str) -> tuple:
    # Tokenize rather than split on raw commas: a quoted value like
    # "a,b" is one constant, not two.
    values: list[object] = []
    for term in parse_term_list(inner):
        if not isinstance(term, Constant):
            raise ReproError(f"update values must be constants: {term!r}")
        values.append(term.value)
    return tuple(values)


def parse_update(text: str) -> Update:
    """Parse ``+pred(a, 1)`` / ``-pred(a, 1)`` /
    ``~pred(a, 1)->(b, 2)`` into an update object."""
    text = text.strip()
    if not text or text[0] not in "+-~":
        raise ReproError(f"update must start with '+', '-' or '~': {text!r}")
    sign, rest = text[0], text[1:].strip()
    open_paren = rest.find("(")
    if open_paren < 0 or not rest.endswith(")"):
        raise ReproError(f"update must look like +pred(v1, v2): {text!r}")
    predicate = rest[:open_paren].strip()
    if sign == "~":
        body = rest[open_paren:]
        arrow = body.find("->")
        if arrow < 0 or not body[:arrow].rstrip().endswith(")"):
            raise ReproError(
                f"modification must look like ~pred(old)->(new): {text!r}"
            )
        old_part = body[:arrow].strip()
        new_part = body[arrow + 2 :].strip()
        if not (new_part.startswith("(") and new_part.endswith(")")):
            raise ReproError(
                f"modification must look like ~pred(old)->(new): {text!r}"
            )
        return Modification(
            predicate,
            _parse_values(old_part[1:-1], text),
            _parse_values(new_part[1:-1], text),
        )
    values = _parse_values(rest[open_paren + 1 : -1], text)
    if sign == "+":
        return Insertion(predicate, values)
    return Deletion(predicate, values)


def _cmd_classify(args: argparse.Namespace) -> int:
    constraints = load_constraints(args.constraints)
    width = max((len(c.name) for c in constraints), default=4)
    for constraint in constraints:
        print(f"{constraint.name:<{width}}  {constraint.constraint_class.name}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    constraints = load_constraints(args.constraints)
    db = load_database(args.db) if args.db else Database()
    if args.update:
        update = parse_update(args.update)
        local_predicates = set(args.local or db.predicates() or {update.predicate})
        checker = PartialInfoChecker(constraints, local_predicates)
        local = db.restricted_to(local_predicates)
        remote = db.restricted_to(db.predicates() - local_predicates)
        exit_code = 0
        for report in checker.check(update, local, remote):
            print(report)
            if report.outcome is Outcome.VIOLATED:
                exit_code = 1
        return exit_code
    # No update: plain evaluation.
    violated = constraints.violated(db)
    for constraint in constraints:
        status = "VIOLATED" if constraint in violated else "holds"
        print(f"{constraint.name}: {status}")
    return 1 if violated else 0


def load_updates(path: str | None) -> list[Update]:
    """Read updates, one per line, from *path* (``-``/None = stdin)."""
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    updates: list[Update] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        updates.append(parse_update(stripped))
    return updates


def _build_remote_link(args: argparse.Namespace, remote_site, rate=None):
    """The fault-tolerant link for ``check-stream``, or ``None`` when no
    fault/retry flag asks for one.  *rate* overrides ``--fault-rate``
    for this site (``--site-fault-rate``)."""
    from repro.distributed.faults import FaultModel, UnreliableRemote, parse_outage
    from repro.distributed.remote import FetchPolicy, RemoteLink

    effective_rate = args.fault_rate if rate is None else rate
    faulty = bool(
        effective_rate or args.outage or args.remote_latency
        or args.remote_timeout is not None
    )
    if not faulty and args.retries is None:
        if getattr(args, "overlap_remote", False):
            # Overlap needs a link (the async queue lives there) even
            # with a perfectly healthy remote.
            return RemoteLink(remote_site)
        return None
    try:
        faults = FaultModel(
            failure_rate=effective_rate,
            latency=args.remote_latency,
            outages=tuple(parse_outage(spec) for spec in args.outage or ()),
            seed=args.fault_seed,
        )
        policy = FetchPolicy(
            max_attempts=args.retries if args.retries is not None else 4,
            attempt_timeout=args.remote_timeout,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    return RemoteLink(
        UnreliableRemote(remote_site, faults), policy, seed=args.fault_seed
    )


def _parse_site_fault_rates(args: argparse.Namespace) -> dict[str, float]:
    """``--site-fault-rate SITE=P`` specs (a bare ``P`` keys ``"*"``,
    the every-site default).

    Rejects duplicate site names and probabilities outside ``[0, 1]``
    instead of silently letting the last (or a nonsensical) spec win;
    unknown site names are checked against the built topology by the
    caller."""
    rates: dict[str, float] = {}
    for spec in getattr(args, "site_fault_rate", None) or ():
        name, sep, value = spec.partition("=")
        key = name.strip() if sep else "*"
        try:
            rate = float(value if sep else spec)
        except ValueError:
            raise ReproError(
                f"--site-fault-rate must look like SITE=P or P: {spec!r}"
            )
        if sep and not key:
            raise ReproError(
                f"--site-fault-rate must look like SITE=P or P: {spec!r}"
            )
        if not 0.0 <= rate <= 1.0:
            raise ReproError(
                f"--site-fault-rate probability must be in [0, 1]: {spec!r}"
            )
        if key in rates:
            label = "the default rate" if key == "*" else f"site {key!r}"
            raise ReproError(
                f"--site-fault-rate given twice for {label}: {spec!r} "
                f"(already {rates[key]})"
            )
        rates[key] = rate
    return rates


def _build_sites(args: argparse.Namespace, db: Database, local_predicates: set[str]):
    """The (possibly federated) site topology for ``check-stream``.

    ``--sites 2`` (the default) is the classic local + single-remote
    split, with the one remote named ``remote``.  ``--sites N`` with
    N > 2 deals the remote predicates round-robin (sorted, so
    deterministic) across N-1 named remote sites ``remote1`` ..
    ``remoteN-1``."""
    from repro.distributed.site import FederatedDatabase, Site

    total = args.sites if getattr(args, "sites", None) else 2
    if total < 2:
        raise ReproError("--sites needs at least 2 (one local, one remote)")
    local = Site("local", db.restricted_to(local_predicates))
    remote_predicates = sorted(db.predicates() - local_predicates)
    if total == 2:
        return FederatedDatabase(
            local=local,
            remotes=[Site("remote", db.restricted_to(set(remote_predicates)))],
            local_predicates=local_predicates,
        )
    count = total - 1
    placement: dict[str, list[str]] = {
        f"remote{i + 1}": [] for i in range(count)
    }
    for index, predicate in enumerate(remote_predicates):
        placement[f"remote{(index % count) + 1}"].append(predicate)
    remotes = [
        Site(name, db.restricted_to(set(owned)))
        for name, owned in placement.items()
    ]
    return FederatedDatabase(
        local=local,
        remotes=remotes,
        local_predicates=local_predicates,
        site_predicates=placement,
    )


def _parse_boundary(text: str) -> object:
    """A key-range cut point: int, then float, then bare string."""
    text = text.strip()
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _build_partitioner(args: argparse.Namespace, local_predicates: set[str]):
    """The shard partitioner: key-range when any ``--shard-by`` spec is
    given, round-robin by predicate otherwise; one shard when
    ``--shards`` is absent."""
    from repro.distributed.sharded import KeyRangePartitioner, PredicatePartitioner

    shards = 1 if args.shards is None else args.shards
    if not args.shard_by:
        return PredicatePartitioner(shards, local_predicates)
    boundaries: dict[str, list] = {}
    for spec in args.shard_by:
        predicate, sep, cuts = spec.partition("=")
        if not sep or not predicate.strip():
            raise ReproError(
                f"--shard-by must look like pred=cut1,cut2,...: {spec!r}"
            )
        boundaries[predicate.strip()] = [
            _parse_boundary(cut) for cut in cuts.split(",") if cut.strip()
        ]
    return KeyRangePartitioner(shards, boundaries, local_predicates)


#: resolve_pending rounds before ``check-stream`` gives up on a dead link
_MAX_DRAIN_ROUNDS = 100


# -- durability (--journal / --resume) ---------------------------------------


def _journal_flag_conflicts(args: argparse.Namespace) -> None:
    """Reject ``--journal`` combinations the journal cannot serialize.

    Parallel segments, process-pool workers, and overlapped escalation
    futures all journal now (effects are emitted at settle time and
    committed in arrival order through the
    :class:`~repro.durability.journal.OrderedJournalCommitter`).  What
    remains out: transactional rollback (a rolled-back prefix has no
    durable meaning) and the federation snapshot cache (a snapshot-served
    verdict depends on cache age the journal cannot replay)."""
    conflicts = (
        (args.transaction, "--transaction"),
        (args.snapshot_ttl is not None, "--snapshot-ttl"),
    )
    for active, name in conflicts:
        if active:
            raise ReproError(
                f"--journal cannot be combined with {name}: the journal "
                "needs durable effect records the checker can replay "
                "in arrival order"
            )
    for value, name in (
        (args.sync_every, "--sync-every"),
        (args.checkpoint_every, "--checkpoint-every"),
    ):
        if value < 1:
            raise ReproError(
                f"{name} must be at least 1 (got {value}); the journal's "
                "sync and checkpoint cadences count safe points"
            )


def _journal_config(args: argparse.Namespace, constraints, local_predicates):
    """The run-configuration fingerprint persisted as ``meta.json``.
    ``--resume`` refuses a journal whose fingerprint differs — the
    journal's records only mean anything under the configuration that
    wrote them."""
    return {
        "constraints": [[c.name, str(c.program)] for c in constraints],
        "local": sorted(local_predicates),
        "sites": args.sites,
        "shards": args.shards or 0,
        "shard_by": sorted(args.shard_by or ()),
        "parallel": args.parallel or 0,
        "executor": args.executor,
        "overlap_remote": bool(args.overlap_remote),
        "apply_on_unknown": not args.pessimistic,
        "rebalance": args.rebalance or 0,
        "faults": {
            "rate": args.fault_rate,
            "outages": sorted(args.outage or ()),
            "retries": args.retries,
            "timeout": args.remote_timeout,
            "latency": args.remote_latency,
            "seed": args.fault_seed,
            "site_rates": sorted(args.site_fault_rate or ()),
        },
    }


def _overlay_recovered_facts(db: Database, local_predicates, recovered) -> Database:
    """The resumed run's database: remote predicates straight from the
    ``--db`` file (remote sites are never mutated), local predicates
    exactly as recovered — a local predicate absent from the recovered
    state was empty at the crash, so nothing falls back to the file."""
    merged = Database()
    for predicate in db.predicates():
        if predicate in local_predicates:
            continue
        for fact in db.facts(predicate):
            merged.insert(predicate, fact)
    for predicate, facts in recovered.facts.items():
        for fact in sorted(facts, key=repr):
            merged.insert(predicate, fact)
    return merged


def _checkpoint_payload(pos: int, checker, link) -> dict:
    """One checkpoint manifest payload: everything ``--resume`` needs at
    stream position *pos* (facts, pending queue, arrival clock floor,
    protocol + session stats, shard cuts + per-shard queues/clock cells,
    worker-restart counters, link state).

    Manifests carry the pending queues *per shard* (``shard_pending``)
    alongside the flat sorted list, plus each shard's arrival-clock cell
    (``shard_seq``) — a shard may have stamped sequence numbers without
    queueing anything, and the resumed arrival clock must restart past
    those too.  Manifests are only cut at barriers (or the serial
    between-updates boundary), where the checkpointed state provably
    equals the journal's committed prefix.
    """
    from repro.durability.journal import entry_to_json

    procpool = checker._procpool
    if procpool is not None:
        states = procpool.checkpoint_state()
        queues = [state["pending"] for state in states]
        shard_seq = [state["seq"] for state in states]
        session_stats = [state["stats"] for state in states]
    else:
        queues = [session._pending for session in checker.sessions]
        shard_seq = [cell[0] for cell in checker._seq_cells]
        session_stats = [session.stats for session in checker.sessions]
    local_db = checker.local_database()
    pending = sorted(
        (entry for queue in queues for entry in queue),
        key=lambda entry: entry.seq,
    )
    payload = {
        "pos": pos,
        "facts": {
            predicate: sorted(
                (list(fact) for fact in local_db.facts(predicate)), key=repr
            )
            for predicate in sorted(local_db.predicates())
        },
        "pending": [entry_to_json(entry) for entry in pending],
        "seq": max((entry.seq for entry in pending), default=0),
        "stats": checker.stats.to_dict(),
        "session_stats": [stats.to_dict() for stats in session_stats],
        "cuts": {
            predicate: list(checker.partitioner.boundaries(predicate))
            for predicate in sorted(checker.partitioner.split_predicates)
        },
        "link": link.state_dict() if link is not None else None,
        "shard_pending": [
            [entry_to_json(entry) for entry in queue] for queue in queues
        ],
        "shard_seq": shard_seq,
    }
    if procpool is not None:
        payload["worker_restarts"] = procpool.restart_counts()
    return payload


def _restore_into(checker, recovered, link) -> None:
    """Install a recovered state into a freshly built checker: pending
    entries re-queued per shard in sequence order, the arrival clock
    restarted past every recovered sequence number, protocol + session
    stats and the remote link's RNG/breaker state reinstated.  (Session
    gauges and round-trip counters reflect the last checkpoint, so they
    may under-count the replayed tail window; verdicts and state are
    exact.)"""
    import itertools

    from repro.core.session import SessionStats
    from repro.durability.journal import entry_from_json

    # Per-shard queues straight from the manifest when it has them (the
    # journal-tail descriptors are not in the manifest's shard split and
    # route by the partitioner); manifests without them route everything
    # by the partitioner.
    if recovered.shard_pending is not None:
        per_shard = [
            [entry_from_json(desc) for desc in queue]
            for queue in recovered.shard_pending
        ]
        tail = recovered.tail_pending
    else:
        per_shard = [[] for _ in range(checker.shards)]
        tail = recovered.pending
    for desc in tail:
        entry = entry_from_json(desc)
        per_shard[checker.shard_of(entry.update)].append(entry)
    for queue in per_shard:
        queue.sort(key=lambda entry: entry.seq)
    session_stats = [
        SessionStats.from_dict(data) for data in recovered.session_stats
    ]
    if checker._procpool is not None:
        checker._procpool.restore_checkpoint(
            per_shard, session_stats, recovered.worker_restarts
        )
    else:
        for session, queue, stats in zip(
            checker.sessions, per_shard, session_stats
        ):
            session._pending.extend(queue)
            session.stats = stats
    if recovered.shard_seq is not None:
        for cell, seq in zip(checker._seq_cells, recovered.shard_seq):
            cell[0] = seq
    checker._arrival = itertools.count(recovered.seq + 1)
    checker.stats = recovered.stats
    if link is not None and recovered.link_state is not None:
        link.restore_state(recovered.link_state)


def _journal_future_patches(checker, writer) -> None:
    """Journal which pending entries' overlapped escalation futures have
    landed (one ``"fp"`` record per landed future).

    An ``--overlap-remote`` run journals a deferred update *at settle
    time* with a future-pending marker — the fetch is still in flight.
    Once :meth:`~repro.distributed.remote.RemoteLink.wait_inflight`
    returns, the landed futures' results exist, and the patch records
    let a journal-tail-only recovery mark those descriptors resolved
    (the resumed drain re-fetches synchronously either way; the marker
    preserves what the crashed run knew)."""
    for session in checker.sessions:
        for entry in session._pending:
            if entry.future is not None and entry.future.done():
                writer.record_future_patch(entry.seq)


def _stream_status(reports, pessimistic: bool) -> tuple[str, bool]:
    """The per-update verdict line's status text (shared by the live
    stream loop and the ``--resume`` journal echo, so a resumed run's
    output diffs clean against an uninterrupted one)."""
    rejected = any(r.outcome is Outcome.VIOLATED for r in reports)
    deferred = any(r.outcome is Outcome.DEFERRED for r in reports)
    if rejected:
        return "REJECTED", True
    if deferred:
        return "DEFERRED (remote unreachable)", False
    if pessimistic and any(r.outcome is Outcome.UNKNOWN for r in reports):
        return "held (unknown)", False
    return "applied", False


def _drain_pending(checker) -> tuple[list, int]:
    """Drain deferred verdicts until settled or the link looks dead."""
    settled: list = []
    for _ in range(_MAX_DRAIN_ROUNDS):
        if not checker.pending_count:
            break
        settled.extend(checker.resolve_pending())
    return settled, checker.pending_count


def _cmd_check_stream(args: argparse.Namespace) -> int:
    from repro.distributed.rebalance import RebalancePolicy
    from repro.distributed.sharded import ShardedChecker

    constraints = load_constraints(args.constraints)
    db = load_database(args.db) if args.db else Database()
    updates = load_updates(args.updates)
    local_predicates = set(args.local or db.predicates())
    for update in updates:
        if update.predicate not in local_predicates:
            local = ", ".join(sorted(local_predicates))
            raise ReproError(
                f"update {update} targets {update.predicate!r}, which is not "
                f"a local predicate (local: {local})"
            )

    recovered = None
    injector = None
    journal_config = None
    if args.resume and not args.journal:
        raise ReproError("--resume needs --journal DIR")
    if args.crash_at:
        from repro.distributed.faults import CrashInjector, parse_crash_point

        try:
            injector = CrashInjector(
                [
                    parse_crash_point(spec, hard=args.crash_mode == "hard")
                    for spec in args.crash_at
                ]
            )
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
    if args.journal:
        _journal_flag_conflicts(args)
        journal_config = _journal_config(args, constraints, local_predicates)
        if args.resume:
            from repro.durability.journal import JOURNAL_FILE
            from repro.durability.recovery import load_meta, recover

            if not os.path.exists(os.path.join(args.journal, JOURNAL_FILE)):
                raise ReproError(
                    f"no journal found at {args.journal!r}; "
                    "did you mean a fresh --journal run?"
                )
            # Before any manifest is read: a journal written under another
            # configuration may carry stats this build cannot parse.
            meta = load_meta(args.journal)
            if meta is not None and meta != journal_config:
                raise ReproError(
                    "--resume configuration differs from the journal's "
                    "meta.json; a journal only replays under the exact "
                    "configuration that wrote it"
                )
            recovered = recover(args.journal)
            if recovered.dropped_lines:
                print(
                    f"journal: truncated {recovered.dropped_lines} torn/corrupt "
                    "trailing line(s); their updates will be reprocessed",
                    file=sys.stderr,
                )
            db = _overlay_recovered_facts(db, local_predicates, recovered)
        else:
            from repro.durability.journal import JOURNAL_FILE

            if os.path.exists(os.path.join(args.journal, JOURNAL_FILE)):
                raise ReproError(
                    f"journal directory {args.journal!r} already holds a run; "
                    "pass --resume to continue it or point --journal at a "
                    "fresh directory"
                )

    sites = _build_sites(args, db, local_predicates)
    site_rates = _parse_site_fault_rates(args)
    unknown_rates = set(site_rates) - {"*"} - set(sites.site_names)
    if unknown_rates:
        raise ReproError(
            f"--site-fault-rate names unknown site(s): {sorted(unknown_rates)} "
            f"(sites: {sorted(sites.site_names)})"
        )

    def _site_link(name: str, site):
        return _build_remote_link(
            args, site, rate=site_rates.get(name, site_rates.get("*"))
        )

    remote_links = {
        name: built
        for name, site in sites.remotes.items()
        if (built := _site_link(name, site)) is not None
    }
    if args.shards is None:
        if args.parallel is not None:
            raise ReproError(
                "--parallel needs --shards: the workers are per-shard sessions"
            )
        if args.executor == "process":
            raise ReproError(
                "--executor process needs --shards: the workers are per-shard "
                "sessions"
            )
        if args.shard_by:
            raise ReproError(
                "--shard-by needs --shards: it splits a predicate across "
                "the shards"
            )
    if args.executor == "process" and args.overlap_remote:
        raise ReproError(
            "--overlap-remote needs the thread executor: an async fetch "
            "future cannot cross the process boundary"
        )
    if args.executor == "process" and args.transaction:
        raise ReproError(
            "--transaction needs the thread executor: the worker processes "
            "hold the shard state"
        )
    if args.rebalance is not None:
        if args.rebalance < 1:
            raise ReproError("--rebalance interval must be >= 1")
        if not args.shard_by:
            raise ReproError(
                "--rebalance needs --shards and --shard-by: it moves "
                "key-range cut points"
            )
    try:
        partitioner = _build_partitioner(args, local_predicates)
        if recovered is not None:
            # The checker partitions the local database at construction
            # time, so the recovered cut vectors go in first.
            for predicate, cuts in recovered.cuts.items():
                partitioner.set_boundaries(predicate, cuts)
        checker = ShardedChecker(
            constraints, sites,
            partitioner=partitioner,
            apply_on_unknown=not args.pessimistic,
            remote_links=remote_links,
            snapshot_ttl=args.snapshot_ttl,
            parallelism=1 if args.parallel is None else args.parallel,
            overlap_remote=args.overlap_remote,
            executor=args.executor,
            rebalance=(
                RebalancePolicy(interval=args.rebalance)
                if args.rebalance is not None
                else None
            ),
            chaos=injector,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    # The checker may have promoted the per-site links into a single
    # FederationLink; tear down whatever it actually escalates through.
    link = checker.remote_link
    writer = None
    if args.journal:
        from repro.durability.checkpoint import write_checkpoint
        from repro.durability.journal import JournalWriter
        from repro.durability.recovery import write_meta

        if recovered is not None:
            # Restore before the writer exists: its link-state probe must
            # start from the recovered fetch counters, not fresh zeros.
            _restore_into(checker, recovered, link)
        else:
            write_meta(args.journal, journal_config)

        def _write_manifest(pos: int) -> None:
            write_checkpoint(args.journal, _checkpoint_payload(pos, checker, link))

        writer = JournalWriter(
            args.journal,
            sync_every=args.sync_every,
            link=link,
            checkpoint_every=args.checkpoint_every,
            checkpoint_cb=_write_manifest,
            crash_injector=injector,
        )
        if recovered is not None:
            writer.pos = recovered.pos
        checker.attach_effect_log(writer)
        if recovered is None:
            # The resume floor: a pos-0 manifest of the initial state, so
            # recovery always finds a valid checkpoint to replay from.
            writer.checkpoint_now()
    exit_code = 0
    try:
        if args.transaction:
            committed, all_reports = checker.process_transaction(updates)
            for update, reports in zip(updates, all_reports):
                rejected = any(r.outcome is Outcome.VIOLATED for r in reports)
                print(f"{update}: {'REJECTED' if rejected else 'ok'}")
                if args.verbose:
                    for report in reports:
                        print(f"    {report}")
            if committed:
                print("transaction: COMMITTED")
            else:
                print("transaction: ROLLED BACK (local site restored exactly)")
                exit_code = 1
        else:
            if recovered is not None:
                # Re-echo the journalled prefix's verdicts so the resumed
                # run's output covers the whole stream and diffs clean
                # against an uninterrupted run.
                from repro.durability.journal import report_from_json, update_from_json

                for record in recovered.records:
                    update = update_from_json(record["update"])
                    reports = [report_from_json(r) for r in record["reports"]]
                    status, rejected = _stream_status(reports, args.pessimistic)
                    if rejected:
                        exit_code = 1
                    print(f"{update}: {status}")
                    if args.verbose:
                        for report in reports:
                            print(f"    {report}")
                updates = updates[recovered.pos:]
            results = checker.check_stream(updates)
            for update, reports in zip(updates, results):
                status, rejected = _stream_status(reports, args.pessimistic)
                if rejected:
                    exit_code = 1
                print(f"{update}: {status}")
                if args.verbose:
                    for report in reports:
                        print(f"    {report}")
        if writer is not None:
            if link is not None and args.overlap_remote:
                # Close the overlap window first: once the in-flight
                # escalation futures land, journal a future-patch record
                # per landed future, so a resume from the journal alone
                # knows those pending records' fetches completed.
                link.wait_inflight()
                _journal_future_patches(checker, writer)
            # End-of-stream manifest *before* the drain: drains are never
            # journalled (resume re-drains deterministically), so a crash
            # anywhere in the drain resumes from here.
            writer.checkpoint_now()
        if checker.pending_count:
            print()
            print(f"resolving {checker.pending_count} deferred verdict(s)...")
            if link is not None and args.overlap_remote:
                # Let the in-flight escalation futures land so the drain
                # can settle from their results instead of breaking on
                # them (a no-op when the journal block above waited).
                link.wait_inflight()
            settled, remaining = _drain_pending(checker)
            for update, reports in settled:
                rejected = any(r.outcome is Outcome.VIOLATED for r in reports)
                if rejected:
                    exit_code = 1
                print(f"{update}: {'REJECTED' if rejected else 'applied'} (resolved)")
                if args.verbose:
                    for report in reports:
                        print(f"    {report}")
            if remaining:
                print(
                    f"{remaining} update(s) still pending after "
                    f"{_MAX_DRAIN_ROUNDS} drain rounds — remote unreachable"
                )
                exit_code = exit_code or 2
        if writer is not None:
            writer.close()
    except InjectedCrash:
        # A soft crash loses the unsynced journal suffix exactly as a
        # hard kill would — abandon, never flush.
        if writer is not None:
            writer.abandon()
        raise
    finally:
        # Tear down the process-pool workers even on a crash, so the
        # in-process kill-anywhere tests never leak worker processes
        # (thread mode: no-op).
        checker.close()
    print()
    width = max(len(label) for label, _ in checker.stats.summary_rows())
    for label, value in checker.stats.summary_rows():
        print(f"{label:<{width}}  {value}")
    if link is not None:
        from repro.distributed.remote import FederationLink

        link.close()

        def _print_rows(rows):
            width = max(len(label) for label, _ in rows)
            for label, value in rows:
                print(f"{label:<{width}}  {value}")

        print()
        print("-- remote link degradation --")
        rows = (
            link.summary_rows()
            if isinstance(link, FederationLink)
            else link.stats.summary_rows()
        )
        rows.append(("breaker state at exit", str(link.state)))
        rows.append(("simulated link clock", round(link.clock, 4)))
        # Echo the effective seed (including the default) so a degraded
        # run is reproducible from its own output.
        rows.append(("fault seed", args.fault_seed))
        _print_rows(rows)
        if isinstance(link, FederationLink):
            for name, site_link in sorted(link.links.items()):
                print()
                print(f"-- site {name} --")
                rows = site_link.stats.summary_rows()
                rows.append(("breaker state at exit", str(site_link.state)))
                rows.append(("simulated link clock", round(site_link.clock, 4)))
                _print_rows(rows)
    return exit_code


def _cmd_local_test(args: argparse.Namespace) -> int:
    from repro.localtests.complete import (
        complete_local_test_insertion,
        completeness_witness,
    )

    constraints = load_constraints(args.constraints)
    db = load_database(args.db) if args.db else Database()
    update = parse_update(args.update)
    if not isinstance(update, Insertion):
        raise ReproError("the complete local test covers insertions")
    relation = sorted(db.facts(args.local))
    exit_code = 0
    for constraint in constraints:
        if not constraint.is_single_rule:
            print(f"{constraint.name}: skipped (not a single-rule CQC)")
            continue
        try:
            verdict = complete_local_test_insertion(
                constraint.as_rule(), args.local, update.values, relation
            )
        except ReproError as exc:
            print(f"{constraint.name}: skipped ({exc})")
            continue
        if verdict:
            print(f"{constraint.name}: YES — the insertion cannot violate it")
        else:
            exit_code = 2
            print(f"{constraint.name}: UNKNOWN — a remote state could violate it")
            if args.witness:
                witness = completeness_witness(
                    constraint.as_rule(), args.local, update.values, relation
                )
                if witness is not None:
                    for predicate in sorted(witness.predicates()):
                        for fact in sorted(witness.facts(predicate), key=repr):
                            print(f"    e.g. {predicate}{fact!r}")
    return exit_code


def _cmd_subsume(args: argparse.Namespace) -> int:
    constraints = load_constraints(args.constraints)
    target = constraints[args.target]
    others = constraints.others(target)
    try:
        verdict = subsumes(others, target)
    except ReproError as exc:
        print(f"undecidable/unsupported: {exc}")
        return 2
    if verdict:
        print(f"{target.name} is subsumed: it never needs to be checked "
              f"while the others are maintained")
        return 0
    print(f"{target.name} is NOT subsumed by the rest of the set")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constraint checking with partial information (PODS 1994)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="place constraints in the Fig. 2.1 lattice")
    classify.add_argument("constraints")
    classify.set_defaults(func=_cmd_classify)

    check = sub.add_parser("check", help="evaluate constraints / check an update")
    check.add_argument("constraints")
    check.add_argument("--db", help="JSON database file")
    check.add_argument("--update", help="+pred(v, ...) or -pred(v, ...)")
    check.add_argument(
        "--local", nargs="*", help="predicates stored locally (default: all)"
    )
    check.set_defaults(func=_cmd_check)

    stream = sub.add_parser(
        "check-stream",
        help="run an update stream through an incremental check session",
    )
    stream.add_argument("constraints")
    stream.add_argument("--db", help="JSON database file (split by --local)")
    stream.add_argument(
        "--updates", help="file of updates, one per line (default: stdin)"
    )
    stream.add_argument(
        "--local", nargs="*", help="predicates stored locally (default: all)"
    )
    stream.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the per-constraint reports for every update",
    )
    stream.add_argument(
        "--transaction", action="store_true",
        help="treat the whole stream as one atomic transaction: any "
        "rejection rolls back every applied update exactly (exit 1); "
        "needs the thread executor",
    )
    stream.add_argument(
        "--pessimistic", action="store_true",
        help="apply an update only when every verdict is SATISFIED "
        "(UNKNOWN/DEFERRED hold it back)",
    )
    stream.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition the local site into N shards, one check session "
        "each (verdicts identical to a single session; default 1)",
    )
    stream.add_argument(
        "--shard-by", action="append", metavar="PRED=CUT1,CUT2,...",
        help="key-range split PRED across the shards on its first "
        "column (N-1 sorted cut points; repeatable); other predicates "
        "stay whole, round-robin; needs --shards",
    )
    stream.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="run shard-confined updates on N worker threads "
        "(fence-scheduled; verdicts identical to serial); needs --shards",
    )
    stream.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="run the shard sessions on worker threads (default) or in "
        "one worker process per shard (verdicts identical; escalations "
        "bounce through the parent's link); needs --shards",
    )
    stream.add_argument(
        "--rebalance", type=int, nargs="?", const=256, default=None,
        metavar="N",
        help="enable live key-range rebalancing: every N routed updates "
        "(default 256) a hot shard's range is split at its sampled "
        "median and migrated at a fence; needs --shards and --shard-by",
    )
    stream.add_argument(
        "--sites", type=int, default=2, metavar="N",
        help="total number of sites: one local plus N-1 remotes; with "
        "N > 2 the remote predicates are dealt round-robin (sorted) "
        "across sites remote1..remoteN-1 and escalations fan out over "
        "a federated link (default 2, the classic two-site split)",
    )
    stream.add_argument(
        "--snapshot-ttl", type=float, default=None, metavar="SECS",
        help="cache each remote site's fetched snapshot for SECS "
        "simulated seconds on the federated link (default: no cache)",
    )
    stream.add_argument(
        "--overlap-remote", action="store_true",
        help="issue remote escalations asynchronously: the update "
        "defers immediately and the stream keeps flowing while the "
        "fetch is in flight (settled by the post-stream drain)",
    )
    faults = stream.add_argument_group(
        "fault simulation",
        "simulate an unreliable remote site; any of these flags routes "
        "escalations through a retry/backoff/circuit-breaker link and "
        "degrades unreachable-remote verdicts to DEFERRED",
    )
    faults.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="per-attempt transient failure probability in [0,1]",
    )
    faults.add_argument(
        "--outage", action="append", metavar="START:LENGTH",
        help="hard-outage window over the remote attempt index "
        "(repeatable); every attempt inside it fails",
    )
    faults.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="attempts per remote fetch before deferring (default 4)",
    )
    faults.add_argument(
        "--remote-timeout", type=float, default=None, metavar="SECS",
        help="per-attempt timeout in simulated seconds",
    )
    faults.add_argument(
        "--remote-latency", type=float, default=0.0, metavar="SECS",
        help="simulated latency per remote attempt",
    )
    faults.add_argument(
        "--site-fault-rate", action="append", metavar="SITE=P",
        help="per-site transient failure probability, overriding "
        "--fault-rate for that site (repeatable; a bare P applies to "
        "every site)",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=0, metavar="SEED",
        help="seed for the fault model and retry jitter (default 0)",
    )
    durability = stream.add_argument_group(
        "durability",
        "journal every update's effects plus periodic checkpoint "
        "manifests, so a killed run resumes to the exact same verdicts "
        "and final state (serial, --parallel, and --executor process "
        "runs; not --transaction or --snapshot-ttl)",
    )
    durability.add_argument(
        "--journal", metavar="DIR", default=None,
        help="write an append-only CRC-framed effects journal and "
        "checkpoint manifests under DIR",
    )
    durability.add_argument(
        "--resume", action="store_true",
        help="recover DIR's newest valid checkpoint, replay the journal "
        "tail, and continue the stream from where the last run stopped",
    )
    durability.add_argument(
        "--sync-every", type=int, default=16, metavar="N",
        help="fsync the journal every N updates (default 16; 1 is "
        "write-through — a crash then loses nothing)",
    )
    durability.add_argument(
        "--checkpoint-every", type=int, default=64, metavar="N",
        help="write a checkpoint manifest every N updates so recovery "
        "replays only the tail (default 64; must be >= 1 — the initial "
        "and end-of-stream manifests are always written)",
    )
    durability.add_argument(
        "--crash-at", action="append", metavar="POINT[:K]",
        help="chaos injection: crash at the K-th visit (default 1st) of "
        "a named point — update, fence, mid-drain, mid-rebalance, "
        "segment-dispatch, barrier-fold, worker-revive (repeatable)",
    )
    durability.add_argument(
        "--crash-mode", choices=("hard", "soft"), default="hard",
        help="hard: SIGKILL the process at the crash point, exactly like "
        "kill -9 (default); soft: raise a typed InjectedCrash instead",
    )
    stream.set_defaults(func=_cmd_check_stream)

    local_test = sub.add_parser(
        "local-test", help="run the Theorem 5.2 complete local test"
    )
    local_test.add_argument("constraints")
    local_test.add_argument("--db", help="JSON database file")
    local_test.add_argument("--local", required=True, help="the local predicate")
    local_test.add_argument("--update", required=True)
    local_test.add_argument(
        "--witness", action="store_true",
        help="on UNKNOWN, print a violating remote state",
    )
    local_test.set_defaults(func=_cmd_local_test)

    subsume = sub.add_parser("subsume", help="is a constraint subsumed by the rest?")
    subsume.add_argument("constraints")
    subsume.add_argument("--target", required=True, help="constraint name")
    subsume.set_defaults(func=_cmd_subsume)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
