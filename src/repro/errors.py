"""Exception hierarchy for the ``repro`` library.

Every error raised by this library derives from :class:`ReproError`, so a
caller that wants a single catch-all has one.  The more specific classes
mirror the stages of the pipeline: parsing, static analysis (safety and
stratification), decision procedures, and the update machinery.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ParseError(ReproError):
    """Raised when a constraint/program string cannot be parsed.

    Carries the position of the offending token so callers can produce a
    pointer into the source text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SafetyError(ReproError):
    """Raised when a rule is not range-restricted (safe).

    A rule is safe when every variable that appears in the head, in a
    negated subgoal, or in an arithmetic comparison also appears in some
    positive ordinary subgoal of the body.  Unsafe rules have no finite
    bottom-up semantics.
    """


class StratificationError(ReproError):
    """Raised when a program uses negation through recursion.

    The bottom-up engine implements the stratified semantics; a program
    whose predicate dependency graph has a cycle through a negative edge
    has no stratification and is rejected.
    """


class UndecidableError(ReproError):
    """Raised when a decision problem is undecidable for the given class.

    The paper notes (Section 3, citing Shmueli [1987]) that subsumption is
    undecidable when both the subsumed and subsuming constraints are
    recursive datalog programs.  The corresponding APIs raise this error
    instead of silently approximating; callers may opt into the explicitly
    sound-but-incomplete randomized checks.
    """


class NotApplicableError(ReproError):
    """Raised when an algorithm's preconditions are not met.

    For instance, the Theorem 5.3 relational-algebra construction requires
    an arithmetic-free CQC, and the Fig. 6.1 generator requires an
    independently constrained query (ICQ).
    """


class UnsupportedClassError(ReproError):
    """Raised when a constraint falls outside the classes an API handles."""


class EvaluationError(ReproError):
    """Raised for runtime failures of the datalog or algebra evaluators."""


class ShardWorkerCrashed(ReproError):
    """Raised when a process-pool shard worker dies.

    A dead worker used to escape as a raw
    ``concurrent.futures.process.BrokenProcessPool`` — an implementation
    detail of the executor, not an error a caller of the checker can
    reasonably catch.  This wrapper carries the crashed ``shard`` id and
    ``last_seq``, the arrival-clock stamp of the last update dispatched
    to that shard before the crash, so supervisors and operators know
    exactly where the stream stopped.
    """

    def __init__(self, message: str, shard: int, last_seq: int = 0) -> None:
        super().__init__(message)
        self.shard = shard
        self.last_seq = last_seq


class InjectedCrash(ReproError):
    """Raised by a soft :class:`~repro.distributed.faults.CrashPoint`.

    Chaos injection distinguishes *hard* crashes (``SIGKILL`` to the
    current process — nothing is catchable) from *soft* ones, which
    raise this error at the named point so in-process tests can assert
    that recovery from exactly that point reproduces the uninterrupted
    run.  ``name`` is the crash point's label and ``occurrence`` the
    1-based count of how many times the point had been passed when it
    fired.
    """

    def __init__(self, name: str, occurrence: int = 1) -> None:
        super().__init__(f"injected crash at point {name!r} (occurrence {occurrence})")
        self.name = name
        self.occurrence = occurrence


class RemoteUnavailableError(ReproError):
    """Raised when remote data cannot be fetched for a level-3 check.

    The paper's premise is that "accessing remote data may be expensive
    or impossible"; this error is the *impossible* case.  ``reason``
    classifies the failure (``"transient"``, ``"outage"``, ``"timeout"``,
    ``"circuit-open"``, ``"exhausted"``) so retry policies and statistics
    can distinguish them.  Callers that catch it degrade to a DEFERRED
    verdict instead of crashing the stream.

    ``sites`` names the federated remote sites whose fetches failed, when
    the raiser knows them (a multi-site fan-out may succeed on some sites
    and fail on others).  The partial-recovery drain uses it to mark only
    the failed sites dark and keep settling entries whose site needs are
    still covered; an empty set means the failure is unattributed and the
    caller must assume every site it asked for is affected.
    """

    def __init__(
        self,
        message: str,
        reason: str = "transient",
        sites: "Iterable[str] | None" = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.sites = frozenset(sites) if sites is not None else frozenset()
