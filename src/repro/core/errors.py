"""Exception hierarchy for the SRL reproduction.

Every error raised by the library derives from :class:`SRLError`, so callers
can catch a single base class.  The split mirrors the phases of working with
an SRL program: parsing the surface syntax, type checking, checking a
syntactic restriction (SRL / BASRL / SRFO+TC / ...), and finally evaluation.
"""

from __future__ import annotations


class SRLError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class SRLSyntaxError(SRLError):
    """Raised by the surface-syntax parser on malformed input.

    Carries the (1-based) line and column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.line = line
        self.column = column


class SRLTypeError(SRLError):
    """Raised by the type checker when an expression is ill typed."""


class SRLNameError(SRLError):
    """Raised when an unbound variable or unknown definition is referenced."""


class SRLRuntimeError(SRLError):
    """Raised by the evaluator on a dynamic error (e.g. ``choose`` on the
    empty set, selecting a component that does not exist, applying ``new``
    when invented values are not enabled)."""


class RestrictionViolation(SRLError):
    """Raised (or collected) when a program falls outside a language
    restriction such as SRL's set-height <= 1 or BASRL's flat accumulator.

    ``violations`` is a list of human-readable reasons; a checker may either
    raise this exception or return the list, depending on the API used.
    """

    def __init__(self, restriction: str, violations: list[str]):
        self.restriction = restriction
        self.violations = list(violations)
        summary = "; ".join(self.violations) if self.violations else "unspecified violation"
        super().__init__(f"program is not in {restriction}: {summary}")


class InvalidDatabaseError(SRLRuntimeError):
    """Raised when JSON-shaped input (a database or structure file) is
    malformed: wrong-arity tuples, non-list facts, values that are not an
    SRL value, relations referenced but never defined.  Messages are
    path-qualified (``EDGES[3]: ...``) so the offending fragment can be
    found in the input file; the CLI maps this to exit code 2 (a bad
    input, not an engine failure)."""


class SnapshotError(InvalidDatabaseError):
    """Raised when a binary structure snapshot cannot be read: bad magic,
    unsupported version, a header that is not valid JSON, section offsets
    pointing past the end of the file, or a payload truncated mid-word.
    Subclasses :class:`InvalidDatabaseError` so the CLI maps it to exit
    code 2 (bad input) without new plumbing."""


class ResourceLimitExceeded(SRLRuntimeError):
    """Raised when evaluation exceeds a configured budget — the classic
    step / insert / set-size limits of :class:`EvaluationLimits`, or one
    of the :class:`~repro.core.governor.Budget` resources (wall-clock
    deadline, rows materialized, fixpoint rounds, memo entries,
    cooperative cancellation), each of which raises the matching subclass
    below.  Benchmarks use generous limits; tests use tight ones to assert
    that restricted programs stay cheap.

    ``stats`` optionally carries the partial execution counters at the
    moment the budget blew (a :class:`~repro.logic.plan.PlanStats` or
    :class:`~repro.core.evaluator.EvaluationStats`), so callers can see
    *how far* the aborted evaluation got."""

    def __init__(self, resource: str, limit, used, stats=None):
        super().__init__(f"{resource} limit exceeded: used {used}, limit {limit}")
        self.resource = resource
        self.limit = limit
        self.used = used
        self.stats = stats


class DeadlineExceeded(ResourceLimitExceeded):
    """The wall-clock deadline of a :class:`~repro.core.governor.Budget`
    passed before evaluation finished."""


class EvaluationCancelled(ResourceLimitExceeded):
    """The budget's cooperative :class:`~repro.core.governor.CancelToken`
    was cancelled; the evaluation stopped at the next checkpoint."""

    def __init__(self, stats=None):
        super().__init__("cancellation", 0, 1, stats=stats)


class RowLimitExceeded(ResourceLimitExceeded):
    """Plan execution materialized more rows than the budget's
    ``max_rows_materialized`` allows (checked *before* a domain product is
    enumerated, so an adversarial ``n^k`` complement aborts without first
    allocating it)."""


class FixpointRoundLimitExceeded(ResourceLimitExceeded):
    """A fixed-point or closure iteration exceeded the budget's
    ``max_fixpoint_rounds``."""


class MemoLimitExceeded(ResourceLimitExceeded):
    """Storing one more memoized relation would exceed the budget's
    ``max_memo_entries``."""


class MemoryLimitExceeded(ResourceLimitExceeded):
    """Resident working-set bytes (packed columnar payloads: bitset words,
    CSR offset/target arrays) exceeded the budget's ``max_bytes_resident``.
    The estimate is structural — words held by live kernels, not the
    process RSS — so it is deterministic and testable."""


# --------------------------------------------------------- service taxonomy
#
# The query service (``repro.service``) extends PR 6's single-process
# failure semantics — "correct answer or clean error, never wrong" —
# across process boundaries.  Every way a request can fail *between*
# processes gets its own type, so clients (and the chaos availability
# gate) can tell a dead worker from a full queue from a blown budget.


class ServiceError(SRLError):
    """Base class for failures of the query service layer itself —
    worker supervision, admission control, and the wire protocol — as
    opposed to failures of the query being evaluated."""


class ProtocolError(ServiceError):
    """A length-prefixed JSON frame could not be read or written: the
    stream ended mid-frame, the length prefix is implausible, or the body
    is not valid JSON.  Between server and worker this is treated exactly
    like a worker crash (the connection is no longer trustworthy)."""


class WorkerCrashed(ServiceError):
    """A worker process died (pipe EOF, heartbeat loss, or a hang past
    the deadline grace) while holding this request, and the retry budget
    could not produce an answer from a healthy worker.

    ``attempts`` counts how many workers tried the request; ``stats``
    optionally carries whatever partial counters the supervisor knows
    (e.g. the per-attempt worker pids) — never a partial *answer*: a
    request either completes with the full, correct relation or with a
    typed error."""

    def __init__(self, message: str, attempts: int = 1, stats=None):
        super().__init__(message)
        self.attempts = attempts
        self.stats = stats


class Overloaded(ServiceError):
    """Admission control shed this request: the bounded queue is full (or
    the pool has no healthy worker and the caller's deadline cannot wait
    out the respawn backoff).  ``retry_after`` is the server's suggested
    wait in seconds — the HTTP layer surfaces it as a ``Retry-After``
    header."""

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after
