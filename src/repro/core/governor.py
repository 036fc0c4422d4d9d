"""Resource governance: budgets, deadlines, and cooperative cancellation.

The source paper gets its mileage from *bounding* the resources of a
logic; the engine mirrors that stance operationally.  A :class:`Budget`
declares what a single evaluation may consume — wall-clock time, rows
materialized by the plan backend, fixed-point rounds, memo entries — plus
a cooperative :class:`CancelToken`.  ``Budget.start()`` mints a
:class:`Governor`, the mutable per-run enforcement object that every
layer checks at its natural choke points:

=====================================  =====================================
choke point                            check
=====================================  =====================================
``Plan.execute`` (every node)          ``tick`` + ``note_rows``
join / semijoin probe loops            chunked ``check_time``
``DomainProduct`` / ``Closure``        ``check_rows_ahead`` (before the
                                       ``n^k`` enumeration, not after)
fixpoint / closure round boundaries    ``note_round``
optimizer pass boundaries              ``check_time``
tree-walking evaluator ``_tick``       ``tick``
compiled runtime ``tick``              ``tick``
memo stores                            ``check_memo``
=====================================  =====================================

All violations raise a subclass of
:class:`~repro.core.errors.ResourceLimitExceeded` carrying the partial
execution stats, so a caller can see how far the aborted query got.

A governor is intentionally *not* thread-safe and *not* reusable across
queries: counters like rows-materialized are per-run, independent of any
cumulative :class:`~repro.logic.plan.PlanStats` a caller accumulates
across queries.  The one cross-thread piece is :class:`CancelToken`,
whose single boolean flip is safe to perform from another thread.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import (
    DeadlineExceeded,
    EvaluationCancelled,
    FixpointRoundLimitExceeded,
    MemoLimitExceeded,
    MemoryLimitExceeded,
    RowLimitExceeded,
)

__all__ = ["Budget", "CancelToken", "DegradationEvent", "Governor",
           "cancel_on_signals"]


class CancelToken:
    """A cooperative cancellation flag.

    ``cancel()`` may be called from any thread; the evaluation observes it
    at the next governor checkpoint and raises
    :class:`~repro.core.errors.EvaluationCancelled`.  Tokens are one-shot:
    once cancelled, every evaluation sharing the token stops.
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CancelToken(cancelled={self._cancelled})"


@dataclass(frozen=True)
class Budget:
    """A declarative resource budget for one evaluation.

    ``None`` means unlimited for that resource.  ``check_interval``
    amortizes the wall-clock check: hot loops call ``Governor.tick()``
    per step, and only every ``check_interval``-th tick pays for
    ``time.monotonic()``.
    """

    deadline_seconds: float | None = None
    max_rows_materialized: int | None = None
    max_fixpoint_rounds: int | None = None
    max_memo_entries: int | None = None
    cancel_token: CancelToken | None = None
    check_interval: int = 1024
    max_bytes_resident: int | None = None

    def __post_init__(self) -> None:
        for name in ("deadline_seconds", "max_rows_materialized",
                     "max_fixpoint_rounds", "max_memo_entries",
                     "max_bytes_resident"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"Budget.{name} must be >= 0, got {value!r}")
        if self.check_interval < 1:
            raise ValueError("Budget.check_interval must be >= 1")

    @property
    def unlimited(self) -> bool:
        return (self.deadline_seconds is None
                and self.max_rows_materialized is None
                and self.max_fixpoint_rounds is None
                and self.max_memo_entries is None
                and self.cancel_token is None
                and self.max_bytes_resident is None)

    def start(self, stats=None) -> "Governor":
        """Mint the per-run enforcement object.  ``stats`` (typically a
        :class:`~repro.logic.plan.PlanStats`) is attached to any raised
        :class:`ResourceLimitExceeded` as the partial-progress report."""
        return Governor(self, stats=stats)


@dataclass(frozen=True)
class DegradationEvent:
    """A record of one rung down the degradation ladder.

    ``stage`` names where the failure happened (``"optimize"``,
    ``"plan"``, ``"memo"``); ``fallback`` what the engine did instead
    (``"raw-plan"``, ``"tuple"``, ``"no-memo"``); ``error`` the repr of
    the exception that triggered it.  Sessions collect these instead of
    failing the query.
    """

    stage: str
    fallback: str
    error: str


class Governor:
    """Mutable per-run budget enforcement.  Create via ``Budget.start()``."""

    __slots__ = ("budget", "stats", "_deadline", "_token", "_interval",
                 "_countdown", "_rows", "_rounds", "_bytes")

    def __init__(self, budget: Budget, stats=None) -> None:
        self.budget = budget
        self.stats = stats
        self._deadline = (None if budget.deadline_seconds is None
                          else time.monotonic() + budget.deadline_seconds)
        self._token = budget.cancel_token
        self._interval = budget.check_interval
        self._countdown = self._interval
        self._rows = 0
        self._rounds = 0
        self._bytes = 0

    # ------------------------------------------------------------ wall clock

    def check_time(self) -> None:
        """The unamortized check: cancellation, then the deadline."""
        if self._token is not None and self._token.cancelled:
            raise EvaluationCancelled(stats=self.stats)
        # >= so deadline_seconds=0.0 trips deterministically even when the
        # clock has not advanced between Budget.start() and the first check.
        if self._deadline is not None and time.monotonic() >= self._deadline:
            raise DeadlineExceeded("deadline_seconds",
                                   self.budget.deadline_seconds,
                                   self.budget.deadline_seconds,
                                   stats=self.stats)

    def tick(self, weight: int = 1) -> None:
        """Amortized ``check_time``: pays for the clock read only every
        ``check_interval`` units of work."""
        self._countdown -= weight
        if self._countdown <= 0:
            self._countdown = self._interval
            self.check_time()

    def remaining_seconds(self) -> float | None:
        """Wall-clock budget still available (``None`` = no deadline).
        Never negative; the query service uses this to hand a worker the
        *remaining* deadline, not the original one."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - time.monotonic())

    # ------------------------------------------------------------------ rows

    @property
    def rows_materialized(self) -> int:
        return self._rows

    def note_rows(self, count: int) -> None:
        """Account ``count`` freshly materialized rows."""
        self._rows += count
        limit = self.budget.max_rows_materialized
        if limit is not None and self._rows > limit:
            raise RowLimitExceeded("rows_materialized", limit, self._rows,
                                   stats=self.stats)

    def check_rows_ahead(self, count: int) -> None:
        """Refuse an enumeration of ``count`` rows *before* allocating it
        (the OOM guard for ``universe^k`` products)."""
        limit = self.budget.max_rows_materialized
        if limit is not None and self._rows + count > limit:
            raise RowLimitExceeded("rows_materialized", limit,
                                   self._rows + count, stats=self.stats)

    # ----------------------------------------------------------------- bytes

    @property
    def bytes_resident(self) -> int:
        """Peak structural working-set estimate seen so far (bytes)."""
        return self._bytes

    def note_bytes(self, count: int) -> None:
        """Report that a kernel currently holds ``count`` bytes of packed
        payloads (bitset words, CSR offset/target arrays).  Absolute, not a
        delta: the governor keeps the peak and enforces the budget's
        ``max_bytes_resident`` against it."""
        if count > self._bytes:
            self._bytes = count
        limit = self.budget.max_bytes_resident
        if limit is not None and count > limit:
            raise MemoryLimitExceeded("bytes_resident", limit, count,
                                      stats=self.stats)

    # ---------------------------------------------------------------- rounds

    @property
    def fixpoint_rounds(self) -> int:
        return self._rounds

    def note_round(self) -> None:
        """Account one fixed-point / closure round (and check the clock —
        round boundaries are the coarse-grained checkpoint)."""
        self._rounds += 1
        limit = self.budget.max_fixpoint_rounds
        if limit is not None and self._rounds > limit:
            raise FixpointRoundLimitExceeded("fixpoint_rounds", limit,
                                             self._rounds, stats=self.stats)
        self.check_time()

    # ------------------------------------------------------------------ memo

    def check_memo(self, entries: int) -> None:
        """Check that a memo table may grow to ``entries`` entries."""
        limit = self.budget.max_memo_entries
        if limit is not None and entries > limit:
            raise MemoLimitExceeded("memo_entries", limit, entries,
                                    stats=self.stats)


# ------------------------------------------------------------------ signals


@contextmanager
def cancel_on_signals(token: CancelToken,
                      signals: tuple[int, ...] = (signal.SIGINT,
                                                  signal.SIGTERM)):
    """Map SIGINT/SIGTERM to cooperative cancellation for the duration of
    the block: the first signal cancels ``token`` (the evaluation then
    raises :class:`~repro.core.errors.EvaluationCancelled` at its next
    governor checkpoint — a typed error with partial stats, not a
    ``KeyboardInterrupt`` traceback); a *second* signal falls back to the
    default handler, so a stuck process can still be killed the blunt
    way.  Previous handlers are restored on exit.

    Only the main thread of the main interpreter may install signal
    handlers; elsewhere (a worker thread running a query) this is a
    no-op passthrough — cancellation there is the caller's job.
    """
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield token
        return

    previous: dict[int, object] = {}

    def handler(signum, frame):
        token.cancel()
        # Second signal: restore the default behaviour immediately so the
        # user is never trapped behind a checkpoint that does not come.
        for number, old in previous.items():
            signal.signal(number, old)

    try:
        for number in signals:
            previous[number] = signal.signal(number, handler)
    except (ValueError, OSError):  # pragma: no cover - exotic embeddings
        yield token
        return
    try:
        yield token
    finally:
        for number, old in previous.items():
            try:
                signal.signal(number, old)
            except (ValueError, OSError):  # pragma: no cover
                pass
