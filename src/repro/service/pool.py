"""The supervised worker pool: spawn, watch, respawn, retry, degrade.

The pool owns N worker *processes* (:mod:`repro.service.worker`) and is
the robustness core of the service.  Its contract, enforced by the chaos
suite: a request handed to :meth:`WorkerPool.query` always terminates
with the correct answer or a typed error — a worker dying mid-query
(OOM, ``kill -9``, injected crash) is detected, the worker respawned,
and the request replayed on a healthy worker (queries are idempotent
reads) within a bounded retry budget; past the budget the caller gets
:class:`~repro.core.errors.WorkerCrashed`, never a hang and never a
wrong answer.

Failure detection is two-layered:

* **pipe EOF** — a dead worker's stdout closes; the blocked
  :meth:`FrameStream.receive` returns immediately.  This is the fast
  path and catches every real process death.
* **deadline grace** — a *hung* worker (infinite loop with the pipe
  still open) is caught by the read timeout: the request's remaining
  deadline plus :attr:`PoolConfig.grace_seconds`.  A hang is treated
  exactly like a crash: kill, respawn, account a death.

Respawns back off exponentially (``backoff_base * 2^(deaths-1)``, capped)
so a worker that dies at startup — e.g. a corrupt snapshot — cannot spin
the supervisor; the backoff resets once a worker survives long enough to
answer something.

Per-structure **circuit breaker**: repeated worker deaths while serving a
structure's columnar queries trip that structure to the ``plan`` rung
(recorded as a :class:`~repro.core.governor.DegradationEvent`, surfaced
in ``/health``), on the theory that the columnar kernels are the only
rung with large flat allocations — the OOM-shaped failure.  The breaker
re-closes after :attr:`PoolConfig.breaker_reset_seconds` of calm.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.core.errors import ProtocolError, WorkerCrashed
from repro.core.governor import DegradationEvent
from repro.testing.chaos import CHAOS_ENV, active_policy, policy_to_json

from .protocol import FrameStream, Message

__all__ = ["PoolConfig", "WorkerHandle", "WorkerPool"]


@dataclass(frozen=True)
class PoolConfig:
    """Supervision knobs, all overridable from ``serve`` CLI flags."""

    workers: int = 2
    #: Replays of one request after worker deaths before ``WorkerCrashed``.
    max_retries: int = 2
    #: First respawn delay; doubles per consecutive death, capped below.
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 2.0
    #: Extra read-deadline slack past the request's own deadline before a
    #: silent worker is declared hung.  Requests with no deadline use
    #: ``default_deadline_seconds``.
    grace_seconds: float = 5.0
    default_deadline_seconds: float = 30.0
    #: Worker deaths while serving one structure before its circuit
    #: breaker trips the columnar rung down to ``plan``.
    breaker_threshold: int = 2
    breaker_reset_seconds: float = 30.0


class WorkerHandle:
    """One supervised worker process plus its pipes and bookkeeping.

    The parent end uses raw fds (:class:`FrameStream`) — Python's
    buffered pipe objects cannot carry ``select`` deadlines.  Each handle
    is driven by at most one request at a time (``lease`` serializes
    dispatch); the supervisor thread owns respawning.
    """

    def __init__(self, index: int, loads: list[tuple[str, str]]):
        self.index = index
        self.lease = threading.Lock()
        self.proc: subprocess.Popen | None = None
        self.stream: FrameStream | None = None
        self.loaded: set[str] = set()
        self.deaths = 0
        self.last_death = 0.0
        self._loads = loads
        self._sequence = 0

    # ------------------------------------------------------------ lifecycle

    def spawn(self) -> None:
        """Start the process and replay the load set.  Raises on a worker
        that cannot even load (the supervisor backs off and retries)."""
        request_read, request_write = os.pipe()
        reply_read, reply_write = os.pipe()
        environment = dict(os.environ)
        # The child must resolve the *same* ``repro`` as the parent even
        # when the package is importable only via sys.path (pytest's
        # ``pythonpath``, a source checkout) rather than an install.
        import repro

        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        existing = environment.get("PYTHONPATH")
        if package_root not in (existing or "").split(os.pathsep):
            environment["PYTHONPATH"] = package_root + (
                os.pathsep + existing if existing else "")
        policy = active_policy()
        if policy is not None:
            environment[CHAOS_ENV] = policy_to_json(policy)
        else:
            environment.pop(CHAOS_ENV, None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service.worker"],
            stdin=request_read, stdout=reply_write, stderr=sys.stderr,
            env=environment, close_fds=True)
        os.close(request_read)
        os.close(reply_write)
        self.stream = FrameStream(reply_read, request_write)
        self.loaded = set()
        for name, path in list(self._loads):
            reply = self.call({"op": "load", "name": name, "path": path},
                              timeout=120.0)
            if not reply.get("ok"):
                raise WorkerCrashed(
                    f"worker {self.index} failed to load {name!r}: "
                    f"{reply.get('error', {}).get('message')}")
            self.loaded.add(name)

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def call(self, request: dict, timeout: float | None) -> Message:
        """One request/reply exchange.  Raises :class:`WorkerCrashed` on
        EOF/torn frame (death) or timeout (hang — the caller must kill)."""
        if self.stream is None:
            raise WorkerCrashed(f"worker {self.index} is not running")
        self._sequence += 1
        request = dict(request, id=self._sequence)
        try:
            self.stream.send(request)
            while True:
                reply = self.stream.receive(timeout=timeout)
                if reply is None:
                    raise WorkerCrashed(
                        f"worker {self.index} (pid "
                        f"{self.proc.pid if self.proc else '?'}) died "
                        f"mid-request: pipe EOF")
                # A stale reply to an abandoned earlier request: drain it.
                if reply.get("id") == self._sequence:
                    return reply
        except TimeoutError as error:
            raise WorkerCrashed(
                f"worker {self.index} hung past its deadline grace "
                f"({timeout:.1f}s)") from error
        except ProtocolError as error:
            raise WorkerCrashed(
                f"worker {self.index} connection failed: {error}") from error

    def kill(self) -> None:
        """Tear the process down unconditionally (crash path and drain)."""
        if self.stream is not None:
            self.stream.close()
            self.stream = None
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc = None

    def shutdown(self, timeout: float = 5.0) -> None:
        """The polite exit: ``shutdown`` op, bounded wait, then kill."""
        if self.alive and self.stream is not None:
            try:
                self.call({"op": "shutdown"}, timeout=timeout)
            except WorkerCrashed:
                pass
        if self.proc is not None:
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()


@dataclass
class _Breaker:
    """Per-structure circuit-breaker state (guarded by the pool lock)."""

    deaths: int = 0
    tripped_at: float | None = None
    events: list[DegradationEvent] = field(default_factory=list)


class WorkerPool:
    """N supervised workers behind one dispatch surface.

    Thread-safe: the HTTP server hands requests to :meth:`query` from
    its handler threads; a background supervisor thread respawns dead
    workers with exponential backoff.
    """

    def __init__(self, config: PoolConfig | None = None):
        self.config = config or PoolConfig()
        self._loads: list[tuple[str, str]] = []
        self._workers = [WorkerHandle(index, self._loads)
                         for index in range(max(1, self.config.workers))]
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._breakers: dict[str, _Breaker] = {}
        self._acquire_queue: list[object] = []
        self._respawn_queue: list[WorkerHandle] = []
        self._respawn_wakeup = threading.Condition()
        self._draining = False
        self._supervisor: threading.Thread | None = None
        #: Request and failure counters, updated and read under ``_lock``
        #: (request threads and the supervisor bump them concurrently).
        self.stats = {"requests": 0, "retries": 0, "worker_deaths": 0,
                      "crashed_replies": 0}

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        for handle in self._workers:
            handle.spawn()
        self._supervisor = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True)
        self._supervisor.start()

    def load(self, name: str, path: str) -> int:
        """Make ``(name, path)`` resident on every worker (and on every
        future respawn).  Returns the structure's universe size."""
        self._loads.append((name, str(path)))
        size = 0
        for handle in self._workers:
            with handle.lease:
                if not handle.alive:
                    continue  # the respawn replays the load list
                reply = handle.call(
                    {"op": "load", "name": name, "path": str(path)},
                    timeout=120.0)
                if not reply.get("ok"):
                    raise WorkerCrashed(
                        f"load of {name!r} failed on worker {handle.index}: "
                        f"{reply.get('error', {}).get('message')}")
                handle.loaded.add(name)
                size = reply.get("size", 0)
        return size

    def drain(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: stop dispatching, let leased requests finish
        (bounded), then shut every worker down."""
        with self._lock:
            self._draining = True
            self._available.notify_all()
        with self._respawn_wakeup:
            self._respawn_wakeup.notify_all()
        deadline = time.monotonic() + timeout
        for handle in self._workers:
            remaining = max(0.5, deadline - time.monotonic())
            acquired = handle.lease.acquire(timeout=remaining)
            try:
                handle.shutdown(timeout=max(0.5, deadline - time.monotonic()))
            finally:
                if acquired:
                    handle.lease.release()
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)

    # ----------------------------------------------------------- health

    def ready(self) -> bool:
        """Full readiness: every worker alive with the load set resident."""
        wanted = {name for name, _ in self._loads}
        return not self._draining and all(
            handle.alive and wanted <= handle.loaded
            for handle in self._workers)

    def health(self) -> dict:
        with self._lock:
            breakers = {
                name: {"deaths": breaker.deaths,
                       "tripped": breaker.tripped_at is not None}
                for name, breaker in self._breakers.items()}
            stats = dict(self.stats)
        return {
            "workers": [
                {"index": handle.index, "alive": handle.alive,
                 "pid": handle.proc.pid if handle.proc else None,
                 "deaths": handle.deaths,
                 "loaded": sorted(handle.loaded)}
                for handle in self._workers],
            "ready": self.ready(),
            "draining": self._draining,
            "breakers": breakers,
            "stats": stats,
        }

    def degradations(self) -> list[DegradationEvent]:
        with self._lock:
            return [event for breaker in self._breakers.values()
                    for event in breaker.events]

    def _count(self, name: str) -> None:
        with self._lock:
            self.stats[name] += 1

    # ----------------------------------------------------------- dispatch

    def query(self, request: dict,
              deadline_seconds: float | None = None) -> Message:
        """Dispatch one idempotent read, retrying across worker deaths.

        ``deadline_seconds`` is the *remaining* wall-clock budget; it is
        forwarded to the worker's :class:`Budget` and bounds the pipe
        read (plus grace).  Raises :class:`WorkerCrashed` after the retry
        budget; other failures come back as the worker's typed error
        reply, which the caller maps to its own surface (HTTP status or
        exit code).  The reply is returned as received, payload bytes
        included.
        """
        self._count("requests")
        budget = deadline_seconds
        if budget is None:
            budget = self.config.default_deadline_seconds
        overall_deadline = time.monotonic() + budget + \
            self.config.grace_seconds * (self.config.max_retries + 1)
        request = dict(request)
        structure = request.get("structure")
        if structure is not None and self._breaker_open(structure) and \
                request.get("backend", "columnar") == "columnar":
            request["backend"] = "plan"
            request["breaker_degraded"] = True
        attempts = 0
        while True:
            attempts += 1
            handle = self._acquire(overall_deadline)
            try:
                remaining = min(budget,
                                max(0.1, overall_deadline - time.monotonic()))
                send = dict(request, deadline_seconds=request.get(
                    "deadline_seconds", remaining))
                timeout = min(remaining, budget) + self.config.grace_seconds
                reply = handle.call(send, timeout=timeout)
                if handle.deaths and reply.get("ok"):
                    handle.deaths = 0  # survived a real request: calm again
                return reply
            except WorkerCrashed as crash:
                self._note_death(handle, structure)
                if attempts > self.config.max_retries:
                    self._count("crashed_replies")
                    raise WorkerCrashed(
                        f"request failed after {attempts} attempt(s): "
                        f"{crash}", attempts=attempts) from crash
                self._count("retries")
            finally:
                handle.lease.release()
                # Wake the parked _acquire tickets immediately: without
                # this, waiters only notice a freed worker on their poll
                # tick, which becomes the service's p99.
                with self._lock:
                    self._available.notify_all()

    def _acquire(self, overall_deadline: float) -> WorkerHandle:
        """Lease a live worker, FIFO-fair; block (bounded) when all are
        dead or busy.

        Fairness is load-bearing for the p99: without the ticket queue, a
        thread that just released a lease loops around and re-grabs it
        before any parked waiter gets the GIL back — under steady
        concurrency one client can starve for hundreds of milliseconds
        while its peers barge.  Only the oldest waiter may claim.
        """
        ticket = object()
        with self._lock:
            self._acquire_queue.append(ticket)
            try:
                while True:
                    if self._draining:
                        raise WorkerCrashed("pool is draining")
                    if self._acquire_queue[0] is ticket:
                        for handle in self._workers:
                            if not handle.alive:
                                self._bury_idle(handle)
                                continue
                            if handle.lease.acquire(blocking=False):
                                if handle.alive:
                                    return handle
                                handle.lease.release()
                    remaining = overall_deadline - time.monotonic()
                    if remaining <= 0:
                        raise WorkerCrashed(
                            "no healthy worker became available before "
                            "the request deadline")
                    # The tick is only a liveness backstop (missed
                    # notify, worker death); releases notify promptly.
                    self._available.wait(
                        timeout=min(0.05, max(0.001, remaining)))
            finally:
                self._acquire_queue.remove(ticket)
                self._available.notify_all()

    # -------------------------------------------------------- supervision

    def _note_death(self, handle: WorkerHandle, structure: str | None) -> None:
        """Account a death, tear the corpse down, and queue a respawn."""
        self._count("worker_deaths")
        handle.deaths += 1
        handle.last_death = time.monotonic()
        handle.kill()
        if structure is not None:
            with self._lock:
                breaker = self._breakers.setdefault(structure, _Breaker())
                breaker.deaths += 1
                if breaker.deaths >= self.config.breaker_threshold and \
                        breaker.tripped_at is None:
                    breaker.tripped_at = time.monotonic()
                    breaker.events.append(DegradationEvent(
                        stage="service.columnar",
                        fallback="plan",
                        error=f"circuit breaker: {breaker.deaths} worker "
                              f"death(s) serving {structure!r}"))
        with self._respawn_wakeup:
            self._respawn_queue.append(handle)
            self._respawn_wakeup.notify()

    def _breaker_open(self, structure: str) -> bool:
        with self._lock:
            breaker = self._breakers.get(structure)
            if breaker is None or breaker.tripped_at is None:
                return False
            if time.monotonic() - breaker.tripped_at >= \
                    self.config.breaker_reset_seconds:
                breaker.tripped_at = None  # half-open: try columnar again
                breaker.deaths = 0
                return False
            return True

    def _bury_idle(self, handle: WorkerHandle) -> None:
        """Account a worker that died while *idle* (e.g. a stray OOM kill
        between requests), tear the corpse down and queue a respawn —
        where dispatch first sees it, or at the supervisor's sweep,
        whichever comes first.  A leased handle is left to its holder
        (the request path accounts that death), and a corpse already torn
        down has no ``proc``, so no death is counted twice.  Caller holds
        ``_lock``, which is always taken before ``_respawn_wakeup``."""
        if handle.proc is None or not handle.lease.acquire(blocking=False):
            return
        try:
            if handle.proc is not None and handle.proc.poll() is not None:
                self.stats["worker_deaths"] += 1
                handle.deaths += 1
                handle.last_death = time.monotonic()
                handle.kill()
                with self._respawn_wakeup:
                    self._respawn_queue.append(handle)
                    self._respawn_wakeup.notify()
        finally:
            handle.lease.release()

    def _reap_idle_deaths(self) -> None:
        """Sweep for workers that died idle and that no dispatch has seen
        yet.  Without it such a corpse would sit unrespawned while no
        request comes — and readiness would never recover."""
        if self._draining:
            return
        with self._lock:
            for handle in self._workers:
                if not handle.alive:
                    self._bury_idle(handle)

    def _supervise(self) -> None:
        """The supervisor thread: respawn queued corpses with exponential
        backoff, reset backoff on calm."""
        while True:
            self._reap_idle_deaths()
            with self._respawn_wakeup:
                if not self._respawn_queue and not self._draining:
                    self._respawn_wakeup.wait(timeout=0.2)
                if self._draining:
                    return
                if not self._respawn_queue:
                    continue
                handle = self._respawn_queue.pop(0)
            delay = min(
                self.config.backoff_cap_seconds,
                self.config.backoff_base_seconds *
                (2 ** max(0, handle.deaths - 1)))
            time.sleep(delay)
            if self._draining:
                return
            with handle.lease:
                if handle.alive:
                    continue
                try:
                    handle.spawn()
                except Exception as error:  # spawn/load failed: re-queue
                    handle.deaths += 1
                    handle.kill()
                    print(f"pool: respawn of worker {handle.index} failed: "
                          f"{error}", file=sys.stderr)
                    with self._respawn_wakeup:
                        self._respawn_queue.append(handle)
                    continue
            with self._lock:
                self._available.notify_all()
