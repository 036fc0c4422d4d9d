"""The query-service worker process (``python -m repro.service.worker``).

A worker is one OS process holding :class:`Structure`\\ s resident and
answering query frames over its stdin/stdout pipes.  It is deliberately
*stateless across requests* in everything but caches: the server may
kill it at any moment (and chaos tests do, with ``SIGKILL``), respawn
it, and replay an idempotent read elsewhere — so nothing a worker holds
is ever the only copy of anything.

Caching: evaluation goes through one :class:`ModelChecker` per
``(structure, backend, stats signature)``.  The checker's memo
*is* the compiled+optimized plan cache — plans (and their defined
relations) are keyed by the frozen formula, and the **stats signature**
(relation cardinalities + universe size, i.e. everything the cost-based
optimizer reads) is part of the checker key, so a structure whose
statistics change gets fresh plans instead of stale reorderings.

Beside each checker sits its **answer memo**: per query, the projected,
sorted rows and their compact JSON.  An entry is valid while the checker
hands back the very relation object it was built from, so a recomputed
relation rebuilds it, and evicting the checker drops it.  A cache hit
then encodes only the per-request fields (``id``, ``cached``,
``elapsed_ms``, ``degradations``, ``stats``) and the pipe loop splices
them with the memoized bytes into the reply frame.

Protocol ops (see :mod:`repro.service.protocol` for framing):

=============  =========================================================
``ping``       liveness probe -> ``{ok, pid}``
``load``       ``{name, path}``: make a structure resident (JSON or RSNP
               snapshot, sniffed by magic) -> ``{ok, size}``
``query``      ``{structure, query, backend?, deadline_seconds?,
               max_rows?}`` -> ``{ok, columns, rows}``
               / ``{ok, result}`` for sentences / ``{ok: false, error}``
``shutdown``   acknowledge, then exit 0
=============  =========================================================

Every reply carries the request's ``id`` so the supervisor can pair
replies with in-flight requests.  A ``query`` failure is a *typed* error
envelope — ``kind`` is ``input`` / ``resource`` / ``internal``, mirroring
the CLI's exit-code taxonomy — never a crash of the worker itself.  The
one deliberate exception: the ``service.worker.crash`` chaos point
escalates to ``os._exit`` to model the failure the supervisor exists
for.
"""

from __future__ import annotations

import os
import sys
import time
from typing import NamedTuple

from repro.core.errors import (
    ProtocolError,
    ResourceLimitExceeded,
    SRLError,
)
from repro.core.governor import Budget
from repro.logic.eval import LOGIC_BACKENDS, ModelChecker
from repro.logic.queries import CANONICAL_QUERIES
from repro.structures.structure import Structure, load_structure_file
from repro.testing.chaos import ChaosError, chaos_point, install_policy_from_env

from .protocol import encode_payload, frame_payload, read_frame

__all__ = ["Worker", "main", "stats_signature"]

#: The exit status of a chaos-injected hard crash (mirrors 128+SIGKILL,
#: what a real ``kill -9`` reports).
CRASH_EXIT = 137


def stats_signature(structure: Structure) -> tuple:
    """Everything the cost-based optimizer reads from a structure, as a
    hashable plan-cache key component: universe size plus per-relation
    cardinalities (and the persisted degree statistics, when present)."""
    degrees = getattr(structure, "degree_stats", None) or {}
    return (
        structure.size,
        tuple(sorted(
            (name, len(relation),
             tuple(sorted(degrees.get(name, {}).items())))
            for name, relation in structure.relations.items())),
    )


def error_envelope(error: Exception) -> dict:
    """The typed wire form of a query failure (the worker-side analogue
    of the CLI's exit-code taxonomy)."""
    if isinstance(error, ResourceLimitExceeded):
        envelope = {
            "type": type(error).__name__,
            "kind": "resource",
            "message": str(error),
            "resource": error.resource,
            "limit": error.limit,
            "used": error.used,
        }
        stats = getattr(error, "stats", None)
        if stats is not None:
            envelope["partial_stats"] = dict(stats.as_dict())
        return envelope
    from repro.logic.compile import PlanCompilationError

    if isinstance(error, (KeyError, ValueError, PlanCompilationError)) or \
            isinstance(error, SRLError):
        kind = "input" if isinstance(
            error, (KeyError, ValueError, PlanCompilationError)) else "internal"
        return {"type": type(error).__name__, "kind": kind,
                "message": str(error)}
    return {"type": type(error).__name__, "kind": "internal",
            "message": str(error)}


class _Answer(NamedTuple):
    """One memoized answer: the relation object it was projected from
    (identity is the validity check), the reply fields that depend only
    on that relation, and those fields as compact JSON without braces."""

    relation: frozenset
    fields: dict
    fragment: bytes


class Worker:
    """The in-process core of a worker: resident structures + checkers.

    Split from the pipe loop so tests can drive it directly (and so the
    server's ``workers=0`` inline mode reuses exactly this evaluation
    path, minus the process boundary).
    """

    def __init__(self) -> None:
        self.structures: dict[str, Structure] = {}
        #: Checker key -> (checker, its answer memo by query name).
        self._checkers: dict[tuple, tuple[ModelChecker, dict]] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.stopped = False
        #: Inline-mode hook: a :class:`CancelToken` the server threads into
        #: the next query's budget (client disconnect -> cancellation).
        #: Meaningless across a process boundary, so the pipe loop never
        #: sets it.
        self.external_cancel = None

    # ------------------------------------------------------------ handlers

    def handle(self, request: dict) -> dict:
        """Answer one request as a dict.  A query answer's ``columns``
        and ``rows`` are fresh lists, so reordering or resizing them
        leaves the memo intact; the row lists inside are the memo's own
        and must be treated as read-only (copying them would cost more
        than the whole cached answer)."""
        reply, answer = self._respond(request)
        if answer is not None:
            reply.update(answer.fields)
            if "rows" in reply:
                reply["columns"] = list(reply["columns"])
                reply["rows"] = list(reply["rows"])
        return reply

    def handle_payload(self, request: dict) -> bytes:
        """Answer one request as its encoded reply payload: the same
        message :meth:`handle` returns, with a query answer's memoized
        JSON spliced in instead of encoded again."""
        reply, answer = self._respond(request)
        payload = encode_payload(reply)
        if answer is None:
            return payload
        return payload[:-1] + b"," + answer.fragment + b"}"

    def _respond(self, request: dict) -> tuple[dict, _Answer | None]:
        """The reply's per-request fields, and the memoized answer whose
        fields complete it (``None`` for everything but a query
        answer)."""
        op = request.get("op")
        reply_id = request.get("id")
        try:
            if op == "ping":
                return {"ok": True, "id": reply_id, "op": "ping",
                        "pid": os.getpid(),
                        "structures": sorted(self.structures)}, None
            if op == "load":
                return self._handle_load(request, reply_id), None
            if op == "query":
                return self._handle_query(request, reply_id)
            if op == "shutdown":
                self.stopped = True
                return {"ok": True, "id": reply_id, "op": "shutdown"}, None
            raise ValueError(f"unknown op {op!r}")
        except ChaosError:
            raise
        except Exception as error:
            return {"ok": False, "id": reply_id,
                    "error": error_envelope(error)}, None

    def _handle_load(self, request: dict, reply_id) -> dict:
        name = request["name"]
        structure = load_structure_file(request["path"])
        self.structures[name] = structure
        # A reload under the same name invalidates that name's checkers.
        self._checkers = {key: entry
                          for key, entry in self._checkers.items()
                          if key[0] != name}
        return {"ok": True, "id": reply_id, "op": "load", "name": name,
                "size": structure.size}

    def _checker_for(self, name: str,
                     backend: str) -> tuple[ModelChecker, dict]:
        structure = self.structures.get(name)
        if structure is None:
            raise KeyError(f"structure {name!r} is not resident; loaded: "
                           f"{sorted(self.structures) or 'none'}")
        key = (name, backend, stats_signature(structure))
        entry = self._checkers.get(key)
        if entry is None:
            # New stats signature: drop this (name, backend) slot's stale
            # checker (and its plans, optimized against dead statistics).
            self._checkers = {
                existing: value
                for existing, value in self._checkers.items()
                if existing[:2] != (name, backend)}
            entry = (ModelChecker(structure, backend=backend), {})
            self._checkers[key] = entry
        return entry

    def _handle_query(self, request: dict,
                      reply_id) -> tuple[dict, _Answer]:
        started = time.perf_counter()
        # The supervised-crash injection point: a raise here is escalated
        # to process death by the pipe loop (or re-raised to the caller's
        # harness when driven in-process).
        chaos_point("service.worker.crash")
        query = CANONICAL_QUERIES.get(request.get("query"))
        if query is None:
            raise ValueError(
                f"unknown query {request.get('query')!r}; known: "
                f"{', '.join(sorted(CANONICAL_QUERIES))}")
        backend = request.get("backend", "columnar")
        if backend not in LOGIC_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}: expected one of "
                f"{LOGIC_BACKENDS}")
        checker, answers = self._checker_for(request["structure"], backend)
        deadline = request.get("deadline_seconds")
        max_rows = request.get("max_rows")
        token = self.external_cancel
        if deadline is not None or max_rows is not None or token is not None:
            checker.budget = Budget(deadline_seconds=deadline,
                                    max_rows_materialized=max_rows,
                                    cancel_token=token)
        else:
            checker.budget = None
        formula = query.formula()
        cached = checker.memoized(formula)
        if cached:
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1
        mark = len(checker.degradations)
        columns, rows = checker.defined_relation(formula)
        answer = answers.get(query.name)
        if answer is None or answer.relation is not rows:
            answer = answers[query.name] = _project(
                query, request["structure"], backend, columns, rows)
        reply = {
            "id": reply_id,
            "cached": cached,
            "elapsed_ms": round((time.perf_counter() - started) * 1e3, 3),
            "degradations": [
                {"stage": event.stage, "fallback": event.fallback}
                for event in checker.degradations[mark:]],
            "stats": {
                "plan_cache_hits": self.plan_cache_hits,
                "plan_cache_misses": self.plan_cache_misses,
                **checker.plan_stats.as_dict(),
            },
        }
        return reply, answer


def _project(query, structure: str, backend: str, columns,
             rows: frozenset) -> _Answer:
    """The reply fields a query's defined relation fixes: rows projected
    onto the query's variables and sorted (or the truth value of a
    sentence), with the request's names and this worker's pid."""
    fields = {"ok": True, "query": query.name, "structure": structure,
              "backend": backend, "pid": os.getpid()}
    if query.variables:
        positions = [columns.index(variable) for variable in query.variables]
        fields["columns"] = list(query.variables)
        fields["rows"] = sorted(
            [row[position] for position in positions] for row in rows)
    else:
        fields["result"] = () in rows
    return _Answer(rows, fields, encode_payload(fields)[1:-1])


def main(argv: list[str] | None = None) -> int:
    """The pipe loop: frames in on stdin, frames out on stdout, logs on
    stderr.  ``sys.stdout`` is re-pointed at stderr up front so a stray
    ``print`` anywhere in the engine can never corrupt the framing."""
    del argv
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    sys.stdout = sys.stderr
    install_policy_from_env()
    worker = Worker()
    while True:
        try:
            request = read_frame(stdin)
        except ProtocolError as error:
            print(f"worker {os.getpid()}: protocol error on stdin: {error}",
                  file=sys.stderr)
            return 4
        if request is None:  # server hung up: normal shutdown
            return 0
        try:
            payload = worker.handle_payload(request)
        except ChaosError:
            # The injected worker crash: die the way a SIGKILL'd or
            # OOM-killed process dies — no reply, no cleanup, no flush.
            sys.stderr.flush()
            os._exit(CRASH_EXIT)
        try:
            stdout.write(frame_payload(payload))
            stdout.flush()
        except (ProtocolError, OSError) as error:
            print(f"worker {os.getpid()}: cannot reply: {error}",
                  file=sys.stderr)
            return 4
        if worker.stopped:
            return 0


if __name__ == "__main__":
    sys.exit(main())
