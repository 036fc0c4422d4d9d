"""In-memory spans recorded around calls into the system's layers.

A span has a name, a start, an end and the span that caused it; spans of
one operation share the operation's root.  Self time is a span's
duration minus the part covered by its children.  Nothing is written
until the benchmark ends: :meth:`Tracer.summary` folds the spans into
per-layer totals.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager, nullcontext


#: Ops are traced in alternate blocks of this many.  A block holds whole
#: cycles of the fixed schedules (6 SRL programs, 8 serve pairs), so the
#: traced and the untraced ops see the same mix.
TRACE_BLOCK = 24


def traced_op(index: int) -> bool:
    return (index // TRACE_BLOCK) % 2 == 1


def spans_of(tracer: "Tracer | None"):
    """``tracer.span``, or a stand-in that records nothing when ``tracer``
    is ``None``, so one op body serves traced and untraced ops."""
    if tracer is not None:
        return tracer.span
    return lambda name: nullcontext()


def instrument(tracer: "Tracer", targets) -> None:
    """Wrap public functions and methods of the system so that each call
    made inside an active span records a span of its own; calls outside
    spans pass straight through.  ``targets`` holds ``(module, dotted
    attribute, span name)`` triples, for example ``("repro.logic.codegen",
    "CompiledColumnarPlan.execute", "logic.codegen.execute")``."""
    for module, attribute, name in targets:
        owner = importlib.import_module(module)
        *path, last = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, last, spanning(tracer, getattr(owner, last), name))


def spanning(tracer: "Tracer", inner, name: str):
    """``inner`` wrapped to record span ``name`` when called inside an
    active span."""
    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        if not tracer.active():
            return inner(*args, **kwargs)
        with tracer.span(name):
            return inner(*args, **kwargs)

    return wrapper


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, 0.0, 0.0, stack[-1] if stack else None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def active(self) -> bool:
        """Whether the calling thread is inside a span."""
        return bool(getattr(self._local, "stack", None))

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name]
