"""The repository's end-to-end and per-layer benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads (why each exists is in ``BENCHMARK.json``):

``serve-hot``     ``python -m repro serve`` with 2 workers, 2 keep-alive
                  closed-loop HTTP clients, every answer a cache hit;
``query-cold``    each op loads a fresh RSNP snapshot and evaluates one
                  canonical query with a new columnar ``ModelChecker``;
``update-mix``    single-edge inserts/deletes through
                  ``ModelChecker.apply_update``, each followed by a read;
``srl-programs``  SRL source text through parse, type check, restriction
                  classification and ``Session(backend="compiled").run``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``ops_per_s`` (correct ops per second: per second of op time for the
single-client in-process workloads, per wall second of the window for
``serve-hot``), ``latency_p50_ms`` / ``latency_p99_ms`` (a failed op counts
as the whole window), ``setup_s`` (median of several starts before and
after the timed window, each from process start to ready, without the
benchmark's own input handling) and
``peak_rss_mb`` (the measured processes: the server plus its workers for
``serve-hot``).  ``failed / attempted`` in the same line is the failed
share.

The speed of a shared host drifts by a third over minutes, far more than
the bounds allow, so CPU-bound times are reported at a fixed reference
speed, at which the benchmark's own ``gen.yardstick_ms`` takes 1 ms: each
in-process op's time is divided by the yardstick times next to it, and
the median set-up time by the median yardstick time taken before each
start.  ``serve-hot`` latencies are wall-clock as measured: a TCP
delayed-ACK timer, not the CPU, sets most of them.  The table printed
above the JSON line gives the figures as measured and the yardstick
beside the reported ones.

With ``--trace 1`` a separate run reports the per-layer metrics,
measured by timing calls into public functions of ``repro`` from the
benchmark's own code.  ``--workload all`` runs every workload untraced
and traced, printing each table and JSON line in turn.

Every answer is checked against references computed by ``gen.py``; a
wrong answer, typed error or non-200 reply is a failed op.  The process
exits 0 when every op was correct, 1 when some failed, and 2 without a
result when the tree has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import gen
import httpload
from spans import Tracer, spanning, traced_op

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
#: Set-up samples of an untraced run, taken before the timed window (the
#: last of them is the start that serves it) and after it, so that the
#: median spans the run rather than one moment of the host.
SETUP_BEFORE, SETUP_AFTER = 4, 3
CHILD_GRACE_S = 120.0
#: An op's speed factor is the median yardstick of the ops this many
#: places before and after it, so one slow yardstick moves nothing.
SPEED_WINDOW = 10

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p99_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

#: Per-layer metrics: mean self milliseconds per op for the ``_ms`` names
#: of layers timed around a call, counts and ratios as named.
PER_LAYER = (
    ("service.server.http_ms", "ms"),
    ("service.server.handle_query_ms", "ms"),
    ("service.pool.query_ms", "ms"),
    ("service.admission.wait_ms", "ms"),
    ("service.protocol.frame_ms", "ms"),
    ("service.protocol.frame_bytes", "bytes"),
    ("service.worker.handle_ms", "ms"),
    ("service.worker.cache_hit_ratio", "ratio"),
    ("service.pool.retries", "count"),
    ("service.pool.worker_deaths", "count"),
    ("service.admission.shed", "count"),
    ("structures.snapshot.load_ms", "ms"),
    ("logic.compile.compile_ms", "ms"),
    ("logic.optimize.optimize_ms", "ms"),
    ("logic.codegen.compile_ms", "ms"),
    ("logic.codegen.cache_hit_ratio", "ratio"),
    ("logic.codegen.execute_ms", "ms"),
    ("logic.chunked.execute_ms", "ms"),
    ("logic.plan.rows_materialized", "count"),
    ("logic.plan.fixpoint_rounds", "count"),
    ("logic.eval.degradations", "count"),
    ("logic.ivm.apply_update_ms", "ms"),
    ("logic.ivm.patched_share", "ratio"),
    ("logic.eval.read_ms", "ms"),
    ("core.parser.parse_ms", "ms"),
    ("core.typecheck.check_ms", "ms"),
    ("core.restrictions.classify_ms", "ms"),
    ("core.compiler.compile_ms", "ms"),
    ("core.engine.run_ms", "ms"),
    ("core.engine.steps", "count"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

#: The restriction the classifier must find for each frozen SRL program.
SRL_RESTRICTIONS = {"reach": "SRL", "dreach": "SRL", "agap": "SRL",
                    "powerset": "SRL+new", "perm-product": "BASRL",
                    "company-join": "SRL"}


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Outcome:
    """Per-op latencies (``None`` = failed) plus what the metrics need."""

    def __init__(self, latencies: list, window_s: float) -> None:
        self.latencies = latencies
        self.window_s = window_s
        #: (set-up seconds, yardstick ms just before) per start.
        self.setup: list[tuple[float, float]] = []
        self.rss_mb = 0.0
        self.checked = 0
        self.bad = 0  # wrong replies outside the timed records
        self.layers: dict[str, float] = {}
        self.notes: list[str] = []

    @property
    def failed(self) -> int:
        return sum(1 for value in self.latencies if value is None)

    def end_to_end(self, ops_per_s: float) -> dict:
        window_ms = self.window_s * 1e3
        capped = [window_ms if v is None else v for v in self.latencies]
        return {"ops_per_s": ops_per_s,
                "latency_p50_ms": percentile(capped, 0.50),
                "latency_p99_ms": percentile(capped, 0.99),
                "setup_s": reference_setup_s(self.setup),
                "peak_rss_mb": self.rss_mb}


# ----------------------------------------------------------- child driving


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def reference_latencies(records: list) -> tuple[dict, dict]:
    """Op index -> latency (ms, ``None`` for a failed op), as measured and
    at the reference speed: divided by the median yardstick ms of the
    ops within ``SPEED_WINDOW`` places of it."""
    yardsticks = [record[3] for record in records]
    wall, reference = {}, {}
    for position, (index, latency, _, _) in enumerate(records):
        near = yardsticks[max(0, position - SPEED_WINDOW):
                          position + SPEED_WINDOW + 1]
        wall[index] = latency
        reference[index] = None if latency is None \
            else latency / statistics.median(near)
    return wall, reference


def timed_start(start) -> tuple[float, float]:
    """Call ``start() -> set-up seconds``; return them and the host's
    speed (yardstick ms) taken just before."""
    speed_ms = gen.calibration_ms()
    return start(), speed_ms


def reference_setup_s(setups: list[tuple[float, float]]) -> float:
    """The median start at the reference speed.  One start is too short
    to follow the host's flips of speed, so the median set-up seconds are
    divided by the median speed of all starts of the run."""
    return statistics.median(setup for setup, _ in setups) / \
        statistics.median(speed for _, speed in setups)


def setup_note(setups: list[tuple[float, float]]) -> str:
    return ("setup samples (s), as measured: "
            f"{', '.join(f'{setup:.3f}' for setup, _ in setups)}; "
            f"yardstick before each (ms): "
            f"{', '.join(f'{speed:.3f}' for _, speed in setups)}")


def spawn_child(workdir: Path, mode: str, timeout: float
                ) -> tuple[tuple[float, float], dict | None]:
    """Run ``child.py`` in ``mode``; return its set-up seconds (spawn to
    READY, minus the child's own input handling) with the host's speed
    just before (:func:`timed_start`), and its JSON result."""
    log_path = workdir / "child.log"
    speed_ms = gen.calibration_ms()
    started = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(workdir), mode],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log)
    try:
        line, rest = httpload.read_line(proc, started + CHILD_GRACE_S)
        ready = time.perf_counter()
        if not line.startswith("READY "):
            raise httpload.HarnessError(f"unexpected first line {line!r}")
        setup = ready - started - float(line.split()[1])
        out, _ = proc.communicate(timeout=timeout)
    except (httpload.HarnessError, subprocess.TimeoutExpired) as error:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child ({mode}) failed: {error}\n"
                           f"{_tail(log_path)}") from error
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"child ({mode}) exited {proc.returncode}:\n"
                           f"{_tail(log_path)}")
    lines = (rest + out).decode().strip().splitlines()
    return (setup, speed_ms), (json.loads(lines[-1]) if lines else None)


def _tail(path: Path, lines: int = 15) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def run_child_workload(name: str, workdir: Path, seed: int, seconds: float,
                       trace: bool, sizes: dict, expected) -> Outcome:
    """Set up ``SETUP_BEFORE`` times, the last start being the measured
    child's, after one start that warms the bytecode and page caches, and
    ``SETUP_AFTER`` times more after it.  Check every recorded answer
    with ``expected(key, ops applied, op index)``; the final-state
    answers have no op index."""
    (workdir / "config.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds,
         "sizes": sizes}))
    setups = []
    if not trace:
        spawn_child(workdir, "setup", CHILD_GRACE_S)
        setups = [spawn_child(workdir, "setup", CHILD_GRACE_S)[0]
                  for _ in range(SETUP_BEFORE - 1)]
    setup, result = spawn_child(workdir, "trace" if trace else "run",
                                seconds * 2 + CHILD_GRACE_S)
    setups.append(setup)
    if not trace:
        setups += [spawn_child(workdir, "setup", CHILD_GRACE_S)[0]
                   for _ in range(SETUP_AFTER)]
    wall, latencies = reference_latencies(result["records"])
    errors = [record[2] for record in result["records"] if record[2]]
    wrong = []
    for index, key, answer in result["checks"]:
        if answer != expected(key, index + 1, index):
            wrong.append(f"op {index} ({key})")
            latencies[index] = None
    final = result["finish"].get("final", {})
    for key, answer in sorted(final.items()):
        if answer != expected(key, len(result["records"]), None):
            wrong.append(f"final state ({key})")
            latencies[max(latencies)] = None
    outcome = Outcome([latencies[i] for i in sorted(latencies)], seconds)
    outcome.setup = setups
    outcome.notes.append(setup_note(setups))
    outcome.notes.append(wall_note(
        [wall[i] for i in sorted(wall) if latencies[i] is not None],
        [record[3] for record in result["records"]]))
    outcome.rss_mb = result["rss_mb"]
    outcome.checked = len(result["checks"]) + len(final)
    if trace:
        outcome.layers = child_layers(result, outcome.notes)
    if errors:
        outcome.notes.append(f"{len(errors)} op error(s), first: {errors[0]}")
    if wrong:
        outcome.notes.append(f"{len(wrong)} wrong answer(s): "
                             f"{', '.join(wrong[:5])}")
    return outcome


def wall_note(wall_ms: list[float], yardsticks: list[float]) -> str:
    """The correct ops' figures as measured, beside the reported ones."""
    if not wall_ms:
        return "no correct op"
    return (f"as measured: ops_per_s {len(wall_ms) / sum(wall_ms) * 1e3:.2f}"
            f" 1/s, latency_p50_ms {percentile(wall_ms, 0.5):.3f}, "
            f"latency_p99_ms {percentile(wall_ms, 0.99):.3f}; yardstick "
            f"median {statistics.median(yardsticks):.3f} ms (range "
            f"{min(yardsticks):.3f}-{max(yardsticks):.3f}) against the "
            f"reference 1 ms")


def child_ops_per_s(outcome: Outcome) -> float:
    done = [v for v in outcome.latencies if v is not None]
    return len(done) / (sum(done) / 1e3) if done else 0.0


def child_layers(result: dict, notes: list[str]) -> dict[str, float]:
    """Per-layer metrics from a traced child: mean self ms per traced op
    for each span, and the counters."""
    ops = max(1, len(result["traced_ms"]))
    layers = result["layers"]
    metrics = {f"{name}_ms": entry["self_s"] * 1e3 / ops
               for name, entry in layers.items() if name != "op"}
    metrics["trace.unattributed_ms"] = \
        layers.get("op", {}).get("self_s", 0.0) * 1e3 / ops
    metrics["trace.overhead_ms"] = statistics.median(result["traced_ms"]) \
        - statistics.median(result["untraced_ms"])
    counters = result["counters"]
    all_ops = max(1, len(result["records"]))
    metrics["logic.plan.rows_materialized"] = \
        counters.get("rows_materialized", 0) / all_ops
    metrics["logic.plan.fixpoint_rounds"] = \
        counters.get("fixpoint_rounds", 0) / all_ops
    metrics["logic.eval.degradations"] = counters.get("degradations", 0)
    if counters.get("codegen_calls"):
        metrics["logic.codegen.cache_hit_ratio"] = \
            counters["codegen_cache_hits"] / counters["codegen_calls"]
    metrics["core.engine.steps"] = counters.get("steps", 0) / all_ops
    patched = sum(counters.get(f"ivm.{key}", 0)
                  for key in ("delta", "closure", "fixpoint"))
    recomputed = counters.get("ivm.recompute", 0)
    if patched + recomputed:
        metrics["logic.ivm.patched_share"] = patched / (patched + recomputed)
    layer_sum = sum(value for name, value in metrics.items()
                    if name.endswith("_ms") and name != "trace.overhead_ms")
    notes.append(
        f"{len(result['traced_ms'])} traced ops: self times of the layers "
        f"sum to {layer_sum:.3f} ms against a traced mean op of "
        f"{statistics.fmean(result['traced_ms']):.3f} ms; traced median "
        f"{statistics.median(result['traced_ms']):.3f} ms, untraced median "
        f"{statistics.median(result['untraced_ms']):.3f} ms")
    return metrics


# ---------------------------------------------------------------- workloads


def write_snapshot(graph: gen.Graph, path: Path) -> None:
    from repro.structures.snapshot import save_snapshot
    from repro.structures.structure import Structure, Vocabulary

    save_snapshot(Structure(
        Vocabulary.of(E=2, A=1), graph.n,
        {"E": frozenset(graph.edges),
         "A": frozenset((v,) for v in graph.universal)}), path)


def reference_key(answer):
    return answer if isinstance(answer, bool) else gen.relation_key(answer)


def query_cold(workdir, seed, seconds, trace, sizes, plant):
    rng = random.Random(seed)
    graphs = {}
    for index in range(sizes["dense_files"]):
        graphs[f"dense-{index}"] = gen.alternating_graph(sizes["dense_n"], rng)
    for index in range(sizes["sparse_files"]):
        n = sizes["sparse_n"] + rng.randrange(sizes["sparse_n"] // 20)
        graphs[f"sparse-{index}"] = gen.sparse_graph(n, rng)
    for key, graph in graphs.items():
        write_snapshot(graph, workdir / f"{key}.rsnp")

    answers: dict = {}

    def expected(key, applied, index):
        del applied
        file_key, query = key.split(":")
        if file_key not in answers:
            queries = gen.SPARSE_QUERIES if file_key.startswith("sparse") \
                else gen.DENSE_QUERIES
            answers[file_key] = {
                name: reference_key(answer) for name, answer in
                gen.query_answers(graphs[file_key], queries).items()}
        return plant(key, index, answers[file_key][query])

    outcome = run_child_workload("query-cold", workdir, seed, seconds, trace,
                                 sizes, expected)
    return outcome, child_ops_per_s(outcome)


def update_mix(workdir, seed, seconds, trace, sizes, plant):
    graph = gen.alternating_graph(sizes["n"], random.Random(seed))
    (workdir / "graph.json").write_text(json.dumps(
        {"n": graph.n, "edges": sorted(graph.edges),
         "universal": sorted(graph.universal)}))
    write_snapshot(graph, workdir / "graph.rsnp")
    replay = gen.Graph(graph.n, graph.edges, graph.universal)
    stream = gen.update_stream(replay, seed)
    applied = [0]

    def expected(key, count, index):
        # Checks arrive in op order; replay until ``count`` ops are in.
        while applied[0] < count:
            next(stream)
            applied[0] += 1
        return plant(key, index, reference_key(
            gen.query_answers(replay, [key])[key]))

    outcome = run_child_workload("update-mix", workdir, seed, seconds, trace,
                                 sizes, expected)
    outcome.notes.append(
        f"answers checked on one op in {sizes['check_every']} (reads after "
        f"inserts and after deletes in turn) and for all "
        f"{len(gen.UPDATE_QUERIES)} memoized queries on the final state")
    return outcome, child_ops_per_s(outcome)


def srl_programs(workdir, seed, seconds, trace, sizes, plant):
    cases = gen.srl_databases(seed, sizes)

    def expected(key, applied, index):
        del applied
        name, db_index = key.split(":")
        answer = cases[name][int(db_index)][1]
        return plant(key, index,
                     gen.digest((SRL_RESTRICTIONS[name], answer)))

    outcome = run_child_workload("srl-programs", workdir, seed, seconds,
                                 trace, sizes, expected)
    return outcome, child_ops_per_s(outcome)


def planter(select):
    """The pass for reference answers: unchanged, or -- for the self-tests
    that the checks can fail -- corrupted where ``select(key, op index)``
    says so (the op index is ``None`` outside single ops)."""

    def plant(key, index, answer):
        if select is not None and select(key, index):
            return ("planted-wrong", answer)
        return answer

    return plant


def serve_hot(workdir, seed, seconds, trace, sizes, plant):
    rng = random.Random(seed)
    graphs = {"small": gen.alternating_graph(sizes["small_n"], rng),
              "large": gen.alternating_graph(sizes["large_n"], rng)}
    loads = {}
    for name, graph in graphs.items():
        loads[name] = workdir / f"{name}.rsnp"
        write_snapshot(graph, loads[name])
    expected = {}
    for pair in gen.SERVE_PAIRS:
        structure, query = pair
        answer = gen.query_answers(graphs[structure], [query])[query]
        expected[pair] = plant(pair, None, httpload.expected_reply(answer))

    server = httpload.Server(ROOT, loads, workdir / "server.log")
    setups = []
    try:
        if not trace:
            server.start()  # warms the bytecode and page caches
            for _ in range(SETUP_BEFORE):
                server.stop()
                setups.append(timed_start(server.start))
        else:
            setups.append(timed_start(server.start))
        send = httpload.http_sender(server.port)
        httpload.warm_workers(send, len(server.worker_pids()))
        window = seconds / 2 if trace else seconds
        records, wall = httpload.run_clients(server.port, expected, window)
        _, health = server.get("/health")
        rss = server.peak_rss_mb()
        server.stop()
        for _ in range(0 if trace else SETUP_AFTER):
            setups.append(timed_start(server.start))
            server.stop()
    finally:
        server.kill()
    outcome = Outcome(records, window)
    outcome.setup = setups
    outcome.notes.append(setup_note(setups))
    outcome.rss_mb = rss
    outcome.checked = len(records)
    done = sum(1 for r in records if r is not None)
    if trace:
        outcome.layers, outcome.bad, note = service_layers(
            records, health, loads, expected, seconds / 2)
        outcome.notes.append(note)
    return outcome, done / wall


def drive(call, expected: dict, seconds: float, clients: int = 2):
    """Closed-loop threads calling ``call(pair, traced) -> (status,
    reply)`` on the serve mix, tracing alternate blocks.  Returns the
    latencies (ms) of correct untraced and traced replies and the number
    of incorrect ones."""
    pairs = gen.SERVE_PAIRS
    latencies: tuple[list, list] = ([], [])
    bad = [0]
    deadline = time.perf_counter() + seconds

    def client(slot: int) -> None:
        index = slot * len(pairs) // clients
        while time.perf_counter() < deadline:
            pair = pairs[index % len(pairs)]
            traced = traced_op(index)
            index += 1
            started = time.perf_counter()
            status, reply = call(pair, traced)
            elapsed = (time.perf_counter() - started) * 1e3
            if status == 200 and httpload.reply_matches(reply,
                                                        expected[pair]):
                latencies[traced].append(elapsed)
            else:
                bad[0] += 1

    threads = [threading.Thread(target=client, args=(slot,))
               for slot in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies[0], latencies[1], bad[0]


class _TimedEnter:
    """Wraps an admission slot so that entering it is a span."""

    def __init__(self, inner, tracer) -> None:
        self.inner, self.tracer = inner, tracer

    def __enter__(self):
        with self.tracer.span("service.admission.wait"):
            return self.inner.__enter__()

    def __exit__(self, *exc_info):
        return self.inner.__exit__(*exc_info)


def service_layers(records, health, loads, expected, seconds):
    """The traced ``serve-hot`` breakdown.  Worker processes cannot be
    wrapped from outside, so each layer is driven through its public call
    in this process on the same mix: ``QueryService.handle_query`` (with
    spans around ``AdmissionController.slot`` entry and
    ``WorkerPool.query``), ``write_frame``/``read_frame`` on the recorded
    replies, and ``Worker.handle``.  Returns the metrics, the number of
    wrong replies and a note that adds the layers up."""
    from repro.service.protocol import read_frame, write_frame
    from repro.service.server import QueryService, ServiceConfig
    from repro.service.worker import Worker

    pairs = gen.SERVE_PAIRS
    client_ms = [r for r in records if r is not None]
    layers: dict[str, float] = {}
    bad = 0

    service = QueryService(ServiceConfig(workers=2))
    service.start()
    try:
        for name, path in loads.items():
            service.load(name, str(path))

        def handle(pair, traced=False):
            payload = {"structure": pair[0], "query": pair[1]}
            if not traced:
                return service.handle_query(payload)
            with tracer.span("service.server.handle_query"):
                return service.handle_query(payload)

        httpload.warm_workers(lambda pair: handle(pair)[1], 2)
        tracer = Tracer()
        slot = service.admission.slot

        def traced_slot(deadline_seconds=None):
            inner = slot(deadline_seconds=deadline_seconds)
            return _TimedEnter(inner, tracer) if tracer.active() else inner

        service.admission.slot = traced_slot
        service.pool.query = spanning(tracer, service.pool.query,
                                      "service.pool.query")
        untraced, traced, bad = drive(handle, expected, seconds / 2)
        replies = {pair: handle(pair)[1] for pair in pairs}
    finally:
        service.drain()

    handle_ms = statistics.fmean(untraced)
    summary = tracer.summary()
    layers["service.server.http_ms"] = statistics.fmean(client_ms) - \
        handle_ms
    layers["service.server.handle_query_ms"] = handle_ms
    layers["service.pool.query_ms"] = statistics.fmean(
        tracer.durations("service.pool.query")) * 1e3
    layers["service.admission.wait_ms"] = statistics.fmean(
        tracer.durations("service.admission.wait")) * 1e3
    root = summary["service.server.handle_query"]
    layers["trace.unattributed_ms"] = root["self_s"] / root["calls"] * 1e3
    layers["trace.overhead_ms"] = statistics.median(traced) - \
        statistics.median(untraced)

    frame_ms, frame_bytes = [], []
    for reply in replies.values():
        for _ in range(50):
            buffer = io.BytesIO()
            started = time.perf_counter()
            write_frame(buffer, reply)
            buffer.seek(0)
            read_frame(buffer)
            frame_ms.append((time.perf_counter() - started) * 1e3)
        frame_bytes.append(len(buffer.getvalue()))
    layers["service.protocol.frame_ms"] = statistics.fmean(frame_ms)
    layers["service.protocol.frame_bytes"] = statistics.fmean(frame_bytes)

    worker = Worker()
    for name, path in loads.items():
        worker.handle({"op": "load", "name": name, "path": str(path)})
    requests = {pair: {"op": "query", "structure": pair[0],
                       "query": pair[1]} for pair in pairs}
    for request in list(requests.values()) * 2:
        worker.handle(request)
    handle_times, hits, first, last, degraded = [], 0, {}, {}, 0
    deadline = time.perf_counter() + seconds / 4
    index = 0
    while time.perf_counter() < deadline:
        pair = pairs[index % len(pairs)]
        index += 1
        started = time.perf_counter()
        reply = worker.handle(requests[pair])
        handle_times.append((time.perf_counter() - started) * 1e3)
        if not (reply.get("ok") and
                httpload.reply_matches(reply, expected[pair])):
            bad += 1
        hits += bool(reply.get("cached"))
        degraded += len(reply.get("degradations", ()))
        first.setdefault(pair[0], reply["stats"])
        last[pair[0]] = reply["stats"]
    layers["service.worker.handle_ms"] = statistics.fmean(handle_times)
    layers["service.worker.cache_hit_ratio"] = hits / len(handle_times)
    for key in ("rows_materialized", "fixpoint_rounds"):
        layers[f"logic.plan.{key}"] = sum(
            last[name][key] - first[name][key] for name in last) / \
            len(handle_times)
    layers["logic.eval.degradations"] = degraded

    stats = health.get("pool", {}).get("stats", {})
    layers["service.pool.retries"] = stats.get("retries", 0)
    layers["service.pool.worker_deaths"] = stats.get("worker_deaths", 0)
    layers["service.admission.shed"] = \
        health.get("admission", {}).get("shed", 0)
    note = (
        f"client mean {statistics.fmean(client_ms):.3f} ms = http "
        f"{layers['service.server.http_ms']:.3f} + handle_query "
        f"{handle_ms:.3f}; traced handle_query = admission wait "
        f"{layers['service.admission.wait_ms']:.3f} + pool.query "
        f"{layers['service.pool.query_ms']:.3f} + self "
        f"{layers['trace.unattributed_ms']:.3f}; pool.query spans two frame "
        f"round trips ({layers['service.protocol.frame_ms']:.3f} each here) "
        f"and Worker.handle ({layers['service.worker.handle_ms']:.3f})")
    return layers, bad, note


# --------------------------------------------------------------------- main


WORKLOADS = {"serve-hot": serve_hot, "query-cold": query_cold,
             "update-mix": update_mix, "srl-programs": srl_programs}


def environment_line(seed: int) -> str:
    return (f"env: seed={seed} python={platform.python_version()} "
            f"nproc={os.cpu_count()} calibration_ms={gen.calibration_ms():.2f}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None, plant_wrong=None) -> dict:
    """Run one workload and return the result object (the JSON line).
    ``plant_wrong`` picks reference answers to corrupt (:func:`planter`)."""
    sizes = (sizes or gen.SIZES)[workload]
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    print(environment_line(seed))
    try:
        outcome, ops_per_s = WORKLOADS[workload](
            workdir, seed, seconds, trace, sizes, planter(plant_wrong))
    except Exception:  # a run that cannot finish is a reported failure
        print(f"error: {workload} did not run:\n{traceback.format_exc()}")
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {name: {"value": 0.0, "unit": unit}
                            for name, unit in (PER_LAYER if trace
                                               else END_TO_END)}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    failed = outcome.failed + outcome.bad
    if trace:
        metrics = {name: {"value": float(outcome.layers.get(name, 0.0)),
                          "unit": unit} for name, unit in PER_LAYER}
    else:
        values = outcome.end_to_end(ops_per_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    attempted = max(1, len(outcome.latencies))
    report(workload, outcome, metrics, failed, attempted, trace)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def report(workload, outcome, metrics, failed, attempted, trace) -> None:
    print(f"workload: {workload}  ops attempted {attempted}, failed "
          f"{failed} (failed_share {failed / attempted:.4f}), answers "
          f"checked {outcome.checked}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']}")
    for note in outcome.notes:
        print(f"  note: {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="one workload, or 'all' for every workload "
                             "untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    runs = [(args.workload, bool(args.trace))]
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    correct = True
    for workload, trace in runs:
        result = run(workload, args.seed, args.seconds, trace)
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
