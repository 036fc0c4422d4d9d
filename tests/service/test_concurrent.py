"""Concurrency audit + the multi-client differential gate (P10).

The acceptance property: N concurrent clients hammering the service
with canonical queries get answers that all equal the single-threaded
tuple oracle — across worker processes, across backends, and under a
chaos schedule that kills workers mid-query.  Completing with a *typed*
error is allowed under chaos; a wrong answer never is.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.core.errors import WorkerCrashed
from repro.logic.eval import ModelChecker, define_relation
from repro.logic.queries import CANONICAL_QUERIES
from repro.service.pool import PoolConfig, WorkerPool
from repro.service.server import QueryService, ServiceConfig
from repro.testing.chaos import Fault, uninstall_policy
from test_pool import lift_chaos, recover, wait_until

QUERIES = ("tc", "apath")


# ------------------------------------------------- engine-level audit


def test_one_model_checker_is_safe_across_threads(graph_structure_fixture,
                                                  oracle):
    """The ModelChecker serializes its entry points: hammering *one*
    checker from many threads must corrupt neither its memos nor its
    governor stack."""
    checker = ModelChecker(graph_structure_fixture, backend="plan")
    expected = {name: oracle(name) for name in QUERIES}

    def probe(index):
        name = QUERIES[index % len(QUERIES)]
        query = CANONICAL_QUERIES[name]
        columns, rows = checker.defined_relation(query.formula())
        positions = [columns.index(variable) for variable in query.variables]
        return name, sorted([row[p] for p in positions] for row in rows)

    with ThreadPoolExecutor(max_workers=8) as executor:
        for name, got in executor.map(probe, range(24)):
            assert got == expected[name]


def test_fresh_checkers_per_thread_agree(graph_structure_fixture, oracle):
    """The recommended parallelism (one checker per thread) — exercises
    the shared codegen/compile caches under contention."""

    def probe(index):
        backend = ("plan", "columnar")[index % 2]
        name = QUERIES[index % len(QUERIES)]
        query = CANONICAL_QUERIES[name]
        rows = define_relation(query.formula(), graph_structure_fixture,
                               query.variables, backend=backend)
        return name, sorted(list(row) for row in rows)

    with ThreadPoolExecutor(max_workers=8) as executor:
        for name, got in executor.map(probe, range(24)):
            assert got == oracle(name)


# ------------------------------------------------ service-level gates


def test_concurrent_clients_match_the_oracle(snapshot_path, oracle):
    """The multi-worker differential test: concurrent clients, both plan
    backends, every answer equal to the tuple oracle."""
    pool = WorkerPool(PoolConfig(workers=2))
    pool.start()
    pool.load("g", str(snapshot_path))
    try:
        def client(index):
            name = QUERIES[index % len(QUERIES)]
            backend = ("plan", "columnar")[index % 2]
            reply = pool.query({"op": "query", "structure": "g",
                                "query": name, "backend": backend},
                               deadline_seconds=30.0)
            assert reply["ok"], reply
            return name, reply["rows"]

        with ThreadPoolExecutor(max_workers=6) as executor:
            for name, rows in executor.map(client, range(18)):
                assert rows == oracle(name)
        assert pool.stats["worker_deaths"] == 0
    finally:
        pool.drain(timeout=10.0)


def test_concurrent_inline_service(snapshot_path, oracle):
    service = QueryService(ServiceConfig(workers=0, max_concurrency=4,
                                         max_queue_depth=32))
    service.start()
    assert service.load("g", str(snapshot_path))["ok"]

    def client(index):
        name = QUERIES[index % len(QUERIES)]
        status, reply = service.handle_query(
            {"structure": "g", "query": name})
        assert status == 200, reply
        return name, reply["rows"]

    with ThreadPoolExecutor(max_workers=6) as executor:
        for name, rows in executor.map(client, range(18)):
            assert rows == oracle(name)


def test_chaos_schedule_correct_or_typed_then_recovers(snapshot_path,
                                                       inject_faults,
                                                       oracle):
    """The availability gate: workers being killed mid-query (every
    fresh worker dies on its first query, well past the three-death
    acceptance floor) must yield only correct answers or typed
    WorkerCrashed — and the pool must return to full readiness."""
    inject_faults(Fault("service.worker.crash", max_fires=1))
    pool = WorkerPool(PoolConfig(workers=2, max_retries=2,
                                 backoff_base_seconds=0.01,
                                 backoff_cap_seconds=0.1))
    pool.start()
    pool.load("g", str(snapshot_path))
    try:
        outcomes = {"ok": 0, "crashed": 0}

        def client(index):
            name = QUERIES[index % len(QUERIES)]
            try:
                reply = pool.query({"op": "query", "structure": "g",
                                    "query": name}, deadline_seconds=10.0)
            except WorkerCrashed as crash:
                assert crash.attempts >= 1
                return "crashed", None
            assert reply["ok"], reply
            assert reply["rows"] == oracle(name), "wrong answer under chaos"
            return "ok", reply["rows"]

        with ThreadPoolExecutor(max_workers=4) as executor:
            for outcome, _ in executor.map(client, range(12)):
                outcomes[outcome] += 1
        assert outcomes["ok"] + outcomes["crashed"] == 12
        assert pool.stats["worker_deaths"] >= 3, pool.stats

        lift_chaos(pool)
        reply = recover(pool, {"op": "query", "structure": "g",
                               "query": "tc"})
        assert reply["ok"] and reply["rows"] == oracle("tc")
        assert wait_until(pool.ready), pool.health()
    finally:
        uninstall_policy()
        pool.drain(timeout=10.0)


def test_admission_sheds_under_saturation(snapshot_path):
    """Overload the inline service far past its queue: every request
    either answers correctly or sheds with a typed 503 — no hangs."""
    service = QueryService(ServiceConfig(workers=0, max_concurrency=1,
                                         max_queue_depth=1,
                                         default_deadline_seconds=10.0))
    service.start()
    assert service.load("g", str(snapshot_path))["ok"]
    statuses = []

    def client(index):
        status, reply = service.handle_query(
            {"structure": "g", "query": "tc"})
        assert status in (200, 503), reply
        return status

    with ThreadPoolExecutor(max_workers=8) as executor:
        statuses = list(executor.map(client, range(16)))
    assert statuses.count(200) >= 1
