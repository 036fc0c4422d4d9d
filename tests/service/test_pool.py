"""Supervised-pool tests: crash detection, respawn, retry, breaker.

These spawn real worker processes.  The chaos crash point is armed
through the environment (each worker re-arms the policy at spawn), so a
``service.worker.crash`` fault with ``max_fires=1`` kills *every fresh
worker on its first query* — the hard-down scenario.  Recovery is
modelled by lifting the policy: respawns after that come up clean, and
the pool must return to full readiness and correct answers.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import pytest

from repro.core.errors import WorkerCrashed
from repro.service.pool import PoolConfig, WorkerPool, _Breaker
from repro.testing.chaos import Fault, uninstall_policy


def wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def lift_chaos(pool):
    """End a crash storm deterministically: uninstall the policy, then
    SIGKILL every worker spawned while it was armed — the idle-death
    sweep respawns them with no policy in the environment."""
    uninstall_policy()
    for handle in pool._workers:
        proc = handle.proc
        if proc is not None and proc.poll() is None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def recover(pool, request, timeout=20.0):
    """Query until the pool heals.  A worker whose spawn raced the
    policy uninstall may still be armed; the contract is only that every
    answer is correct-or-typed and that clean respawns converge."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return pool.query(dict(request), deadline_seconds=5.0)
        except WorkerCrashed:
            if time.monotonic() > deadline:
                raise


@pytest.fixture
def pool(snapshot_path):
    pool = WorkerPool(PoolConfig(workers=2, max_retries=2,
                                 backoff_base_seconds=0.01,
                                 backoff_cap_seconds=0.1,
                                 grace_seconds=5.0))
    pool.start()
    pool.load("g", str(snapshot_path))
    yield pool
    uninstall_policy()  # never leave a pool draining under chaos
    pool.drain(timeout=10.0)


TC = {"op": "query", "structure": "g", "query": "tc"}


def test_healthy_pool_answers_correctly(pool, oracle):
    reply = pool.query(dict(TC))
    assert reply["ok"] and reply["rows"] == oracle("tc")
    assert pool.ready()


def test_queries_run_out_of_process(pool):
    pids = {pool.query(dict(TC))["pid"] for _ in range(4)}
    assert os.getpid() not in pids, "pool queries must not run in-process"


def test_sigkill_while_idle_is_survived(pool, oracle):
    """kill -9 one *idle* worker; the pool must answer from the survivor
    at once and the sweep must respawn the corpse back to readiness."""
    victim = pool._workers[0]
    os.kill(victim.proc.pid, signal.SIGKILL)
    victim.proc.wait()
    reply = pool.query(dict(TC))
    assert reply["ok"] and reply["rows"] == oracle("tc")
    assert wait_until(pool.ready), pool.health()
    assert pool.stats["worker_deaths"] >= 1


def test_idle_death_is_counted_where_dispatch_first_sees_it(pool):
    """Dispatch counts an idle corpse as it skips it, so the count reads
    1 right after the next query rather than after the supervisor's next
    sweep; the sweep and the respawn never count it a second time."""
    victim = pool._workers[0]
    os.kill(victim.proc.pid, signal.SIGKILL)
    victim.proc.wait()
    assert pool.query(dict(TC))["ok"]
    assert pool.stats["worker_deaths"] == 1
    assert pool.health()["workers"][0]["deaths"] == 1
    assert wait_until(pool.ready), pool.health()
    assert pool.stats["worker_deaths"] == 1


def test_crash_storm_is_a_typed_error_never_a_hang(snapshot_path,
                                                   inject_faults, oracle):
    """Every worker (and every respawn) dies on its first query: the
    retry budget must bottom out in WorkerCrashed, and once the chaos is
    lifted the pool must heal to readiness and correct answers.  The
    policy rides the child environment, so it is armed *before* the
    workers spawn."""
    inject_faults(Fault("service.worker.crash", max_fires=1))
    pool = WorkerPool(PoolConfig(workers=2, max_retries=2,
                                 backoff_base_seconds=0.01,
                                 backoff_cap_seconds=0.1))
    pool.start()
    pool.load("g", str(snapshot_path))
    try:
        with pytest.raises(WorkerCrashed) as crash:
            pool.query(dict(TC), deadline_seconds=10.0)
        assert crash.value.attempts == pool.config.max_retries + 1
        assert pool.stats["worker_deaths"] >= pool.config.max_retries + 1
        assert pool.stats["crashed_replies"] == 1

        lift_chaos(pool)
        reply = recover(pool, TC)
        assert reply["ok"] and reply["rows"] == oracle("tc")
        assert wait_until(pool.ready), pool.health()
    finally:
        uninstall_policy()
        pool.drain(timeout=10.0)


def test_breaker_trips_columnar_down_to_plan(snapshot_path, inject_faults,
                                             oracle):
    """Repeated deaths serving one structure trip its circuit breaker:
    later columnar requests run on the plan backend (correct answers,
    just degraded) and the trip is surfaced as a DegradationEvent."""
    inject_faults(Fault("service.worker.crash", max_fires=1))
    pool = WorkerPool(PoolConfig(workers=2, max_retries=1,
                                 backoff_base_seconds=0.01,
                                 breaker_threshold=2,
                                 breaker_reset_seconds=60.0))
    pool.start()
    pool.load("g", str(snapshot_path))
    try:
        with pytest.raises(WorkerCrashed):
            pool.query(dict(TC), deadline_seconds=10.0)
        lift_chaos(pool)
        assert pool._breaker_open("g")
        reply = recover(pool, dict(TC, backend="columnar"))
        assert reply["ok"] and reply["rows"] == oracle("tc")
        assert reply["backend"] == "plan", "breaker must demote columnar"
        events = pool.degradations()
        assert [(e.stage, e.fallback) for e in events] == \
            [("service.columnar", "plan")]
        assert pool.health()["breakers"]["g"]["tripped"]
        assert wait_until(pool.ready), pool.health()
    finally:
        uninstall_policy()
        pool.drain(timeout=10.0)


def test_breaker_half_opens_after_the_reset_window():
    """State-machine unit test (no processes): a tripped breaker re-opens
    columnar dispatch after ``breaker_reset_seconds`` of calm, resetting
    its death count."""
    pool = WorkerPool(PoolConfig(workers=1, breaker_threshold=1,
                                 breaker_reset_seconds=0.05))
    with pool._lock:
        pool._breakers["g"] = _Breaker(deaths=1,
                                       tripped_at=time.monotonic())
    assert pool._breaker_open("g")
    time.sleep(0.06)
    assert not pool._breaker_open("g"), "breaker must half-open"
    assert pool._breakers["g"].deaths == 0



class _FakeHandle:
    """A worker handle that answers every call at once, in-process."""

    def __init__(self, index):
        self.index = index
        self.lease = threading.Lock()
        self.alive = True
        self.deaths = 0
        self.proc = None
        self.loaded: set = set()

    def call(self, request, timeout):
        return {"ok": True, "id": request.get("id")}


class _YieldingCounters(dict):
    """A stats dict that yields the GIL between reading a counter and
    writing it back, so an unguarded ``+=`` loses updates every time two
    threads meet there."""

    def __getitem__(self, key):
        value = super().__getitem__(key)
        time.sleep(0)
        return value


def test_request_counter_loses_no_updates_under_concurrency():
    """Counter updates from concurrent request threads are serialized by
    the pool lock: N threads x M queries count exactly N*M requests."""
    threads, calls = 8, 100
    pool = WorkerPool(PoolConfig(workers=2))
    pool._workers = [_FakeHandle(index) for index in range(2)]
    pool.stats = _YieldingCounters(pool.stats)
    errors: list = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        def client():
            try:
                for _ in range(calls):
                    assert pool.query({"op": "query"})["ok"]
                    pool.health()
            except Exception as error:  # surfaced below, not swallowed
                errors.append(error)

        workers = [threading.Thread(target=client) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert pool.stats["requests"] == threads * calls
    assert pool.health()["stats"]["requests"] == threads * calls

def test_drain_refuses_new_work(pool):
    pool.drain(timeout=10.0)
    assert not pool.ready()
    with pytest.raises(WorkerCrashed, match="draining"):
        pool.query(dict(TC))


def test_load_failure_is_typed(pool, tmp_path):
    bad = tmp_path / "bad.snap"
    bad.write_text("not a snapshot")
    with pytest.raises(WorkerCrashed, match="load"):
        pool.load("bad", str(bad))
