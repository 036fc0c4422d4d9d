"""Server tests: status taxonomy, endpoints, drain, and the CLI.

The transport-independent :class:`QueryService` is tested directly
(inline mode shares every code path above the dispatch seam with the
pool); end-to-end slices run over real HTTP in both modes (a pool
answer's body must be the worker's payload bytes, and keep-alive
replies must not wait on the client's delayed ACK), and one over the
``python -m repro serve`` subprocess including SIGTERM drain.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro.core.governor import CancelToken
from repro.logic.queries import CANONICAL_QUERIES
from repro.service.protocol import Message
from repro.service.server import (
    QueryService,
    ServiceConfig,
    _make_server,
)
from repro.testing.chaos import Fault

# ----------------------------------------------------------- status map


@pytest.mark.parametrize("reply,status", [
    ({"ok": True}, 200),
    ({"ok": False, "error": {"kind": "input"}}, 400),
    ({"ok": False, "error": {"kind": "resource",
                             "type": "RowLimitExceeded"}}, 422),
    ({"ok": False, "error": {"kind": "resource",
                             "type": "DeadlineExceeded"}}, 504),
    ({"ok": False, "error": {"kind": "resource",
                             "type": "EvaluationCancelled"}}, 504),
    ({"ok": False, "error": {"kind": "overload"}}, 503),
    ({"ok": False, "error": {"kind": "crash"}}, 502),
    ({"ok": False, "error": {"kind": "internal"}}, 500),
    ({"ok": False, "error": {}}, 500),
])
def test_status_taxonomy(reply, status):
    assert QueryService._status_of(reply) == status


# -------------------------------------------------------- inline service


@pytest.fixture
def service(snapshot_path):
    service = QueryService(ServiceConfig(workers=0, max_concurrency=2,
                                         max_queue_depth=2))
    service.start()
    assert service.load("g", str(snapshot_path))["ok"]
    return service


def test_query_answers_match_the_oracle(service, oracle):
    # A body that still carries the retired ``optimize`` field is answered
    # like one without it: the server ignores fields it does not know.
    for name, extra in (("tc", {}), ("apath", {}),
                        ("tc", {"optimize": False})):
        status, reply = service.handle_query(
            {"structure": "g", "query": name, **extra})
        assert status == 200, reply
        assert reply["rows"] == oracle(name)


def test_missing_fields_are_400(service):
    status, reply = service.handle_query({"query": "tc"})
    assert status == 400 and reply["error"]["kind"] == "input"
    status, _ = service.handle_query({"structure": "g"})
    assert status == 400


def test_unknown_query_is_400(service):
    status, reply = service.handle_query({"structure": "g", "query": "zz"})
    assert status == 400
    assert "zz" in reply["error"]["message"]


def test_bad_deadline_is_400(service):
    status, _ = service.handle_query(
        {"structure": "g", "query": "tc", "deadline_seconds": "soon"})
    assert status == 400
    status, _ = service.handle_query(
        {"structure": "g", "query": "tc", "deadline_seconds": -1})
    assert status == 400


def test_zero_deadline_is_504(service):
    status, reply = service.handle_query(
        {"structure": "g", "query": "tc", "deadline_seconds": 0.0})
    assert status == 504
    assert reply["error"]["type"] == "DeadlineExceeded"


def test_row_limit_is_422(service):
    status, reply = service.handle_query(
        {"structure": "g", "query": "tc", "max_rows": 1})
    assert status == 422
    assert reply["error"]["type"] == "RowLimitExceeded"


def test_cancelled_client_token_is_a_typed_cancellation(service):
    token = CancelToken()
    token.cancel()
    status, reply = service.handle_query(
        {"structure": "g", "query": "tc"}, cancel_token=token)
    assert status == 504
    assert reply["error"]["type"] == "EvaluationCancelled"


def test_overflow_chaos_is_503_with_retry_after(service, inject_faults):
    inject_faults(Fault("service.queue.overflow"))
    status, reply = service.handle_query({"structure": "g", "query": "tc"})
    assert status == 503
    assert reply["error"]["retry_after"] >= 1.0


def test_draining_service_sheds_with_503(service):
    service.drain()
    status, reply = service.handle_query({"structure": "g", "query": "tc"})
    assert status == 503 and reply["error"]["type"] == "Draining"
    assert not service.ready()


def test_health_reports_mode_and_admission(service):
    body = service.health()
    assert body["mode"] == "inline" and body["ready"]
    assert body["admission"]["max_concurrency"] == 2


# ------------------------------------------------------------- real HTTP


@pytest.fixture
def http_server(service):
    server = _make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()
    thread.join(timeout=2.0)


def _exchange(address, method, path, body=None):
    """One request on a fresh connection: status, headers, raw body."""
    connection = http.client.HTTPConnection(*address, timeout=10.0)
    try:
        connection.request(
            method, path,
            body=None if body is None else json.dumps(body),
            headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


def _request(address, method, path, body=None):
    status, headers, data = _exchange(address, method, path, body)
    return status, headers, json.loads(data.decode("utf-8"))


def test_http_end_to_end(http_server, oracle, snapshot_path):
    status, _, body = _request(http_server, "GET", "/ready")
    assert status == 200 and body["ready"]
    # The limit probe must run before the cache is warm: a cached answer
    # re-materializes nothing, so no limit can trip on it.
    status, _, body = _request(http_server, "POST", "/query",
                               {"structure": "g", "query": "tc",
                                "max_rows": 1})
    assert status == 422, body
    status, _, body = _request(http_server, "POST", "/query",
                               {"structure": "g", "query": "tc"})
    assert status == 200 and body["rows"] == oracle("tc")
    status, _, body = _request(http_server, "GET", "/health")
    assert status == 200 and body["mode"] == "inline"
    status, _, body = _request(http_server, "POST", "/load",
                               {"name": "g2", "path": str(snapshot_path)})
    assert status == 200, body
    status, _, _ = _request(http_server, "GET", "/nope")
    assert status == 404


def test_http_overload_carries_retry_after(http_server, inject_faults):
    inject_faults(Fault("service.queue.overflow"))
    status, headers, body = _request(http_server, "POST", "/query",
                                     {"structure": "g", "query": "tc"})
    assert status == 503
    assert int(headers["Retry-After"]) >= 1


def test_http_rejects_non_json_bodies(http_server):
    connection = http.client.HTTPConnection(*http_server, timeout=10.0)
    try:
        connection.request("POST", "/query", body=b"{nope",
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400
        assert b"not valid JSON" in response.read()
    finally:
        connection.close()


def _recording(service):
    """Wrap ``service.handle_query`` to keep every ``(status, reply)`` it
    returns, so a test can compare the HTTP body with the reply."""
    returned = []
    handle_query = service.handle_query

    def record(*args, **kwargs):
        result = handle_query(*args, **kwargs)
        returned.append(result)
        return result

    service.handle_query = record
    return returned


def _assert_body_is_the_reply(status, data, returned) -> None:
    """The HTTP body is the reply ``handle_query`` returned: a worker's
    reply as its payload bytes, a server-built one encoded here."""
    reply_status, reply = returned[-1]
    assert status == reply_status
    assert json.loads(data) == reply
    if isinstance(reply, Message):
        assert data == reply.payload
    else:
        assert data == json.dumps(reply).encode("utf-8")


@pytest.fixture(scope="module")
def pool_http_server(snapshot_path):
    service = QueryService(ServiceConfig(workers=1))
    service.start()
    for name in ("g", "cold"):
        assert service.load(name, str(snapshot_path))["ok"]
    returned = _recording(service)
    server = _make_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address, returned
    server.shutdown()
    server.server_close()
    thread.join(timeout=2.0)
    service.drain()


def test_keep_alive_requests_do_not_stall(pool_http_server):
    """Sequential requests on one keep-alive connection: a reply written
    as headers then body with Nagle's algorithm on waits for the
    client's delayed ACK (~40 ms on Linux) before the body leaves."""
    address, _ = pool_http_server
    body = json.dumps({"structure": "g", "query": "tc"})
    headers = {"Content-Type": "application/json"}
    connection = http.client.HTTPConnection(*address, timeout=10.0)
    latencies = []
    try:
        for _ in range(30):
            started = time.perf_counter()
            connection.request("POST", "/query", body=body, headers=headers)
            response = connection.getresponse()
            response.read()
            latencies.append((time.perf_counter() - started) * 1e3)
            assert response.status == 200
    finally:
        connection.close()
    assert statistics.median(latencies) < 20.0, latencies


def test_pool_answers_pass_through_http_as_worker_bytes(pool_http_server,
                                                        oracle):
    address, returned = pool_http_server
    for query in ("tc", "apath", "non-reach", "reach"):
        for _ in range(2):  # a cold answer, then a memoized one
            status, _, data = _exchange(address, "POST", "/query",
                                        {"structure": "g", "query": query})
            assert status == 200, data
            _assert_body_is_the_reply(status, data, returned)
            assert isinstance(returned[-1][1], Message)
        if CANONICAL_QUERIES[query].variables:
            assert json.loads(data)["rows"] == oracle(query)


def test_pool_error_replies_carry_their_own_bodies(pool_http_server,
                                                   inject_faults):
    address, returned = pool_http_server
    cases = [
        ({"structure": "cold", "query": "tc", "max_rows": 1}, 422),
        ({"structure": "g", "query": "zz"}, 400),
        ({"query": "tc"}, 400),
        ({"structure": "g", "query": "tc", "deadline_seconds": 0.0}, 504),
    ]
    for body, expected in cases:
        status, _, data = _exchange(address, "POST", "/query", body)
        assert status == expected, data
        _assert_body_is_the_reply(status, data, returned)
    inject_faults(Fault("service.queue.overflow"))
    status, headers, data = _exchange(address, "POST", "/query",
                                      {"structure": "g", "query": "tc"})
    assert status == 503 and int(headers["Retry-After"]) >= 1
    _assert_body_is_the_reply(status, data, returned)


def test_disconnected_inline_client_gets_an_encoded_408(service,
                                                        http_server,
                                                        inject_faults):
    """A client that hangs up its sending side mid-query cancels the
    inline evaluation; the 408 rewrite keeps the reply's own body."""
    returned = _recording(service)
    inject_faults(Fault("service.worker.crash", action="delay",
                        delay_seconds=0.5))
    body = json.dumps({"structure": "g", "query": "tc"}).encode()
    with socket.create_connection(http_server, timeout=10.0) as client:
        client.sendall(b"POST /query HTTP/1.1\r\nHost: test\r\n"
                       b"Content-Type: application/json\r\n"
                       b"Content-Length: %d\r\n\r\n" % len(body) + body)
        client.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := client.recv(65536):
            response += chunk
    head, _, data = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 408 "), head
    reply_status, reply = returned[-1]
    assert reply_status == 504
    assert reply["error"]["type"] == "EvaluationCancelled"
    assert json.loads(data) == reply
    assert data == json.dumps(reply).encode("utf-8")


def test_inline_keep_alive_requests_do_not_wait_for_the_watcher(
        http_server):
    """Sequential inline requests on one keep-alive connection: a
    disconnect watcher that polled the connection on a timer would hold
    every reply until its next poll (~50 ms) before the handler could
    join it."""
    body = json.dumps({"structure": "g", "query": "tc"})
    headers = {"Content-Type": "application/json"}
    connection = http.client.HTTPConnection(*http_server, timeout=10.0)
    latencies = []
    try:
        for _ in range(30):
            started = time.perf_counter()
            connection.request("POST", "/query", body=body, headers=headers)
            response = connection.getresponse()
            response.read()
            latencies.append((time.perf_counter() - started) * 1e3)
            assert response.status == 200
    finally:
        connection.close()
    assert statistics.median(latencies) < 20.0, latencies


def test_keep_alive_client_hanging_up_mid_query_gets_408(service,
                                                         http_server,
                                                         inject_faults):
    """A hang-up is still seen on a reused connection: the first request
    is answered and its watcher stopped, then the client sends a second
    one, shuts its sending side mid-query and reads the 408."""
    body = json.dumps({"structure": "g", "query": "tc"}).encode()
    request = (b"POST /query HTTP/1.1\r\nHost: test\r\n"
               b"Content-Type: application/json\r\n"
               b"Content-Length: %d\r\n\r\n" % len(body) + body)
    with socket.create_connection(http_server, timeout=10.0) as client:
        client.sendall(request)
        first = b""
        while b"\r\n\r\n" not in first:
            first += client.recv(65536)
        head, _, data = first.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 "), head
        length = int(head.lower().split(b"content-length: ")[1]
                     .split(b"\r\n")[0])
        while len(data) < length:
            data += client.recv(65536)
        inject_faults(Fault("service.worker.crash", action="delay",
                            delay_seconds=0.5))
        client.sendall(request)
        client.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := client.recv(65536):
            response += chunk
    assert response.startswith(b"HTTP/1.1 408 "), response


# ------------------------------------------------------ the serve CLI


def test_serve_subprocess_sigterm_drains(snapshot_path, tmp_path):
    """The acceptance slice for graceful shutdown: boot ``repro serve``,
    hit /ready over real HTTP, SIGTERM it, and require a clean exit 0
    with the drain logged."""
    import repro

    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--load", f"g={snapshot_path}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=environment, text=True)
    try:
        banner = process.stdout.readline()
        assert "listening on http://" in banner, banner
        address = banner.rsplit("http://", 1)[1].strip().split()[0]
        host, _, port = address.partition(":")
        deadline = time.monotonic() + 30.0
        while True:
            status, _, _ = _request((host, int(port)), "GET", "/ready")
            if status == 200:
                break
            assert time.monotonic() < deadline, "server never became ready"
            time.sleep(0.1)
        status, _, body = _request((host, int(port)), "POST", "/query",
                                   {"structure": "g", "query": "tc"})
        assert status == 200 and body["ok"]
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=30.0)
        assert process.returncode == 0, stderr
        assert "draining" in stderr and "drained" in stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
