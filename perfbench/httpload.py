"""The ``serve-hot`` harness: a real ``python -m repro serve`` process
driven over keep-alive HTTP by closed-loop clients.

The server is started on a free port (``--port 0``; the port is read
from its banner), is ready when ``GET /ready`` answers 200, and is
stopped with SIGTERM; a stop must exit 0 and leave no worker process
behind.  Every step has a deadline, so a server that fails to start or
to become ready is reported as a failure, never waited on forever.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import gen

START_DEADLINE_S = 60.0
STOP_DEADLINE_S = 30.0
WARM_DEADLINE_S = 60.0
HEADERS = {"Content-Type": "application/json"}


class HarnessError(RuntimeError):
    """The service could not be started, warmed or stopped cleanly."""


def children_of(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise HarnessError(f"no VmHWM for pid {pid}")


def read_line(proc: subprocess.Popen, deadline: float) -> tuple[str, bytes]:
    """The first line ``proc`` writes to its stdout pipe, read with a
    deadline, and any bytes after it that came in the same read."""
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        data = b""
        while b"\n" not in data:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not selector.select(remaining):
                raise HarnessError("no output line before the deadline")
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                raise HarnessError(f"process exited (code "
                                   f"{proc.wait(timeout=5)}) before a line")
            data += chunk
    finally:
        selector.close()
    line, _, rest = data.partition(b"\n")
    return line.decode(errors="replace"), rest


class Server:
    """One ``repro serve`` process with its two snapshots resident."""

    def __init__(self, root: Path, loads: dict[str, Path], log: Path):
        self.root, self.loads, self.log = root, loads, log
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for readiness; return the set-up seconds."""
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--workers", "2"]
        for name, path in self.loads.items():
            command += ["--load", f"{name}={path}"]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        started = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, start_new_session=True)
        deadline = started + START_DEADLINE_S
        banner, _ = read_line(self.proc, deadline)
        match = re.search(r"listening on http://[^:]+:(\d+)", banner)
        if match is None:
            raise HarnessError(f"unexpected server banner {banner!r}")
        self.port = int(match.group(1))
        while True:
            try:
                status, _ = self.get("/ready")
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - started
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise HarnessError("server did not become ready")
            time.sleep(0.005)

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def worker_pids(self) -> list[int]:
        return children_of(self.proc.pid)

    def peak_rss_mb(self) -> float:
        pids = [self.proc.pid, *self.worker_pids()]
        return sum(peak_rss_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGTERM, then require exit 0 and no surviving worker."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        workers = children_of(proc.pid)
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=STOP_DEADLINE_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise HarnessError("server did not drain before the deadline")
        finally:
            proc.stdout.close()
        leftovers = [pid for pid in workers if os.path.exists(f"/proc/{pid}")]
        for pid in leftovers:
            os.kill(pid, signal.SIGKILL)
        if code != 0:
            raise HarnessError(f"server exited with code {code}")
        if leftovers:
            raise HarnessError(f"worker processes left behind: {leftovers}")

    def kill(self) -> None:
        """Last-resort teardown on an error path."""
        if self.proc is not None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            self.proc.stdout.close()
            self.proc = None


# ------------------------------------------------------------- the clients


def request_body(pair) -> bytes:
    structure, query = pair
    return json.dumps({"structure": structure, "query": query}).encode()


def reply_matches(reply: dict, expected) -> bool:
    if isinstance(expected, bool):
        return reply.get("result") is expected
    return reply.get("rows") == expected


def expected_reply(answer):
    """A reference answer in the service's reply shape."""
    if isinstance(answer, bool):
        return answer
    return [list(row) for row in sorted(answer)]


def run_clients(port: int, expected: dict, seconds: float,
                clients: int = 2) -> tuple[list, float]:
    """Closed-loop keep-alive clients cycling :data:`gen.SERVE_PAIRS`.

    Returns one record per attempted request -- latency in ms, or
    ``None`` for a failed, non-200 or wrong reply -- and the window's wall
    seconds.  Each client times a request until its whole body is read;
    decoding and checking the reply happen after that."""
    pairs = gen.SERVE_PAIRS
    bodies = {pair: request_body(pair) for pair in pairs}
    records: list[list] = [[] for _ in range(clients)]
    errors: list[str] = []
    deadline = time.perf_counter() + seconds

    def client(slot: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        index = slot * len(pairs) // clients
        out = records[slot]
        try:
            while time.perf_counter() < deadline:
                pair = pairs[index % len(pairs)]
                index += 1
                started = time.perf_counter()
                try:
                    conn.request("POST", "/query", bodies[pair], HEADERS)
                    response = conn.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException) as error:
                    out.append(None)
                    errors.append(repr(error))
                    conn.close()
                    continue
                elapsed = (time.perf_counter() - started) * 1e3
                ok = response.status == 200 and \
                    reply_matches(json.loads(data), expected[pair])
                if not ok and len(errors) < 20:
                    errors.append(f"{pair}: status {response.status}")
                out.append(elapsed if ok else None)
        finally:
            conn.close()

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(slot,))
               for slot in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        print(f"serve-hot: {len(errors)} client error(s), first: "
              f"{errors[0]}", file=sys.stderr)
    return [r for slot in records for r in slot], wall


def warm_workers(send, worker_count: int, clients: int = 2) -> None:
    """Send each pair of the mix from ``clients`` threads at once (a
    worker is leased for a whole request, so simultaneous requests land
    on different workers) until every worker has answered every pair from
    its cache.  ``send(pair)`` returns the reply dict, whose ``pid`` and
    ``cached`` fields say who answered and how."""
    wanted = len(gen.SERVE_PAIRS) * worker_count
    seen: set = set()
    deadline = time.perf_counter() + WARM_DEADLINE_S
    while len(seen) < wanted:
        if time.perf_counter() > deadline:
            raise HarnessError(
                f"only {len(seen)} of {wanted} (worker, query) caches "
                f"warmed before the deadline")
        for pair in gen.SERVE_PAIRS:
            barrier = threading.Barrier(clients)

            def one(pair=pair, barrier=barrier) -> None:
                barrier.wait()
                reply = send(pair)
                if reply.get("cached"):
                    seen.add((reply.get("pid"), pair))

            threads = [threading.Thread(target=one) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()


def http_sender(port: int):
    local = threading.local()

    def send(pair) -> dict:
        conn = getattr(local, "conn", None)
        if conn is None:
            conn = local.conn = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=60)
        conn.request("POST", "/query", request_body(pair), HEADERS)
        response = conn.getresponse()
        return json.loads(response.read())

    return send
