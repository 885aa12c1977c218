"""The served program as the benchmark sees it: a ``repro serve`` child
process, keep-alive HTTP connections to it, and a closed-loop reader."""

from __future__ import annotations

import http.client
import json
import os
import re
import selectors
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.trace import span

#: Seconds to wait for the server to print its address / answer /healthz.
START_TIMEOUT = 60.0
#: Per-request socket timeout.
REQUEST_TIMEOUT = 60.0

_ADDRESS = re.compile(r"http://([0-9.]+):(\d+)")


class ServerProcess:
    """``python -m repro serve SNAPSHOT`` on an ephemeral port."""

    def __init__(
        self,
        snapshot: Path,
        src_dir: Path,
        cache_size: int,
        live_dir: Path,
        compact_every: int,
    ) -> None:
        command = [
            sys.executable, "-m", "repro", "serve", str(snapshot),
            "--port", "0", "--cache-size", str(cache_size),
            "--live", "--watch", str(live_dir),
            "--compact-every", str(compact_every),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir)
        self.command = command
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, text=True,
        )
        self.host, self.port = self._read_address()

    def _read_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        try:
            while time.monotonic() < deadline:
                if not selector.select(timeout=0.5):
                    if self.process.poll() is not None:
                        break
                    continue
                line = self.process.stdout.readline()
                if not line:
                    break
                match = _ADDRESS.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        finally:
            selector.close()
        self.stop()
        raise RuntimeError(f"server did not start: {' '.join(self.command)}")

    def wait_healthy(self) -> None:
        """Poll ``/healthz`` until the first 200."""
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            try:
                with Connection(self.host, self.port) as conn:
                    status, _, _ = conn.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz with 200")

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set) in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match is None:
            raise RuntimeError("VmHWM not reported by /proc")
        return int(match.group(1)) / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(
            host, port, timeout=REQUEST_TIMEOUT
        )

    def request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes, float]:
        """``(status, body, seconds)`` of one request/response."""
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter()
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        payload = response.read()
        return response.status, payload, time.perf_counter() - start

    def get(self, path: str) -> tuple[int, bytes, float]:
        return self.request("GET", path)

    def get_json(self, path: str) -> dict:
        status, payload, _ = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}: {payload[:200]!r}")
        return json.loads(payload)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_GENERATION = re.compile(rb'"generation": (\d+)')


@dataclass
class ReaderLog:
    """What one closed-loop connection saw."""

    latencies: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    non_200: int = 0
    #: request -> {body: times seen}; verified after the window.
    bodies: dict = field(default_factory=dict)
    generations: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def closed_loop(
    host: str,
    port: int,
    stream,
    connections: int,
    seconds: float,
    unit: int,
    keep_going=None,
) -> list[ReaderLog]:
    """Run ``connections`` closed-loop readers for ``seconds``.

    Each reader sends its next request as soon as the previous answer
    has arrived. ``stream`` is a shared iterator of requests (drawn
    under a lock, so the request sequence is the seeded one whatever the
    thread interleaving). ``keep_going`` optionally extends the window
    past ``seconds`` while it returns true. The window then goes on
    until the number of requests drawn is a multiple of ``unit``, so a
    window sends whole units of the stream.
    """
    lock = threading.Lock()
    deadline = time.perf_counter() + seconds
    logs = [ReaderLog() for _ in range(connections)]
    request_ids = iter(range(1, 1 << 62))
    drawn = 0

    def running() -> bool:
        if time.perf_counter() < deadline or drawn % unit:
            return True
        return keep_going is not None and keep_going()

    def reader(log: ReaderLog) -> None:
        nonlocal drawn
        try:
            with Connection(host, port) as conn:
                while True:
                    with lock:
                        if not running():
                            break
                        request = next(stream)
                        rid = next(request_ids)
                        drawn += 1
                    path = request.path()
                    with span("http.request", rid=rid, path=path) as sp:
                        status, body, seconds_ = conn.get(path)
                        sp.set_attr("status", status)
                    log.latencies.append(seconds_)
                    log.sizes.append(len(body))
                    if status != 200:
                        log.non_200 += 1
                        continue
                    seen = log.bodies.setdefault(request, {})
                    seen[body] = seen.get(body, 0) + 1
                    match = _GENERATION.search(body, max(0, len(body) - 64))
                    if match is not None:
                        log.generations.append(int(match.group(1)))
        except Exception as exc:  # noqa: BLE001 — reported as a failure
            log.errors.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=reader, args=(log,), name=f"reader-{i}")
        for i, log in enumerate(logs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return logs
