"""The shipped HTTP server as a child process, and a keep-alive client.

The server runs as ``python -m repro.server`` (or, for a traced run,
``perfbench/serve_traced.py``, which wraps the same entry point) in a
process of its own, so the client never competes for the server's
interpreter lock.  It inherits the benchmark's CPU affinity.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
from pathlib import Path


class ServerProcess:
    """One ``repro.server`` child: start, address, memory, stop."""

    def __init__(self, root: Path, out_dir: Path, args: list[str],
                 spans_out: Path | None = None):
        self.root = root
        self.out_dir = out_dir
        self.args = [str(a) for a in args]
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._log = None

    def start(self, timeout: float = 120.0) -> "ServerProcess":
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro.server", *self.args]
        else:
            cmd = [sys.executable,
                   str(self.root / "perfbench" / "serve_traced.py"),
                   "--spans-out", str(self.spans_out), *self.args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p
        )
        self._log = open(self.out_dir / "server.log", "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, env=env,
            cwd=self.root,
        )
        line = self._read_line(timeout)
        if not line.startswith("PORT "):
            self.stop()
            raise RuntimeError(f"server did not announce its port: {line!r}")
        self.port = int(line.split()[1])
        return self

    def _read_line(self, timeout: float) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                return ""
        return self.proc.stdout.readline().decode("utf-8", "replace").strip()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size so far (Linux VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self, timeout: float = 60.0) -> int | None:
        """Graceful SIGTERM shutdown; kill if it overruns ``timeout``."""
        proc = self.proc
        if proc is None:
            return None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
        self._log.close()
        self.proc = None
        return proc.returncode


class HttpClient:
    """A minimal HTTP/1.1 keep-alive client over one socket.

    Lighter than ``http.client`` so the client's own cost stays a small,
    steady part of each measured round trip.
    """

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: float = 60.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def request(self, method: str, path: str,
                body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.sock.sendall(head + body)
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        header, __, rest = self._buffer.partition(b"\r\n\r\n")
        lines = header.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, __, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self._buffer = rest
        while len(self._buffer) < length:
            self._fill()
        payload, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def get_json(self, path: str) -> dict:
        status, payload = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(payload)

    def close(self) -> None:
        self.sock.close()
