"""The always-on HTTP front-end for an :class:`AuthorityService`.

Everything before this module pumps the consultation queue *on demand*:
some caller's ``future.result()`` (or an explicit ``drain()``) does the
work.  An HTTP host inverts that — clients come and go, none of them
can be the pump — so :class:`AuthorityHTTPServer` owns a background
drain task that wakes on every admission, runs ``service.drain()`` off
the event loop (``run_in_executor``), and lets handlers *passively*
await their futures.  No request handler ever calls ``result()`` on an
unresolved future.

The server is stdlib-only: hand-rolled HTTP/1.1 over
``asyncio.start_server`` (the stdlib's ``http.server`` is a blocking
thread-per-request design, which would park a thread per waiting
request).  The surface:

``POST /consult``
    one consultation, answered on the same request once it resolves:
    one request, one answer, so a connection waits on at most one
    consultation;
``GET /audit`` / ``GET /stats`` / ``GET /healthz`` / ``GET /readyz``
    observability; the audit endpoint tails the authority's log
    window (``?event=``, ``?since=<clock>``, ``?limit=``) and reports
    the window's ``oldest_clock``; ``/stats`` also reports the cyclic
    collector's per-generation counts; ``/healthz`` is
    pure *liveness* (200 whenever the loop answers) while ``/readyz``
    is *readiness* (503 + ``Retry-After`` during the shutdown drain);
``POST /admin/snapshot``
    force the write-behind persister's hand (compact the journal now).

Failure semantics map onto status codes: an
:class:`AdmissionError` from the service's high-water mark is a
**429** with a ``Retry-After`` hint; a stopping server answers
admissions with **503**; a consultation that outran its
``deadline_ms`` (accepted per request in the ``/consult`` body)
resolves to a typed :class:`~repro.errors.DeadlineExceeded` and maps to
**504** + ``Retry-After``.  A consultation without a deadline is
answered whenever it resolves.  ``deadline_ms`` bounds a
consultation's own queue wait and solve, but not a solve queued ahead
of it: the pump drains one submission at a time.

Durability belongs to the service: an
``AuthorityService(state_dir=)`` has recovered its journal before the
server is built (auditing ``cache.load.completed`` / per-frame
``cache.load.rejected``), so the socket binds after recovery, and each
drain ends with the journal's flush.  The server also flushes it
every :data:`FLUSH_INTERVAL_S`, so a profile stored outside a drain
reaches disk on an idle host, compacts it on ``POST /admin/snapshot``,
and closes the service during graceful shutdown — which drains every
in-flight future first, compacts the journal a last time and lands a
``server.shutdown.completed`` audit record.
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import threading
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.core.audit_events import (
    EVENT_SERVER_PUMP_FAILED,
    EVENT_SERVER_SHUTDOWN,
    EVENT_SERVER_STARTED,
)
from repro.core.session import PRIVACY_MODES
from repro.errors import AdmissionError, DeadlineExceeded, ProtocolError
from repro.server.wire import (
    audit_payload,
    error_payload,
    exact_default,
    failure_payload,
    jsonable,
    outcome_payload,
)
from repro.service import faults
from repro.service.service import MAX_DEADLINE_MS

#: The largest request body the server reads; a longer one is a 413.
MAX_BODY_BYTES = 1 << 20

#: Seconds the shutdown gives in-flight handlers to write their
#: (resolved) responses.
SHUTDOWN_GRACE_S = 10.0

#: Seconds between the durability timer's flushes of the journal.
FLUSH_INTERVAL_S = 5.0

#: Reason phrases for the handful of statuses the server emits.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


class _HTTPError(Exception):
    """A handler-level refusal: status + JSON error body (+ headers)."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None,
                 **extra: Any):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.extra = extra

    def payload(self) -> dict:
        return error_payload(self.message, **self.extra)


class _Response:
    """What a handler returns: status, JSON payload, extra headers."""

    __slots__ = ("status", "payload", "headers", "close")

    def __init__(self, status: int, payload: dict,
                 headers: dict[str, str] | None = None,
                 close: bool = False):
        self.status = status
        self.payload = payload
        self.headers = headers or {}
        self.close = close


class AuthorityHTTPServer:
    """Serve one :class:`AuthorityService` over HTTP/1.1 (asyncio).

    The server never blocks its event loop on authority work: drains
    and persistence run in the loop's default thread-pool executor,
    and handlers wait on futures through done-callbacks
    (``loop.call_soon_threadsafe``), *not* ``asyncio.wrap_future`` —
    wrapping would propagate a cancelled handler's cancellation into
    the backing future and silently swallow the consultation's
    eventual resolution.

    The service's ``persister`` (from ``AuthorityService(state_dir=)``)
    makes the server durable; without one it is purely in-memory.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self._service = service
        self.host = host
        self.port = port  # rebound to the real port after start()
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pump_task: asyncio.Task | None = None
        self._timer_task: asyncio.Task | None = None
        self._work = asyncio.Event()
        self._stop_requested = asyncio.Event()
        self._stopped = asyncio.Event()
        # Liveness vs readiness: /healthz answers 200 whenever the loop
        # runs, /readyz 503 once the shutdown drain begins.
        self._closing = False
        self._stop_started = False
        self._connections = 0
        # Writers of connections reading their next request; stop()
        # hangs these up once every future has resolved.
        self._idle: set[asyncio.StreamWriter] = set()
        self._hung_up = False
        self._started_at: float | None = None
        self.request_count = 0
        #: Lifetime pump/durability failure counts, by site (for /stats).
        self.pump_failures: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "AuthorityHTTPServer":
        """Bind the socket and start the pump (and the durability
        timer of a service with a persister).

        The service recovered its journal when it was built, so the
        socket binds after recovery and serves at once.
        """
        if self._server is not None:
            return self
        loop = asyncio.get_running_loop()
        self._loop = loop
        durable = self._service.persister is not None
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = loop.time()
        self._pump_task = loop.create_task(self._pump())
        if durable:
            self._timer_task = loop.create_task(self._durability_timer())
        self._service.authority.audit.record(
            "-", self._service.authority.AUTHORITY_NAME, EVENT_SERVER_STARTED,
            host=self.host, port=self.port, durable=durable,
        )
        return self

    def request_stop(self) -> None:
        """Ask the serve loop to shut down gracefully (loop thread only;
        cross-thread callers go through ``call_soon_threadsafe``)."""
        self._stop_requested.set()

    async def serve_forever(self, install_signal_handlers: bool = True) -> None:
        """Serve until :meth:`request_stop` (or SIGTERM/SIGINT), then
        run the graceful :meth:`stop` sequence."""
        await self.start()
        installed = []
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    asyncio.get_running_loop().add_signal_handler(
                        sig, self.request_stop
                    )
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or platform without support
        try:
            await self._stop_requested.wait()
            await self.stop()
        finally:
            for sig in installed:
                asyncio.get_running_loop().remove_signal_handler(sig)

    async def stop(self) -> None:
        """Graceful shutdown: stop admitting, drain, flush, compact.

        Sequence — stop listening; drain every already-admitted future
        to resolution; retire the pump and timer tasks; hang up the
        keep-alive connections waiting between requests and give
        in-flight handlers a grace window to write their (now resolved)
        responses; close the service, which compacts its journal; audit
        ``server.shutdown.completed``.  Idempotent and
        safe to race: the second caller awaits the first's completion.
        """
        if self._stop_started:
            await self._stopped.wait()
            return
        self._stop_started = True
        self._closing = True
        loop = asyncio.get_running_loop()
        if self._server is not None:
            # Not wait_closed(): from Python 3.12.1 it also waits for
            # every open connection, which the grace window below bounds.
            self._server.close()
        while self._service.pending_count:
            try:
                await loop.run_in_executor(None, self._service.drain)
            except Exception as exc:
                self._audit_pump_failure("shutdown-drain", exc)
                break
        for task in (self._pump_task, self._timer_task):
            if task is not None:
                task.cancel()
        await asyncio.gather(
            *(t for t in (self._pump_task, self._timer_task) if t),
            return_exceptions=True,
        )
        deadline = loop.time() + SHUTDOWN_GRACE_S
        self._hung_up = True
        for writer in tuple(self._idle):
            writer.close()  # its handler reads EOF and returns
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.02)
        snapshot_entries = await loop.run_in_executor(
            None, self._service.close
        )
        self._service.authority.audit.record(
            "-", self._service.authority.AUTHORITY_NAME,
            EVENT_SERVER_SHUTDOWN,
            requests=self.request_count,
            completed=self._service.completed_count,
            snapshot_entries=snapshot_entries,
        )
        self._stopped.set()

    # ------------------------------------------------------------------
    # Background tasks
    # ------------------------------------------------------------------

    async def _pump(self) -> None:
        """The continuous drain: wakes on admission, drains the queue
        one submission per iteration.

        This is what makes the server *always-on*: clients never pump
        (``future.result()``) — they submit and passively await, and
        this task does every drain off-loop.  A drain iteration that
        raises is audited and counted, then retried after a short
        (growing, capped) backoff — the pump never abandons pending
        futures on a transient failure; a healthy iteration resets the
        backoff.
        """
        loop = asyncio.get_running_loop()
        while True:
            await self._work.wait()
            self._work.clear()
            failures = 0
            while self._service.pending_count:
                try:
                    await loop.run_in_executor(None, self._pump_once)
                except Exception as exc:
                    self._audit_pump_failure("pump", exc)
                    failures += 1
                    await asyncio.sleep(
                        min(0.5, 0.02 * (2 ** min(failures, 8)))
                    )
                else:
                    failures = 0

    def _pump_once(self) -> None:
        """One pump iteration (executor thread): hook, then drain one
        submission.  An unbounded drain would absorb the submissions
        admitted while it runs, so a crash could lose the journal
        frames of arbitrarily many answered requests; one submission
        per drain bounds the loss to one answered consultation."""
        faults.check("pump.iteration")
        self._service.drain(max_submissions=1)

    async def _durability_timer(self) -> None:
        """Idle-time persistence: run the end-of-drain flush every
        ``FLUSH_INTERVAL_S``, so a profile stored outside a drain still
        reaches disk."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(FLUSH_INTERVAL_S)
            try:
                await loop.run_in_executor(
                    None, self._service.persister.on_drained
                )
            except Exception as exc:
                self._audit_pump_failure("durability-timer", exc)

    def _audit_pump_failure(self, where: str, exc: Exception) -> None:
        self.pump_failures[where] = self.pump_failures.get(where, 0) + 1
        self._service.authority.audit.record(
            "-", self._service.authority.AUTHORITY_NAME,
            EVENT_SERVER_PUMP_FAILED,
            where=where, error=f"{type(exc).__name__}: {exc}",
        )

    def _kick(self) -> None:
        """Wake the pump (new work was admitted)."""
        self._work.set()

    @staticmethod
    async def _resolved(future) -> None:
        """Passively await a consultation future until it resolves.

        The future's done-callback wakes a loop future rather than
        going through ``asyncio.wrap_future``: cancelling a handler
        that awaits a wrapped future would *cancel* the backing future
        (it is never in the running state, so ``cancel()`` succeeds)
        and the service's later resolution would be silently dropped.
        """
        if future.done():
            return
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()

        def _wake() -> None:
            if not waiter.done():  # the handler may have been cancelled
                waiter.set_result(None)

        def _on_done(_future) -> None:
            try:
                loop.call_soon_threadsafe(_wake)
            except RuntimeError:
                pass  # loop already closed (shutdown race): nothing waits

        future.add_done_callback(_on_done)
        await waiter

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        try:
            while not self._hung_up:
                self._idle.add(writer)
                try:
                    request = await self._read_request(reader)
                except _HTTPError as exc:
                    try:
                        await self._write_response(
                            writer, exc.status, exc.payload(),
                            extra=exc.headers, close=True,
                        )
                    except (ConnectionError, RuntimeError):
                        pass  # hung up mid-request
                    return
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                finally:
                    self._idle.discard(writer)
                if request is None:
                    return
                method, target, headers, body = request
                try:
                    response = await self._dispatch(method, target, body)
                except _HTTPError as exc:
                    response = _Response(
                        exc.status, exc.payload(), headers=exc.headers
                    )
                except Exception as exc:
                    response = _Response(
                        500, error_payload(f"{type(exc).__name__}: {exc}")
                    )
                self.request_count += 1
                close = (
                    headers.get("connection", "").lower() == "close"
                    or response.close
                    or self._hung_up
                )
                try:
                    await self._write_response(
                        writer, response.status, response.payload,
                        extra=response.headers, close=close,
                    )
                except (ConnectionError, RuntimeError):
                    return
                if close:
                    return
        finally:
            self._connections -= 1
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One HTTP/1.1 request → ``(method, target, headers, body)``.

        Returns ``None`` on clean EOF between requests (keep-alive
        close); raises :class:`_HTTPError` on protocol violations.
        """
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise _HTTPError(431, "request line too long") from None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _HTTPError(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                raise _HTTPError(431, "header line too long") from None
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= 100:
                raise _HTTPError(431, "too many headers")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _HTTPError(400, "malformed header")
            headers[name.strip().lower()] = value.strip()
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _HTTPError(501, "chunked bodies not supported")
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                size = int(length)
            except ValueError:
                raise _HTTPError(400, "bad content-length") from None
            if size < 0:
                raise _HTTPError(400, "bad content-length")
            if size > MAX_BODY_BYTES:
                raise _HTTPError(413, "body too large")
            body = await reader.readexactly(size)
        return method, target, headers, body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, payload: dict,
                              extra: dict[str, str] | None = None,
                              close: bool = False) -> None:
        blob = json.dumps(
            payload, separators=(",", ":"), sort_keys=True,
            default=exact_default,
        ).encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(blob)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + blob
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(self, method: str, target: str,
                        body: bytes) -> _Response:
        split = urlsplit(target)
        path = split.path
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        if path == "/healthz":
            self._need(method, "GET")
            return self._healthz()
        if path == "/readyz":
            self._need(method, "GET")
            return self._readyz()
        if path == "/stats":
            self._need(method, "GET")
            return _Response(200, self._stats_payload())
        if path == "/audit":
            self._need(method, "GET")
            return self._audit(query)
        if path == "/consult":
            self._need(method, "POST")
            return await self._consult(body)
        if path == "/admin/snapshot":
            self._need(method, "POST")
            return await self._admin_snapshot()
        if path == "/":
            self._need(method, "GET")
            return _Response(200, {
                "service": "repro.server",
                "endpoints": [
                    "POST /consult", "GET /audit", "GET /stats",
                    "GET /healthz", "GET /readyz", "POST /admin/snapshot",
                ],
            })
        raise _HTTPError(404, f"no route for {path}")

    @staticmethod
    def _need(method: str, expected: str) -> None:
        if method != expected:
            raise _HTTPError(
                405, f"method {method} not allowed",
                headers={"Allow": expected},
            )

    def _json_body(self, body: bytes) -> dict:
        if not body:
            return {}
        try:
            params = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise _HTTPError(400, "body is not valid JSON") from None
        if not isinstance(params, dict):
            raise _HTTPError(400, "body must be a JSON object")
        return params

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _healthz(self) -> _Response:
        """Liveness: 200 whenever the loop answers, even while draining
        for shutdown — restart-deciders (a process supervisor) belong
        here, traffic-routers on :meth:`_readyz`."""
        return _Response(200, {
            "status": "stopping" if self._closing else "ok",
            "ready": not self._closing,
            "pending": self._service.pending_count,
            "completed": self._service.completed_count,
        })

    def _readyz(self) -> _Response:
        """Readiness: 503 + Retry-After during the shutdown drain; 200
        only while admissions are being accepted.  There is no
        starting state: the service recovered before the socket bound."""
        payload = {
            "status": "stopping" if self._closing else "ready",
            "ready": not self._closing,
            "pending": self._service.pending_count,
        }
        if self._closing:
            return _Response(503, payload, headers={"Retry-After": "2"})
        return _Response(200, payload)

    def _stats_payload(self) -> dict:
        loop_time = None
        if self._loop is not None and self._started_at is not None:
            loop_time = self._loop.time() - self._started_at
        cache = self._service.cache
        persister = self._service.persister
        payload = {
            "server": {
                "host": self.host,
                "port": self.port,
                "requests": self.request_count,
                "open_connections": self._connections,
                "uptime_s": loop_time,
                "closing": self._closing,
            },
            "service": {
                "pending": self._service.pending_count,
                "completed": self._service.completed_count,
            },
            "failures": self._failure_stats(),
            "cache": cache.stats.as_dict(),
            "persistence": None if persister is None else persister.stats(),
            "gc": {
                # The cyclic collector's lifetime counts per generation
                # (youngest first: collections, collected,
                # uncollectable) and the objects gc.freeze() moved out
                # of its reach.
                "generations": gc.get_stats(),
                "frozen": gc.get_freeze_count(),
            },
        }
        return jsonable(payload)

    def _failure_stats(self) -> dict:
        """The supervision/degradation block of ``/stats``."""
        counters = getattr(self._service, "failure_counters", None)
        failures: dict[str, Any] = dict(counters()) if counters else {}
        failures["pump_failures"] = dict(self.pump_failures)
        persister = self._service.persister
        if persister is not None:
            failures["durability_degraded"] = persister.degraded
            failures["durability_degraded_reason"] = persister.degraded_reason
            failures["flush_failures"] = persister.flush_failures
            failures["snapshot_failures"] = persister.snapshot_failures
        return failures

    def _audit(self, query: dict[str, str]) -> _Response:
        since = limit = None
        try:
            if "since" in query:
                since = int(query["since"])
            if "limit" in query:
                limit = int(query["limit"])
        except ValueError:
            raise _HTTPError(400, "since and limit must be integers") \
                from None
        if limit is not None and limit < 0:
            raise _HTTPError(400, "limit must be non-negative")
        records = self._service.authority.audit.records
        return _Response(
            200, audit_payload(
                records, event=query.get("event"), since=since, limit=limit
            ),
        )

    def _refuse_if_stopping(self) -> None:
        if self._closing:
            raise _HTTPError(
                503, "server is shutting down",
                headers={"Retry-After": "2"}, retry_after_s=2.0,
            )

    @staticmethod
    def _deadline_param(params: dict) -> float | None:
        """Parse an optional ``deadline_ms`` body field (None = none).

        ``json.loads`` accepts ``NaN`` and ``Infinity``; the range check
        refuses both.
        """
        raw = params.get("deadline_ms")
        if raw is None:
            return None
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
                or not 0 < raw <= MAX_DEADLINE_MS:
            raise _HTTPError(
                400, "deadline_ms must be positive and at most "
                f"{MAX_DEADLINE_MS:.0f}"
            )
        return float(raw)

    def _submit(self, params: dict):
        """Validate a ``/consult`` body and admit its one submission."""
        agent = params.get("agent")
        privacy = params.get("privacy", "open")
        if not isinstance(agent, str):
            raise _HTTPError(400, "agent must be a string")
        if privacy not in PRIVACY_MODES:
            raise _HTTPError(
                400, f"privacy must be one of {', '.join(PRIVACY_MODES)}"
            )
        deadline_ms = self._deadline_param(params)
        game_id = params.get("game_id")
        if not isinstance(game_id, str):
            raise _HTTPError(400, "game_id must be a string")
        try:
            future = self._service.submit(
                agent, game_id, privacy=privacy, deadline_ms=deadline_ms
            )
        except AdmissionError as exc:
            raise _HTTPError(
                429, str(exc), headers={"Retry-After": "1"},
                retry_after_s=1.0, pending=self._service.pending_count,
            ) from None
        except ProtocolError as exc:
            raise _HTTPError(404, str(exc)) from None
        self._kick()
        return future

    async def _consult(self, body: bytes) -> _Response:
        """Admit one consultation and answer once it resolves: 200 with
        the outcome, 500 with a failed session's error body, or 504
        with a ``Retry-After`` hint for a
        :class:`~repro.errors.DeadlineExceeded` outcome (the work was
        abandoned, not the server — a fresh submission with a bigger
        budget may well succeed)."""
        self._refuse_if_stopping()
        future = self._submit(self._json_body(body))
        await self._resolved(future)
        exc = future.inner.exception()
        if exc is None:
            return _Response(
                200, outcome_payload(future, future.peek_outcome())
            )
        if isinstance(exc, DeadlineExceeded):
            return _Response(504, failure_payload(future, exc),
                             headers={"Retry-After": "1"})
        return _Response(500, failure_payload(future, exc))

    async def _admin_snapshot(self) -> _Response:
        persister = self._service.persister
        if persister is None:
            raise _HTTPError(400, "no write-behind persister configured")
        entries = await asyncio.get_running_loop().run_in_executor(
            None, persister.snapshot
        )
        return _Response(200, {
            "action": "snapshot", "entries": entries,
            "persistence": jsonable(persister.stats()),
        })


class ThreadedServer:
    """Run an :class:`AuthorityHTTPServer` on its own thread and loop.

    The embedding helper for hosts that are not themselves async —
    tests, benches, the example script: ``start()`` returns once the
    socket is bound (``.port`` is the real port), ``stop()`` runs the
    full graceful-shutdown sequence and joins the thread.  Context
    manager for both.
    """

    def __init__(self, service, **server_kwargs):
        self.server = AuthorityHTTPServer(service, **server_kwargs)
        self._thread = threading.Thread(
            target=self._main, name="repro-http-server", daemon=True
        )
        self._started = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def start(self, timeout: float = 30.0) -> "ThreadedServer":
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("HTTP server did not start in time")
        if self._error is not None:
            raise RuntimeError("HTTP server failed to start") \
                from self._error
        return self

    def stop(self, timeout: float = 30.0) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout)

    def _main(self) -> None:
        try:
            asyncio.run(self._arun())
        except BaseException as exc:  # surfaced by start()/stop()
            self._error = exc
        finally:
            self._started.set()

    async def _arun(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._started.set()
        await self.server.serve_forever(install_signal_handlers=False)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False
