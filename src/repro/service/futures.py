"""Futures for the consultation service.

A :class:`ConsultationFuture` is the caller's handle on one admitted
submission: it resolves to a
:class:`~repro.core.session.SessionOutcome` (or raises the submission's
failure) and carries the service-level telemetry — queue depth at
admission and end-to-end latency — that the audit log records per
completion.

The future is backed by a :class:`concurrent.futures.Future`, so it
bridges cleanly into ``asyncio`` (``asyncio.wrap_future`` on
:attr:`inner`), thread pools and plain blocking waits.  Calling
:meth:`result` on an unresolved future *pumps the service* — the
admission queue is drained synchronously in the calling thread — so a
submit-then-result sequence never deadlocks even with no background
worker anywhere.

Done-callbacks live on the consultation future, not on the stdlib one:
a stdlib future keeps its callbacks for life, and a callback that
refers back to its future makes a reference cycle that only the cyclic
collector can free.  Here the list is run and dropped at resolution,
so a resolved future holds no cycle and its outcome dies by reference
count as soon as the last caller lets go.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time
from typing import Any, Callable


class ConsultationFuture:
    """One pending consultation: resolves to its session outcome."""

    def __init__(self, submission_id: int, agent: str, game_id: str,
                 service, queue_depth: int,
                 deadline_ms: float | None = None):
        self.submission_id = submission_id
        self.agent = agent
        self.game_id = game_id
        #: Pending submissions ahead of this one at admission time.
        self.queue_depth = queue_depth
        #: The request's wall-clock budget in milliseconds, for the
        #: wire payloads; ``None`` = none.  An expired submission
        #: resolves to :class:`~repro.errors.DeadlineExceeded`.
        self.deadline_ms = deadline_ms
        self._service = service
        self._inner: concurrent.futures.Future = concurrent.futures.Future()
        #: Done-callbacks not yet run; ``None`` once the resolving
        #: thread has taken them, after which new ones run at once.
        self._callbacks: list | None = []
        #: Reentrant: the stdlib future runs callbacks registered on
        #: :attr:`inner` while :meth:`_settle` holds it, and one of
        #: them may register a callback here.
        self._callbacks_lock = threading.RLock()
        self._submitted_at = time.perf_counter()
        #: Seconds from admission to resolution; ``None`` until resolved.
        self.latency: float | None = None

    # ------------------------------------------------------------------
    # Caller side
    # ------------------------------------------------------------------

    def done(self) -> bool:
        return self._inner.done()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved WITHOUT pumping the service; True if done.

        The passive counterpart of :meth:`result`, for callers that
        know something else is draining — the load harness's drainer
        thread, a server front-end's pump loop.  Unlike :meth:`result`,
        the ``timeout`` here really is a wall-clock bound on the whole
        wait.
        """
        done, __ = concurrent.futures.wait([self._inner], timeout=timeout)
        return bool(done)

    def result(self, timeout: float | None = None):
        """The session outcome, draining the service first if needed.

        Note on ``timeout``: an unresolved future pumps the service
        *synchronously* — the drain (solves and all) is not bounded by
        the timeout, which only limits the wait on the resolved value
        afterwards.  Callers that need a hard wall-clock bound should
        have something else pump the queue (``service.drain()`` /
        ``async_drain()``) and poll :meth:`done`, or wait on
        :attr:`inner` directly.
        """
        if not self._inner.done() and self._service is not None:
            self._service.drain()
        return self._inner.result(timeout)

    def exception(self, timeout: float | None = None):
        """Like :meth:`result` — including the timeout caveat — but
        returns the submission's exception (or None) instead of raising."""
        if not self._inner.done() and self._service is not None:
            self._service.drain()
        return self._inner.exception(timeout)

    def add_done_callback(self, fn: Callable[["ConsultationFuture"], None]) -> None:
        """Call ``fn(self)`` once resolved (immediately if already done).

        The callback runs exactly once, on whatever thread resolves the
        future (the draining thread, for the service) or, when it is
        already resolved, on the caller's — also when the registration
        races the resolution.  A raising callback is recorded as a
        ``service.callback.failed`` audit warning (or logged, for a
        service-less future): the authority's accountability story
        wants misbehaving consumers in the audit trail, not buried in
        the logging module.
        """
        with self._callbacks_lock:
            if self._callbacks is not None:
                self._callbacks.append(fn)
                return
        self._invoke(fn)

    def _invoke(self, fn) -> None:
        try:
            fn(self)
        except Exception as exc:
            service = self._service
            if service is not None:
                service._record_callback_failure(self, exc)
            else:  # pragma: no cover - no audit log to warn into
                import logging

                logging.getLogger(__name__).exception(
                    "done-callback for %r raised", self
                )

    @property
    def inner(self) -> concurrent.futures.Future:
        """The backing stdlib future (for ``asyncio.wrap_future`` et al.).

        Note that nothing resolves it until the service drains; bridge
        it only when something else is pumping the service.
        """
        return self._inner

    @property
    def latency_ms(self) -> float | None:
        return None if self.latency is None else self.latency * 1000.0

    def peek_outcome(self):
        """The resolved outcome, or ``None`` — never pumps the service.

        Telemetry accessor: the HTTP front-end and the load harness
        read resolved futures' outcomes without re-entering
        :meth:`result`'s drain path and without raising a failed
        submission's exception.
        """
        if (
            self._inner.done()
            and not self._inner.cancelled()  # exception() raises on cancelled
            and self._inner.exception() is None
        ):
            return self._inner.result()
        return None

    # ------------------------------------------------------------------
    # Service side
    # ------------------------------------------------------------------

    def _resolve(self, outcome: Any) -> None:
        if self._inner.done():
            return
        self.latency = time.perf_counter() - self._submitted_at
        self._note_completed()
        self._settle(self._inner.set_result, outcome)

    def _fail(self, exc: BaseException) -> None:
        if self._inner.done():
            return
        self.latency = time.perf_counter() - self._submitted_at
        self._note_completed()
        self._settle(self._inner.set_exception, exc)

    def _settle(self, setter, value) -> None:
        # Resolving and taking the list in one locked section hands each
        # callback to exactly one thread: registrations before it run
        # here, and a thread that sees the future done and then
        # registers finds the list gone and runs its callback itself.
        # Dropping the list breaks the callback -> future reference cycle.
        with self._callbacks_lock:
            callbacks, self._callbacks = self._callbacks, None
            setter(value)
        for fn in callbacks or ():
            self._invoke(fn)

    def _note_completed(self) -> None:
        # Count the completion at the instant the future resolves, not
        # at the end of the enclosing drain: an HTTP client that gets
        # its advice and immediately asks GET /stats must see itself
        # counted.  Counting *before* set_result keeps the counter
        # ahead of any caller the resolution unblocks.  The service
        # seam is duck-typed (BurstLinkAdviser keeps its own tallies).
        note = getattr(self._service, "_note_completed", None)
        if note is not None:
            note()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else "pending"
        return (
            f"ConsultationFuture(#{self.submission_id} {self.agent!r}/"
            f"{self.game_id!r} {state})"
        )
