"""The authority as a service: admission queue, futures, inline drain.

The paper's authority is an always-on loop — agents submit games,
inventors advise, verifiers certify — not a batch script.
:class:`AuthorityService` is that loop as an API:

* :meth:`submit` / :meth:`submit_many` admit consultations and return
  :class:`~repro.service.futures.ConsultationFuture`\\ s immediately;
* the admission queue drains onto the inventors' long-lived solver
  state — the cross-run :class:`~repro.service.cache.SolveCache` the
  service attaches at registration — so repeat and near-repeat games
  skip whole screens;
* the draining thread runs each consultation start to finish: solve
  (cache lookup, screening, advice), then verify and conclude inline.
  Certification costs a small fraction of a solve, so there is nothing
  to gain from moving it off the draining thread, and it stays exact
  (Fractions/int-lattice only) and in this process;
* admission applies **backpressure** past ``max_pending``
  (:class:`~repro.errors.AdmissionError`, or blocking, per policy);
* ``asyncio`` callers get the same core via :meth:`async_consult`,
  :meth:`async_consult_many`, :meth:`aclose` and ``async with``.

Draining is demand-driven and thread-safe: any caller blocking on a
future's ``result()`` pumps the queue (one drainer at a time; others
wait and find their futures resolved).  There is deliberately no
background thread — "async" here means *admission is decoupled from
execution*, which composes with any host: a sync caller, an asyncio
loop, or a real server front-end.

Audit integration: once a consultation's future resolves — accepted,
rejected or failed — the service appends exactly one
``service.consultation.completed`` record for it, with the agent as
actor.  It carries the game id and privacy mode, the advice's
provenance (inventor, concept, proof format, backend, cache state,
``solve_ms``), every vote as ``(verifier, accepted, reason)``, the
majority decision, ``verify_ms``, adoption, the queue depth at
admission and the end-to-end latency — or ``failed`` and the error
type.  One record thus says both where a consultation's time went
(search against verify against queue) and why its verdict was reached;
drain-level figures such as hit rates and latency percentiles are
aggregates over these records.  The session's blame records precede
it.  Shed or blocked admissions append
``service.admission.backpressure``, and lapsed deadlines
``service.deadline.exceeded``.  Batch submissions keep emitting the
same per-inventor ``consultation.batch`` records (and
``prepare_games`` pre-solve) that ``consult_many`` always did.
"""

from __future__ import annotations

import asyncio
import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.core.audit_events import (
    EVENT_BACKPRESSURE,
    EVENT_BATCH_CONSULTATION,
    EVENT_CACHE_LOAD_REJECTED,
    EVENT_CACHE_LOADED,
    EVENT_CACHE_SAVED,
    EVENT_CALLBACK_FAILED,
    EVENT_DEADLINE_EXCEEDED,
    EVENT_SERVICE_COMPLETED,
)
from repro.core.session import ConsultationSession, SessionOutcome
from repro.errors import AdmissionError, DeadlineExceeded, ProtocolError
from repro.games.base import Game
from repro.service import faults
from repro.service.cache import SolveCache
from repro.service.futures import ConsultationFuture

#: The longest deadline a submission may carry: the drain waits out a
#: deadlined solve with one timed wait, which refuses longer timeouts.
MAX_DEADLINE_MS = threading.TIMEOUT_MAX * 1000.0


@dataclass
class _Submission:
    """One admitted consultation request.

    ``deadline`` is the absolute ``time.monotonic()`` instant by which
    the consultation must resolve (``None`` = unbounded); past it the
    drain resolves the future to
    :class:`~repro.errors.DeadlineExceeded` instead of working on it.
    """

    agent: str
    game_id: str
    privacy: str
    future: ConsultationFuture
    deadline: float | None = None


@dataclass
class _Batch:
    """A unit of admission: one or many submissions, drained atomically.

    ``batched`` marks batches admitted through :meth:`submit_many`;
    they get the ``consultation.batch`` audit record and the
    ``prepare_games`` pre-solve, exactly like ``consult_many`` —
    single submissions skip both, exactly like ``consult``.
    """

    submissions: list = field(default_factory=list)
    batched: bool = False


class _DeadlineRunner:
    """Bounded-wait execution of solves that carry a deadline.

    Python cannot interrupt a compute-bound solve, so a deadline is
    enforced by *abandonment*: the solve runs on a reusable worker
    thread while the drain waits at most ``timeout`` seconds; on
    expiry the drain walks away (resolving the consultation to
    :class:`~repro.errors.DeadlineExceeded`) and the worker finishes
    in the background, discards its result into the already-resolved
    future, and rejoins the idle pool.  Submissions *without* a
    deadline never come here — they take the exact inline path the
    service always had, so the no-deadline stream stays bit-identical.

    Workers are recycled (checkout from an idle stack, spawn when
    empty, cap the idle stack at :data:`_MAX_IDLE`) so a deadline-heavy
    stream pays thread startup rarely, and an abandoned worker — still
    busy past its drain — simply is not in the idle stack until its
    task completes.
    """

    _MAX_IDLE = 4

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: list[_DeadlineWorker] = []
        self._spawned = 0
        self._closed = False

    def execute(self, fn, timeout: float):
        """Run ``fn()`` with a wall-clock bound; (done, result, error).

        ``done`` False means the budget lapsed and the worker was
        abandoned (it keeps running; its result is discarded).
        """
        with self._lock:
            if self._closed:
                raise ProtocolError("deadline runner is closed")
            worker = self._idle.pop() if self._idle else None
            if worker is None:
                self._spawned += 1
                worker = _DeadlineWorker(self, self._spawned)
        return worker.run(fn, timeout)

    def _recycle(self, worker: "_DeadlineWorker") -> bool:
        """Return a finished worker to the idle stack; False = retire."""
        with self._lock:
            if self._closed or len(self._idle) >= self._MAX_IDLE:
                return False
            self._idle.append(worker)
            return True

    def close(self) -> None:
        """Retire the idle workers (abandoned ones die on completion)."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.retire()


class _DeadlineTask:
    """One solve handed to a deadline worker.

    The ``claim`` lock arbitrates the timeout race atomically: exactly
    one side — the waiting drain (completion in time) or the worker
    (completion after abandonment) — owns the post-task handoff, so a
    solve finishing in the same instant the wait expires is still
    delivered, never dropped *and* recycled twice.
    """

    __slots__ = ("fn", "done", "result", "error", "claim", "abandoned")

    def __init__(self, fn):
        self.fn = fn
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None
        self.claim = threading.Lock()
        self.abandoned = False


class _DeadlineWorker:
    """One reusable thread of the :class:`_DeadlineRunner`."""

    def __init__(self, runner: _DeadlineRunner, index: int):
        self._runner = runner
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(
            target=self._loop,
            name=f"repro-deadline-{index}",
            daemon=True,
        )
        self._thread.start()

    def run(self, fn, timeout: float):
        """(done, result, error); done False = abandoned past budget."""
        task = _DeadlineTask(fn)
        self._tasks.put(task)
        if not task.done.wait(timeout):
            with task.claim:
                if not task.done.is_set():
                    # The worker is still solving: walk away.  It will
                    # see ``abandoned`` and recycle itself on finish.
                    task.abandoned = True
                    return False, None, None
            # Finished in the same instant the wait expired — a result
            # we already paid for; deliver it.
        if not self._runner._recycle(self):
            self.retire()
        return True, task.result, task.error

    def retire(self) -> None:
        self._tasks.put(None)

    def _loop(self) -> None:
        while True:
            task = self._tasks.get()
            if task is None:
                return
            try:
                task.result = task.fn()
            except BaseException as exc:
                task.error = exc
            with task.claim:
                task.done.set()
                abandoned = task.abandoned
            if abandoned:
                # Nobody is waiting; the result is discarded.  Rejoin
                # the idle pool (or retire when it is full/closed).
                if not self._runner._recycle(self):
                    return


def _advice_facts(advice) -> dict:
    """The provenance of a delivered advice, for the completed record."""
    return {
        "inventor": advice.inventor,
        "concept": advice.concept.value,
        "proof_format": advice.proof_format.value,
        "backend": advice.backend,
        "cache": advice.cache,
        "solve_ms": advice.solve_ms,
    }


#: Backpressure policies for ``AuthorityService(max_pending=...)``.
BACKPRESSURE_RAISE = "raise"
BACKPRESSURE_BLOCK = "block"


class AuthorityService:
    """Async, future-based consultation facade over one authority.

    The draining thread verifies each consultation inline, so the
    audit record order matches the synchronous shims.
    ``solve_cache`` supplies a cross-run
    :class:`~repro.service.cache.SolveCache` (one is created when
    omitted); ``attach_cache=False`` leaves the inventors' caching
    exactly as constructed.

    ``cache_path`` makes the service's warm state persistent: a
    :class:`~repro.service.cache.SolveCache` bound to that file is
    created, warm-loaded immediately (a rejected — tampered, truncated
    or stale-schema — file starts the cache empty and appends a
    ``cache.load.rejected`` audit record), and saved back atomically on
    :meth:`close` / :meth:`aclose`.  Pass either ``cache_path`` or an
    explicit ``solve_cache``, not both — a caller-owned cache manages
    its own persistence.

    ``max_pending`` arms admission backpressure at a fixed high-water
    mark with the ``backpressure`` policy (``"raise"`` refuses with
    :class:`~repro.errors.AdmissionError`; ``"block"`` waits — up to
    ``block_timeout`` seconds, forever when ``None`` — until the
    pending count falls to ``max_pending // 2``; blocking needs some
    *other* thread draining, e.g. the load harness's).

    ``default_deadline_ms`` arms per-request deadlines service-wide:
    every submission without an explicit ``deadline_ms`` inherits it.
    An expired submission resolves to
    :class:`~repro.errors.DeadlineExceeded` (audited
    ``service.deadline.exceeded``) — immediately when the deadline
    lapsed in the queue, or after the drain abandons a solve that
    outran its budget on a watchdog thread — and the drain moves on,
    so a wedged solve cannot head-of-line-block the service.
    Submissions without any deadline take the exact inline solve path
    the service always had.
    """

    def __init__(self, authority, solve_cache: SolveCache | None = None,
                 attach_cache: bool = True,
                 cache_path=None,
                 max_pending: int | None = None,
                 backpressure: str = BACKPRESSURE_RAISE,
                 block_timeout: float | None = None,
                 default_deadline_ms: float | None = None):
        if default_deadline_ms is not None \
                and not 0 < default_deadline_ms <= MAX_DEADLINE_MS:
            # The chained comparison refuses NaN as well.
            raise ProtocolError(
                "default_deadline_ms must be positive and at most "
                f"{MAX_DEADLINE_MS:.0f}"
            )
        if solve_cache is not None and cache_path is not None:
            raise ProtocolError(
                "pass either solve_cache or cache_path, not both"
            )
        if backpressure not in (BACKPRESSURE_RAISE, BACKPRESSURE_BLOCK):
            raise ProtocolError(
                f"unknown backpressure policy {backpressure!r}"
            )
        if max_pending is not None and max_pending < 1:
            raise ProtocolError("max_pending must be positive")
        if block_timeout is not None and not 0 <= block_timeout < math.inf:
            # NaN and infinity would reach Condition.wait and raise
            # there, inside an admission; None is the wait-forever value.
            raise ProtocolError(
                "block_timeout must be a finite non-negative number"
            )
        self._authority = authority
        # The service persists (and audits) only a cache it created;
        # a caller-owned cache manages its own persistence.
        self._cache_owned = solve_cache is None
        if solve_cache is not None:
            self.cache = solve_cache
        else:
            self.cache = SolveCache(path=cache_path)
        self._attach = attach_cache
        self._queue: deque[_Batch] = deque()
        self._admission_lock = threading.Lock()
        self._headroom = threading.Condition(self._admission_lock)
        self._pending_total = 0  # O(1) mirror of the queued submissions
        self._drain_lock = threading.Lock()
        self._submission_counter = 0
        # Resolved-future counter: bumped by each future at resolution
        # (drain thread or deadline worker), so it gets its own lock
        # rather than riding the admission or drain lock.
        self._stats_lock = threading.Lock()
        self._completed = 0
        self._drain_listeners: list = []
        #: Service-wide wall-clock budget applied to submissions that
        #: carry no deadline of their own (None = unbounded).
        self.default_deadline_ms = default_deadline_ms
        self._deadline_runner: _DeadlineRunner | None = None
        # Failure telemetry (surfaced via failure_counters / GET /stats).
        self._deadlines_exceeded = 0
        self._high_water = max_pending
        self._low_water = None if max_pending is None else max_pending // 2
        self._backpressure = backpressure
        self._block_timeout = block_timeout
        self._attach_cache()
        report = self.cache.last_load_report
        if cache_path is not None and report is not None and report.accepted:
            self._authority.audit.record(
                "-", self._authority.AUTHORITY_NAME, EVENT_CACHE_LOADED,
                **report.as_dict(),
            )
        self._flush_cache_rejections()

    @property
    def authority(self):
        """The underlying :class:`~repro.core.authority.RationalityAuthority`.

        Hosts above the service (the HTTP front-end) need the audit log
        and the registered parties without growing parallel plumbing.
        """
        return self._authority

    def flush_cache_rejections(self) -> None:
        """Publish queued cache load/serve rejections into the audit log.

        Normally the drain loop does this; a host that loads warm state
        outside a drain (journal replay at server startup) calls it
        directly so tampered frames are audited before the first drain.
        """
        self._flush_cache_rejections()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(self, agent_name: str, game_id: str,
               privacy: str = "open",
               deadline_ms: float | None = None) -> ConsultationFuture:
        """Admit one consultation; returns its future immediately.

        The request is validated eagerly (unknown agents and games are
        rejected here, not at drain time); the hard work happens when
        the queue drains.  Past the backpressure high-water mark the
        admission is refused or blocked per the configured policy.
        ``deadline_ms`` bounds this consultation's wall clock (falling
        back to the service default); past it the future resolves to
        :class:`~repro.errors.DeadlineExceeded`.
        """
        (future,) = self._admit(agent_name, [game_id], privacy,
                                batched=False, deadline_ms=deadline_ms)
        return future

    def submit_many(self, agent_name: str, game_ids, privacy: str = "open",
                    deadline_ms: float | None = None,
                    ) -> tuple[ConsultationFuture, ...]:
        """Admit a stream of consultations as one atomic batch.

        The batch drains exactly like :meth:`RationalityAuthority
        .consult_many` executed: grouped by owning inventor, one
        ``consultation.batch`` audit record and one
        ``prepare_games`` pre-solve per group, then the individual
        sessions in submission order.  Backpressure treats the batch
        atomically: it is admitted whole or refused whole.
        ``deadline_ms`` applies per submission, not to the batch as a
        whole.
        """
        if not game_ids:
            return ()
        return self._admit(agent_name, list(game_ids), privacy,
                           batched=True, deadline_ms=deadline_ms)

    def _admit(self, agent_name: str, game_ids, privacy: str,
               batched: bool,
               deadline_ms: float | None = None,
               ) -> tuple[ConsultationFuture, ...]:
        authority = self._authority
        authority.agent(agent_name)  # raises on unknown agents
        for game_id in game_ids:
            authority.inventor_of(game_id)  # raises on unknown games
        if deadline_ms is not None and not 0 < deadline_ms <= MAX_DEADLINE_MS:
            raise ProtocolError(
                f"deadline_ms must be positive and at most {MAX_DEADLINE_MS:.0f}"
            )
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        deadline = (
            None if deadline_ms is None
            else time.monotonic() + deadline_ms / 1000.0
        )
        batch = _Batch(batched=batched)
        shed = None
        blocked = None
        with self._headroom:
            if (
                self._high_water is not None
                and self._pending_total + len(game_ids) > self._high_water
            ):
                if self._backpressure == BACKPRESSURE_RAISE:
                    shed = self._backpressure_details(
                        "rejected", agent_name, game_ids
                    )
                else:
                    blocked = self._await_headroom(agent_name, game_ids)
                    if blocked is None:  # timed out
                        shed = self._backpressure_details(
                            "timed-out", agent_name, game_ids
                        )
            if shed is None:
                depth = self._pending_total
                futures = []
                for game_id in game_ids:
                    self._submission_counter += 1
                    future = ConsultationFuture(
                        submission_id=self._submission_counter,
                        agent=agent_name,
                        game_id=game_id,
                        service=self,
                        queue_depth=depth + len(futures),
                        deadline_ms=deadline_ms,
                    )
                    batch.submissions.append(
                        _Submission(agent_name, game_id, privacy, future,
                                    deadline=deadline)
                    )
                    futures.append(future)
                self._queue.append(batch)
                self._pending_total += len(batch.submissions)
        # Audit outside the admission lock: the record is bookkeeping,
        # not part of the atomic admission decision.
        if shed is not None:
            self._authority.audit.record(
                "-", self._authority.AUTHORITY_NAME, EVENT_BACKPRESSURE,
                **shed,
            )
            raise AdmissionError(
                f"admission queue at high-water mark "
                f"({shed['pending']}/{self._high_water} pending): "
                f"{shed['action']}"
            )
        if blocked is not None and blocked > 0.0:
            details = self._backpressure_details(
                "blocked", agent_name, game_ids
            )
            details["waited_ms"] = blocked * 1000.0
            self._authority.audit.record(
                "-", self._authority.AUTHORITY_NAME, EVENT_BACKPRESSURE,
                **details,
            )
        return tuple(futures)

    def _backpressure_details(self, action: str, agent_name: str,
                              game_ids) -> dict:
        return {
            "action": action,
            "agent": agent_name,
            "requested": len(game_ids),
            "pending": self._pending_total,
            "high_water": self._high_water,
            "policy": self._backpressure,
        }

    def _await_headroom(self, agent_name: str, game_ids) -> float | None:
        """Block (holding the condition) until the queue falls to the
        low-water mark; returns seconds waited, or ``None`` on timeout.

        Only another thread's drain can create headroom, so blocking
        admission is for multi-threaded hosts (the load harness, a
        server front-end) — a single-threaded submit-then-wait caller
        should use the ``"raise"`` policy or a ``block_timeout``.
        """
        release = self._low_water if self._low_water is not None else 0
        deadline = (
            None if self._block_timeout is None
            else time.monotonic() + self._block_timeout
        )
        started = time.monotonic()
        while self._pending_total > release:
            if deadline is None:
                self._headroom.wait()
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._headroom.wait(remaining):
                    if self._pending_total <= release:
                        break
                    return None
        return time.monotonic() - started

    def _note_drained_submissions(self, count: int) -> None:
        """O(1) pending bookkeeping for a batch leaving the queue."""
        self._pending_total -= count  # repro: allow[R5] -- both drain sites call this holding _headroom (the admission lock)
        if (
            self._high_water is None
            or self._pending_total <= (self._low_water or 0)
        ):
            self._headroom.notify_all()

    @property
    def pending_count(self) -> int:
        """Submissions admitted but not yet drained (O(1): a running
        counter, not a queue scan)."""
        with self._admission_lock:
            return self._pending_total

    @property
    def completed_count(self) -> int:
        """Futures resolved so far (advice, failure, or deadline).

        Counted at resolution time — the moment a caller can observe
        the result — not at the end of the drain that produced it, so
        ``GET /stats`` issued right after a response already sees it.
        """
        with self._stats_lock:
            return self._completed

    def _note_completed(self) -> None:
        with self._stats_lock:
            self._completed += 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def drain(self, max_batches: int | None = None) -> int:
        """Process the admission queue to empty; returns completions.

        One drainer runs at a time; concurrent callers block on the
        lock and, once inside, drain whatever was admitted meanwhile
        (usually nothing — their futures were resolved by the first
        drainer).  Every future admitted before the call is resolved
        when it returns.

        ``max_batches`` bounds how many admission batches this call
        pops (``None`` drains to empty).  An unbounded drain keeps
        popping batches admitted *while it runs*, so under continuous
        load one "drain" can stretch over many submissions — fine for
        throughput, but it stretches the write-behind flush interval
        with it.  The HTTP server's pump drains one batch at a time so
        a crash can lose at most one batch of journal frames.
        """
        with self._drain_lock:
            self._attach_cache()  # pick up inventors registered since
            depth_at_start = self.pending_count
            if depth_at_start == 0:
                return 0
            processed: list[_Submission] = []
            popped = 0
            try:
                while max_batches is None or popped < max_batches:
                    with self._headroom:
                        if not self._queue:
                            break
                        batch = self._queue.popleft()
                        self._note_drained_submissions(len(batch.submissions))
                    popped += 1
                    self._process_batch(batch, processed)
            except BaseException as exc:
                # KeyboardInterrupt / SystemExit mid-solve: abort the
                # drain immediately (the synchronous shims propagate it
                # right away, as they always did), but fail every
                # not-yet-resolved future first so nothing waits forever
                # on work that will never run.
                self._abort_outstanding(exc, processed)
                raise
            # Completions are counted by the futures themselves as they
            # resolve (see _note_completed) — nothing to tally here.
            self._flush_cache_rejections()
            self._notify_drained(len(processed), depth_at_start)
            return len(processed)

    # ------------------------------------------------------------------
    # Drain listeners (the write-behind persistence seam)
    # ------------------------------------------------------------------

    def add_drain_listener(self, listener) -> None:
        """Call ``listener(summary)`` at the end of every non-empty drain.

        The listener runs on the draining thread at a quiescent point —
        every admitted future resolved — with a small summary dict
        (``submissions``, ``queue_depth``).  This is the hook a
        write-behind persister uses to flush journal frames every N
        drains and cut periodic snapshots without racing in-flight
        solves: all cache writes happen *during* drains, so at this
        point the dirty queue is stable.  A raising listener propagates
        (durability failures — a full disk — must not be silent).
        """
        self._drain_listeners.append(listener)

    def remove_drain_listener(self, listener) -> None:
        """Detach a drain listener (no-op when not attached)."""
        try:
            self._drain_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_drained(self, submissions: int, queue_depth: int) -> None:
        summary = {"submissions": submissions, "queue_depth": queue_depth}
        for listener in tuple(self._drain_listeners):
            listener(summary)

    def _abort_outstanding(self, exc: BaseException, processed: list) -> None:
        """Fail every unresolved future this drain was responsible for."""
        for submission in processed:
            self._complete(submission, error=exc)
        while True:
            with self._headroom:
                if not self._queue:
                    return
                batch = self._queue.popleft()
                self._note_drained_submissions(len(batch.submissions))
            for submission in batch.submissions:
                self._complete(submission, error=exc)

    def _active_caches(self) -> list:
        """Every solve cache this drain's solves can actually touch.

        Usually just :attr:`cache`, but an inventor constructed with —
        or previously attached to — a different cache keeps it, and
        *that* cache's rejections must reach the audit log too.
        """
        caches = {id(self.cache): self.cache}
        for inventor in self._authority.inventors:
            cache = getattr(inventor, "solve_cache", None)
            if cache is not None:
                caches.setdefault(id(cache), cache)
        return list(caches.values())

    def _flush_cache_rejections(self) -> None:
        """Turn queued cache load/serve rejections into audit records.

        Covers every active cache (an inventor may carry its own
        persistent cache): each detail dict a cache refused to serve —
        a whole rejected file or a loaded entry that failed the Lemma-1
        gate at first serve — becomes one ``cache.load.rejected``
        record, so tampered warm state is visible in the audit trail,
        not just absent from the hit counters.
        """
        for cache in self._active_caches():
            drain = getattr(cache, "drain_rejections", None)
            if drain is None:
                continue
            for details in drain():
                self._authority.audit.record(
                    "-", self._authority.AUTHORITY_NAME,
                    EVENT_CACHE_LOAD_REJECTED, **details,
                )

    def failure_counters(self) -> dict:
        """Lifetime supervision counters (the ``/stats`` failure block)."""
        return {"deadlines_exceeded": self._deadlines_exceeded}

    def _record_callback_failure(self, future, exc: BaseException) -> None:
        """Audit a raising done-callback (see ConsultationFuture)."""
        self._authority.audit.record(
            "-", self._authority.AUTHORITY_NAME, EVENT_CALLBACK_FAILED,
            submission_id=future.submission_id,
            game_id=future.game_id,
            agent=future.agent,
            error=repr(exc),
        )

    # ------------------------------------------------------------------
    # The drain stages: prepare -> solve -> verify/conclude
    # ------------------------------------------------------------------

    def _process_batch(self, batch: _Batch, processed: list) -> None:
        """Run one admitted batch through the drain stages, in order.

        Stage 0 (batched admissions only): the per-inventor
        ``prepare_games`` pre-solve.  Stage 1: open the session and
        request advice — the inventor's cache lookup and (on a miss)
        its screening/search happen here.  Stage 2: verify/conclude.
        All three run on the draining thread, except a deadlined
        solve, which runs on a worker.  The session is opened first, on
        the draining thread, so a solve that raises still leaves its
        session id on the failed record.
        """
        if batch.batched and not self._stage_prepare(batch, processed):
            return
        for submission in batch.submissions:
            processed.append(submission)
            if self._expired(submission):
                self._deadline_fail(submission, phase="queued")
                continue
            session = None
            try:
                session = self._authority.open_session(
                    submission.agent, submission.game_id
                )
                if submission.deadline is None:
                    self._stage_solve(submission, session)
                elif not self._stage_solve_deadlined(submission, session):
                    continue  # abandoned past its budget
            except Exception as exc:
                self._complete(submission, session=session, error=exc)
                continue
            if self._expired(submission):
                # Solved, but past the promise: the caller has already
                # been told 504-land — do not spend verify time on it.
                self._deadline_fail(submission, phase="solved",
                                    session=session)
                continue
            self._verify_and_conclude(session, submission)

    @staticmethod
    def _expired(submission: _Submission) -> bool:
        return (
            submission.deadline is not None
            and time.monotonic() >= submission.deadline
        )

    def _deadline_fail(self, submission: _Submission, phase: str,
                       session: ConsultationSession | None = None) -> None:
        """Resolve an expired submission to DeadlineExceeded; audit."""
        budget = submission.future.deadline_ms
        self._complete(submission, session=session, error=DeadlineExceeded(
            f"consultation for {submission.game_id!r} exceeded its "
            f"{budget:g} ms deadline ({phase})",
            deadline_ms=budget,
        ))
        self._deadlines_exceeded += 1
        self._authority.audit.record(
            "-", self._authority.AUTHORITY_NAME, EVENT_DEADLINE_EXCEEDED,
            game_id=submission.game_id,
            agent=submission.agent,
            deadline_ms=budget,
            phase=phase,
        )

    def _stage_solve_deadlined(self, submission: _Submission,
                               session: ConsultationSession) -> bool:
        """Stage 1 under a wall-clock budget (watchdog thread).

        Returns True once ``session`` holds its advice, False when the
        solve outran its budget and was abandoned (the future is already
        resolved to :class:`~repro.errors.DeadlineExceeded`), or raises
        what the solve raised.  The abandoned solve keeps running on its
        worker thread and discards its result into the resolved future.
        """
        remaining = submission.deadline - time.monotonic()
        if remaining <= 0:
            self._deadline_fail(submission, phase="queued", session=session)
            return False
        if self._deadline_runner is None:
            self._deadline_runner = _DeadlineRunner()
        done, __, error = self._deadline_runner.execute(
            lambda: self._stage_solve(submission, session), remaining
        )
        if not done:
            self._deadline_fail(submission, phase="solve")
            return False
        if error is not None:
            raise error
        return True

    def _stage_prepare(self, batch: _Batch, processed: list) -> bool:
        """Stage 0: the batched pre-solve (``consult_many`` semantics).

        Returns False — with every future in the batch failed — when
        the pre-solve raised; other batches in the queue are
        unaffected.  (BaseException — a caller's Ctrl-C — aborts the
        whole drain instead, exactly as before.)
        """
        authority = self._authority
        by_inventor: dict[str, list[str]] = {}
        for submission in batch.submissions:
            inventor = authority.inventor_of(submission.game_id)
            by_inventor.setdefault(inventor.name, []).append(
                submission.game_id
            )
        agent_name = batch.submissions[0].agent
        try:
            for inventor_name, ids in by_inventor.items():
                inventor = authority.inventor_named(inventor_name)
                distinct: dict[str, Game] = {}
                for game_id in ids:
                    distinct.setdefault(game_id, authority.game(game_id))
                authority.audit.record(
                    "-", authority.AUTHORITY_NAME, EVENT_BATCH_CONSULTATION,
                    inventor=inventor_name,
                    games=sorted(distinct),
                    agent=agent_name,
                )
                inventor.prepare_games(list(distinct.items()))
        except Exception as exc:
            for submission in batch.submissions:
                self._complete(submission, error=exc)
                processed.append(submission)
            return False
        return True

    def _stage_solve(self, submission: _Submission,
                     session: ConsultationSession) -> None:
        """Stage 1: advice for the opened ``session`` (cache lookup /
        search)."""
        faults.check("solve")
        inventor = self._authority.inventor_of(submission.game_id)
        session.request_advice(inventor, privacy=submission.privacy)

    def _verify_and_conclude(self, session: ConsultationSession,
                             submission: _Submission) -> None:
        """Stage 2: verify, conclude, resolve, audit."""
        try:
            faults.check("verify.conclude")
            session.verify()
            outcome = session.conclude()
        except Exception as exc:
            self._complete(submission, session=session, error=exc)
        else:
            self._complete(submission, session=session, outcome=outcome)

    def _complete(self, submission: _Submission,
                  session: ConsultationSession | None = None,
                  outcome: SessionOutcome | None = None,
                  error: BaseException | None = None) -> None:
        """Resolve ``submission``'s future to ``outcome`` (or ``error``)
        and append its one ``service.consultation.completed`` record.

        A future that is already resolved has had its record; it is
        left alone.
        """
        future = submission.future
        if future.done():
            return
        if outcome is not None:
            future._resolve(outcome)
            advice = outcome.advice
            majority = outcome.majority
            details = {
                "game_id": submission.game_id,
                "privacy": submission.privacy,
                **_advice_facts(advice),
                "votes": [
                    (v.verifier, v.accepted, v.reason)
                    for v in majority.verdicts
                ],
                "accepted": majority.accepted,
                "verify_ms": advice.verify_ms,
                "adopted": outcome.adopted,
            }
        else:
            future._fail(error)
            details = {
                "game_id": submission.game_id,
                "privacy": submission.privacy,
            }
            if session is not None and session.advice is not None:
                details.update(_advice_facts(session.advice))
            details["failed"] = True
            details["error_type"] = type(error).__name__
        details["queue_depth"] = future.queue_depth
        details["latency_ms"] = future.latency_ms
        self._authority.audit.record(
            "-" if session is None else session.session_id,
            submission.agent, EVENT_SERVICE_COMPLETED, **details,
        )

    # ------------------------------------------------------------------
    # Cache attachment
    # ------------------------------------------------------------------

    def _attach_cache(self) -> None:
        if not self._attach:
            return
        for inventor in self._authority.inventors:
            inventor.attach_solve_cache(self.cache)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain outstanding work and release service-held resources.

        Idempotent, and — like the authority's own ``close`` — not
        final: the service stays usable and recreates its deadline
        workers lazily on the next deadlined solve.  A path-bound cache
        is persisted here (atomic replace), so a ``close``\\ d — or
        context-managed — service never forgets its warm state.
        """
        self.drain()
        runner, self._deadline_runner = self._deadline_runner, None
        if runner is not None:
            runner.close()
        if self._cache_owned and self.cache.path is not None \
                and self.cache.autosave:
            entries = self.cache.save()
            self._authority.audit.record(
                "-", self._authority.AUTHORITY_NAME, EVENT_CACHE_SAVED,
                path=self.cache.path, entries=entries,
            )

    def __enter__(self) -> "AuthorityService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # asyncio wrappers — same core, awaitable surface
    # ------------------------------------------------------------------

    async def async_consult(self, agent_name: str, game_id: str,
                            privacy: str = "open") -> SessionOutcome:
        """Awaitable consult: admit, drain off-loop, await the outcome.

        Draining runs in the event loop's default thread pool, so many
        concurrent ``async_consult`` tasks coalesce: the first drainer
        pumps everyone's submissions while the rest await resolved
        futures.
        """
        future = self.submit(agent_name, game_id, privacy=privacy)
        return await self._await_future(future)

    async def async_consult_many(self, agent_name: str, game_ids,
                                 privacy: str = "open",
                                 ) -> tuple[SessionOutcome, ...]:
        """Awaitable batch consult (one atomic batch, like submit_many)."""
        futures = self.submit_many(agent_name, game_ids, privacy=privacy)
        if not futures:
            return ()
        await self.async_drain()
        return tuple(future.result() for future in futures)

    async def async_drain(self) -> int:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.drain)

    async def _await_future(self, future: ConsultationFuture) -> SessionOutcome:
        await self.async_drain()
        return future.result()

    async def aclose(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.close)

    async def __aenter__(self) -> "AuthorityService":
        return self

    async def __aexit__(self, *exc) -> bool:
        await self.aclose()
        return False
