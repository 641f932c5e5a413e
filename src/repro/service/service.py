"""The authority as a service: admission queue, futures, inline drain.

The paper's authority is an always-on loop — agents submit games,
inventors advise, verifiers certify — not a batch script.
:class:`AuthorityService` is that loop as an API:

* :meth:`submit` admits one consultation and returns its
  :class:`~repro.service.futures.ConsultationFuture` immediately;
* the admission queue drains onto the authority's one
  :class:`~repro.service.cache.SolveCache`, which its inventors got
  when registered and every service over the authority serves, so an
  exact repeat of a game skips the search; any other game, a
  near-repeat included, is searched cold;
* the draining thread runs each consultation start to finish: open
  the session, solve (cache lookup, screening, advice), then verify
  and conclude inline.  Certification costs a small fraction of a
  solve, so there is nothing to gain from moving it off the draining
  thread, and it stays exact (Fractions/int-lattice only) and in this
  process;
* admission past ``max_pending`` is refused with
  :class:`~repro.errors.AdmissionError`;
* with a ``state_dir`` the service owns that cache's one path to
  disk: a :class:`~repro.service.journal.WriteBehindPersister` over
  ``state_dir/journal.jsonl``, recovered before the constructor
  returns and compacted on :meth:`~AuthorityService.close`.  Every
  drain over the cache, through any service, ends with its flush.  At
  most one service journals a cache.

Draining is demand-driven and thread-safe: any caller blocking on a
future's ``result()`` pumps the queue (one drainer at a time; others
wait and find their futures resolved).  There is deliberately no
background thread — "async" here means *admission is decoupled from
execution*, which composes with any host: a sync caller, or a server
front-end that runs :meth:`AuthorityService.drain` on a thread of its
own (:mod:`repro.server`).

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
it.  Refused admissions append
``service.admission.backpressure``, and lapsed deadlines
``service.deadline.exceeded``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.core.audit_events import (
    EVENT_BACKPRESSURE,
    EVENT_CACHE_LOAD_REJECTED,
    EVENT_CACHE_LOADED,
    EVENT_CACHE_SAVED,
    EVENT_CALLBACK_FAILED,
    EVENT_DEADLINE_EXCEEDED,
    EVENT_DURABILITY_DEGRADED,
    EVENT_SERVICE_COMPLETED,
)
from repro.core.session import ConsultationSession, SessionOutcome
from repro.errors import AdmissionError, DeadlineExceeded, ProtocolError
from repro.service import faults
from repro.service.futures import ConsultationFuture
from repro.service.journal import WriteBehindPersister, state_path

#: The longest deadline a submission may carry: the drain waits out a
#: deadlined solve with one timed wait, which refuses longer timeouts.
MAX_DEADLINE_MS = threading.TIMEOUT_MAX * 1000.0

#: Abandoned deadlined solves that may still run at once.  Each keeps
#: its thread and its session until the solve returns, so at this many
#: the solver is taken as wedged: a further deadlined submission
#: resolves to DeadlineExceeded at once, without a thread.
MAX_ABANDONED_SOLVES = 4


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


class AuthorityService:
    """Async, future-based consultation facade over one authority.

    The draining thread verifies each consultation inline, so the
    audit record order matches the synchronous shim.  :attr:`cache` is
    the authority's :attr:`~repro.core.authority.RationalityAuthority
    .solve_cache`, so every service over one authority serves one warm
    state.

    ``state_dir`` makes that warm state durable: the service creates
    :attr:`persister`, a
    :class:`~repro.service.journal.WriteBehindPersister` over
    ``state_dir/journal.jsonl``, and recovers the file before the
    constructor returns (one ``cache.load.completed`` record, then a
    ``cache.load.rejected`` record per refusal — a rejected file starts
    the cache empty).  Every drain over the cache ends with the
    persister's flush, a drain of another service over the authority
    (the lazy ``authority.service``) included, and :meth:`close`
    compacts the file, entries stored before the journal attached
    included.  A second ``state_dir`` service over the same
    authority raises :class:`~repro.errors.ProtocolError` before it
    writes a file: two journals would split the cache's updates.

    ``max_pending`` is the admission high-water mark: an admission
    that would take the pending count past it is refused with
    :class:`~repro.errors.AdmissionError` (audited
    ``service.admission.backpressure``); ``None`` admits without bound.

    A submission's ``deadline_ms`` bounds its wall clock from
    admission.  An expired submission resolves to
    :class:`~repro.errors.DeadlineExceeded` (audited
    ``service.deadline.exceeded``) — immediately when the deadline
    lapsed in the queue, or when its solve outruns the budget: a
    deadlined solve runs on a thread of its own, which the drain
    abandons at the deadline, so a wedged solve cannot
    head-of-line-block the service.  While :data:`MAX_ABANDONED_SOLVES`
    abandoned solves still run, a deadlined submission resolves to
    ``DeadlineExceeded`` (phase ``wedged``) as it reaches the solve,
    without starting another.  Submissions without a deadline solve
    inline on the draining thread.
    """

    def __init__(self, authority, state_dir=None,
                 max_pending: int | None = None):
        if max_pending is not None and max_pending < 1:
            raise ProtocolError("max_pending must be positive")
        self._authority = authority
        self.cache = authority.solve_cache
        #: The write-behind persister of ``state_dir`` (None without one).
        self.persister: WriteBehindPersister | None = None
        self._queue: deque[_Submission] = deque()
        self._admission_lock = threading.Lock()
        self._drain_lock = threading.Lock()
        # The thread inside drain(), so that it cannot wait on itself.
        self._drainer: int | None = None
        self._submission_counter = 0
        # Counters written from the drain thread and deadline threads
        # alike, so they get their own lock rather than riding the
        # admission or drain lock: resolved futures, bumped by each
        # future at resolution, and deadlined solves whose thread still
        # runs.  The drain waits for its own solve, so when it reads
        # the second every solve counted is abandoned.
        self._stats_lock = threading.Lock()
        self._completed = 0
        self._solves_running = 0
        # Failure telemetry (surfaced via failure_counters / GET /stats).
        self._deadlines_exceeded = 0
        self._high_water = max_pending
        if state_dir is not None:
            self._recover(state_dir)
        self._audit_cache_rejections()

    @property
    def authority(self):
        """The underlying :class:`~repro.core.authority.RationalityAuthority`.

        Hosts above the service (the HTTP front-end) need the audit log
        and the registered parties without growing parallel plumbing.
        """
        return self._authority

    def _recover(self, state_dir) -> None:
        """Attach the persister of ``state_dir`` and load its file."""
        persister = WriteBehindPersister(self.cache, state_path(state_dir))
        persister.set_event_handler(self._on_durability_event)
        report = persister.recover()
        self.persister = persister
        self._authority.audit.record(
            "-", self._authority.AUTHORITY_NAME, EVENT_CACHE_LOADED,
            entries=len(self.cache),
            **{f"journal_{k}": v for k, v in report.as_dict().items()},
        )

    def _on_durability_event(self, event: dict) -> None:
        """The persister's degradation observer → the audit trail."""
        self._authority.audit.record(
            "-", self._authority.AUTHORITY_NAME,
            EVENT_DURABILITY_DEGRADED, **event,
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(self, agent_name: str, game_id: str,
               privacy: str = "open",
               deadline_ms: float | None = None) -> ConsultationFuture:
        """Admit one consultation; returns its future immediately.

        The request is validated eagerly (unknown agents and games are
        rejected here, not at drain time); the hard work happens when
        the queue drains.  Past the high-water mark the admission is
        refused with :class:`~repro.errors.AdmissionError`.
        ``deadline_ms`` bounds this consultation's wall clock; past it
        the future resolves to :class:`~repro.errors.DeadlineExceeded`.
        """
        authority = self._authority
        authority.agent(agent_name)  # raises on unknown agents
        authority.inventor_of(game_id)  # raises on unknown games
        if deadline_ms is not None and not 0 < deadline_ms <= MAX_DEADLINE_MS:
            # The chained comparison refuses NaN as well.
            raise ProtocolError(
                f"deadline_ms must be positive and at most {MAX_DEADLINE_MS:.0f}"
            )
        deadline = (
            None if deadline_ms is None
            else time.monotonic() + deadline_ms / 1000.0
        )
        with self._admission_lock:
            depth = len(self._queue)
            full = self._high_water is not None and depth >= self._high_water
            if not full:
                self._submission_counter += 1
                future = ConsultationFuture(
                    submission_id=self._submission_counter,
                    agent=agent_name,
                    game_id=game_id,
                    service=self,
                    queue_depth=depth,
                    deadline_ms=deadline_ms,
                )
                self._queue.append(
                    _Submission(agent_name, game_id, privacy, future,
                                deadline=deadline)
                )
        # Audit outside the admission lock: the record is bookkeeping,
        # not part of the admission decision.
        if full:
            self._authority.audit.record(
                "-", self._authority.AUTHORITY_NAME, EVENT_BACKPRESSURE,
                action="rejected", agent=agent_name, pending=depth,
                high_water=self._high_water,
            )
            raise AdmissionError(
                f"admission queue at high-water mark "
                f"({depth}/{self._high_water} pending): rejected"
            )
        return future

    @property
    def pending_count(self) -> int:
        """Submissions admitted but not yet drained."""
        with self._admission_lock:
            return len(self._queue)

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

    def drain(self, max_submissions: int | None = None) -> int:
        """Process the admission queue to empty; returns completions.

        One drainer runs at a time; concurrent callers block on the
        lock and, once inside, drain whatever was admitted meanwhile
        (usually nothing — their futures were resolved by the first
        drainer).  Unbounded, it returns only once every future
        admitted before the call is resolved.

        ``max_submissions`` bounds how many submissions this call
        takes (``None`` drains to empty).  An unbounded drain keeps
        taking submissions admitted *while it runs*, so under
        continuous load one "drain" can stretch over many of them —
        fine for throughput, but it stretches the write-behind flush
        interval with it: a drain ends with the persister's flush.  The
        HTTP server's pump drains one submission at a time, so a
        process crash can lose the journal frame of at most one
        answered consultation.

        Done-callbacks run on the draining thread.  One that drains
        there — through ``result()`` or ``exception()`` on a pending
        future, ``drain()`` or ``close()`` — would wait on the drain it
        runs inside; that re-entry raises
        :class:`~repro.errors.ProtocolError` at once, which the future
        audits as ``service.callback.failed``, and the drain goes on.
        """
        if self._drainer == threading.get_ident():
            raise ProtocolError(
                "drain() re-entered from the draining thread: a "
                "done-callback waited on a pending future"
            )
        with self._drain_lock:
            self._drainer = threading.get_ident()
            try:
                return self._drain(max_submissions)
            finally:
                self._drainer = None

    def _drain(self, max_submissions: int | None) -> int:
        if not self.pending_count:
            return 0
        drained = 0
        submission = None
        try:
            while max_submissions is None or drained < max_submissions:
                with self._admission_lock:
                    if not self._queue:
                        break
                    submission = self._queue.popleft()
                drained += 1
                self._consult(submission)
        except BaseException as exc:
            # KeyboardInterrupt / SystemExit mid-solve: abort the drain
            # at once, but fail every not-yet-resolved future first, so
            # nothing waits forever on work that will never run.
            self._abort_outstanding(exc, submission)
            raise
        # Completions are counted by the futures themselves as they
        # resolve (see _note_completed) — nothing to tally here.
        self._audit_cache_rejections()
        persister = self.cache.persister
        if persister is not None:
            # Every future this drain took has resolved and every cache
            # write it made is queued: the flush point, whichever
            # service owns the journal.
            persister.on_drained()
        return drained

    def _abort_outstanding(self, exc: BaseException,
                           current: _Submission | None) -> None:
        """Fail the interrupted submission and every queued one."""
        while current is not None:
            self._complete(current, error=exc)
            with self._admission_lock:
                current = self._queue.popleft() if self._queue else None

    def _audit_cache_rejections(self) -> None:
        """Turn queued cache load/serve rejections into audit records.

        Each detail dict the cache refused to serve — a whole rejected
        file or a loaded entry that failed the Lemma-1 gate at first
        serve — becomes one ``cache.load.rejected`` record, so tampered
        warm state is visible in the audit trail, not just absent from
        the hit counters.
        """
        for details in self.cache.drain_rejections():
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
    # The drain stages: open -> solve -> verify/conclude
    # ------------------------------------------------------------------

    def _consult(self, submission: _Submission) -> None:
        """Run one submission through the drain stages, in order.

        Stage 1: open the session and request advice — the inventor's
        cache lookup and (on a miss) its screening/search happen here.
        Stage 2: verify/conclude.  Both run on the draining thread,
        except a deadlined solve, which runs on a thread of its own.
        The session is opened first, on the draining thread, so a solve
        that raises still leaves its session id on the failed record.
        """
        if self._expired(submission):
            self._deadline_fail(submission, phase="queued")
            return
        session = None
        try:
            session = self._authority.open_session(
                submission.agent, submission.game_id
            )
            if submission.deadline is None:
                self._stage_solve(submission, session)
            elif not self._stage_solve_deadlined(submission, session):
                return  # abandoned past its budget
        except Exception as exc:
            self._complete(submission, session=session, error=exc)
            return
        if self._expired(submission):
            # Solved, but past the promise: the caller has already
            # been told 504-land — do not spend verify time on it.
            self._deadline_fail(submission, phase="solved", session=session)
            return
        self._verify_and_conclude(session, submission)

    @staticmethod
    def _expired(submission: _Submission) -> bool:
        return (
            submission.deadline is not None
            and time.monotonic() >= submission.deadline
        )

    def _deadline_fail(self, submission: _Submission, phase: str,
                       session: ConsultationSession | None = None,
                       facts: bool = True) -> None:
        """Resolve an expired submission to DeadlineExceeded; audit."""
        budget = submission.future.deadline_ms
        self._complete(submission, session=session, facts=facts,
                       error=DeadlineExceeded(
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
        """Stage 1 under a wall-clock budget, on a thread of its own.

        Python cannot interrupt a compute-bound solve, so the deadline
        is kept by abandonment: the drain waits for the solve's thread
        at most until the deadline, then walks away.  Returns True once
        ``session`` holds its advice, False when the solve outran its
        budget or never started because :data:`MAX_ABANDONED_SOLVES`
        abandoned solves still run (either way the future is already
        resolved to :class:`~repro.errors.DeadlineExceeded`), or raises
        what the solve raised.  An abandoned thread finishes its solve,
        nobody reads its result, and it exits.
        """
        remaining = submission.deadline - time.monotonic()
        if remaining <= 0:
            self._deadline_fail(submission, phase="queued", session=session)
            return False
        with self._stats_lock:
            wedged = self._solves_running >= MAX_ABANDONED_SOLVES
            if not wedged:
                self._solves_running += 1
        if wedged:
            self._deadline_fail(submission, phase="wedged", session=session)
            return False
        solved = threading.Event()
        raised: list[BaseException] = []

        def solve() -> None:
            try:
                self._stage_solve(submission, session)
            except BaseException as exc:  # re-raised on the draining thread
                raised.append(exc)
            finally:
                with self._stats_lock:
                    self._solves_running -= 1
                solved.set()

        try:
            threading.Thread(
                target=solve,
                name=f"repro-deadline-{submission.future.submission_id}",
                daemon=True,
            ).start()
        except BaseException:
            with self._stats_lock:
                self._solves_running -= 1
            raise
        if not solved.wait(remaining):
            # The abandoned thread may still write the session's advice:
            # the record takes the session's id and none of its facts.
            self._deadline_fail(submission, phase="solve", session=session,
                                facts=False)
            return False
        if raised:
            raise raised[0]
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
                  error: BaseException | None = None,
                  facts: bool = True) -> None:
        """Resolve ``submission``'s future to ``outcome`` (or ``error``)
        and append its one ``service.consultation.completed`` record.

        A failed record carries the session's advice facts when it has
        advice, unless ``facts`` is False.  A future that is already
        resolved has had its record; it is left alone.
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
            if facts and session is not None and session.advice is not None:
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
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> int | None:
        """Drain outstanding work, then compact the journal.

        Returns the compacted entry count: ``None`` without a
        ``state_dir``, 0 when the compaction failed (the persister
        counts and reports it, and the file stays as it was).  A landed
        compaction is audited ``cache.saved``.  Any service's close
        then closes the cache's journal, whose handle and committer
        thread its own drains may have reopened.  Tracking stays armed:
        idempotent, and — like the authority's own ``close`` — not
        final, so a consultation after ``close()`` still reaches the
        journal at its drain's flush.
        """
        self.drain()
        persister = self.persister
        if persister is None:
            if self.cache.persister is not None:
                self.cache.persister.journal.close()
            return None
        entries = persister.close()
        if entries is None:
            return 0
        self._authority.audit.record(
            "-", self._authority.AUTHORITY_NAME, EVENT_CACHE_SAVED,
            path=persister.journal.path, entries=entries,
        )
        return entries

    def __enter__(self) -> "AuthorityService":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
