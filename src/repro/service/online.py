"""Future-based admission for the online parallel-links game.

The Sect. 6 consultation loop — arrive, ask, verify, follow — gets the
same service treatment as the core authority: arrivals are *admitted*
and handed a future; the queue drains in bursts through
:meth:`~repro.online.consultation.OnlineLinkInventorService.advise_many`
(so the per-query service setup amortizes over the burst), every advice
is proof-checked by batch deterministic recomputation
(:func:`repro.online.parallel_links.verify_suggestions`), and each
future resolves to the advice *with its verdict* so the caller can
follow-or-fallback exactly like
:func:`~repro.online.consultation.run_verified_session` does.

The adviser tracks the load trajectory itself: a verified suggestion is
followed, a rejected one falls back to the agent's own greedy choice
(and blames the inventor when given an audit log) — so with an honest
service the final loads are identical to the synchronous session
driver, which the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.audit import AuditLog
from repro.core.audit_events import EVENT_BACKPRESSURE
from repro.errors import AdmissionError, GameError
from repro.online.consultation import (
    LinkAdvice,
    OnlineLinkInventorService,
    resolve_advice,
)
from repro.online.parallel_links import verify_suggestions
from repro.service.futures import ConsultationFuture


@dataclass(frozen=True)
class VerifiedLinkAdvice:
    """What a link-arrival future resolves to: advice, verdict, action.

    ``chosen_link`` is what the agent actually does — the suggestion
    when it verified against both the recomputation rule and the
    observed loads, the greedy fallback otherwise.
    """

    advice: LinkAdvice
    verified: bool
    chosen_link: int


class BurstLinkAdviser:
    """Admission queue over an online link inventor service.

    ``submit(own_load)`` returns a future; :meth:`drain` (or any
    future's ``result()``) advises the whole queue in one burst,
    verifies the burst in one batch recomputation pass, resolves every
    future with a :class:`VerifiedLinkAdvice`, and advances the
    tracked load trajectory.

    ``max_pending`` mirrors the core service's high-water mark: past
    that many undrained arrivals :meth:`submit` raises
    :class:`~repro.errors.AdmissionError` (audited as
    ``service.admission.backpressure`` when an audit log is attached),
    so an open-loop arrival stream sheds load instead of growing an
    unbounded burst.
    """

    def __init__(self, service: OnlineLinkInventorService, num_links: int,
                 audit: AuditLog | None = None,
                 session_id: str = "online-links-service",
                 max_pending: int | None = None):
        if num_links < 1:
            raise GameError("need at least one link")
        if max_pending is not None and max_pending < 1:
            raise GameError("max_pending must be positive")
        self._service = service
        self._audit = audit
        self._session_id = session_id
        self._max_pending = max_pending
        self.loads = [0.0] * num_links
        self._pending: list[tuple[float, ConsultationFuture]] = []
        self._counter = 0
        self.verified_count = 0
        self.rejected_count = 0
        self.shed_count = 0

    @property
    def pending_count(self) -> int:
        """Arrivals admitted but not yet drained."""
        return len(self._pending)

    def submit(self, own_load: float) -> ConsultationFuture:
        """Admit one arrival; the future resolves at the next drain."""
        if (
            self._max_pending is not None
            and len(self._pending) >= self._max_pending
        ):
            self.shed_count += 1
            if self._audit is not None:
                self._audit.record(
                    self._session_id, self._service.identity,
                    EVENT_BACKPRESSURE,
                    action="rejected", requested=1,
                    pending=len(self._pending),
                    high_water=self._max_pending,
                )
            raise AdmissionError(
                f"burst adviser at high-water mark "
                f"({len(self._pending)}/{self._max_pending} pending)"
            )
        self._counter += 1
        future = ConsultationFuture(
            submission_id=self._counter,
            agent=f"arrival-{self._counter - 1}",
            game_id=self._session_id,
            service=self,
            queue_depth=len(self._pending),
        )
        self._pending.append((float(own_load), future))
        return future

    def drain(self) -> int:
        """Advise, batch-verify and resolve every pending arrival.

        A failed burst (the service rejecting an arrival mid-stream,
        e.g. more arrivals than announced agents) fails every pending
        future with the error — nobody waiting on one can hang — and
        leaves the tracked loads untouched.
        """
        if not self._pending:
            return 0
        pending, self._pending = self._pending, []
        try:
            own_loads = [w for w, __ in pending]
            advices = self._service.advise_many(own_loads, self.loads)
            verdicts = verify_suggestions(
                [
                    (
                        list(a.loads_snapshot), a.own_load, a.expected_load,
                        a.future_count, a.suggested_link,
                    )
                    for a in advices
                ]
            )
        except Exception as exc:
            for __, future in pending:
                future._fail(exc)
            return len(pending)
        for (own_load, future), advice, rule_ok in zip(
            pending, advices, verdicts
        ):
            verified, chosen = resolve_advice(
                advice, self.loads, rule_ok, self._audit,
                self._session_id, self._service.identity,
            )
            if verified:
                self.verified_count += 1
            else:
                self.rejected_count += 1
            self.loads[chosen] += float(own_load)
            future._resolve(
                VerifiedLinkAdvice(
                    advice=advice, verified=verified, chosen_link=chosen
                )
            )
        return len(pending)

    @property
    def makespan(self) -> float:
        return max(self.loads)
