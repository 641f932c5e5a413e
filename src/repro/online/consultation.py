"""Per-arrival consultations for the parallel-links game.

This ties Sect. 6 to the framework of Fig. 1: each arriving agent asks
the inventor for a link, receives the suggestion *with its inputs* (the
current loads, its own load, the signed running average, the number of
expected future arrivals), verifies the suggestion by deterministic
recomputation, and only then follows it — falling back to greedy and
blaming the inventor if verification fails.

The service also publishes its statistics with a signature each round
(footnote 3), so a later audit can confirm the w̄ values the proofs were
checked against were honest.

:class:`DeviousLinkInventor` is the adversary: it occasionally suggests
the *most* loaded link (e.g. to favour a colluding agent elsewhere);
every such deviation is caught by recomputation, logged, and costs the
inventor blame instead of costing the agent makespan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.audit import AuditLog
from repro.crypto.signatures import KeyRegistry
from repro.errors import GameError
from repro.online.inventor_stats import (
    DynamicAverageStatistics,
    SignedStatistic,
    StatisticsPublisher,
)
from repro.online.parallel_links import (
    argmin_link,
    inventor_suggestion,
    verify_suggestion,
)


@dataclass(frozen=True)
class LinkAdvice:
    """One arrival's advice: the suggestion plus everything needed to
    re-derive it (the deterministic-recomputation proof inputs)."""

    agent_index: int
    suggested_link: int
    loads_snapshot: tuple[float, ...]
    own_load: float
    expected_load: float
    future_count: int
    statistic: SignedStatistic


class OnlineLinkInventorService:
    """The inventor's arrival-by-arrival advice service."""

    def __init__(self, num_links: int, num_agents: int, registry: KeyRegistry,
                 identity: str = "network-operator"):
        if num_links < 1 or num_agents < 1:
            raise GameError("need at least one link and one agent")
        self._num_links = num_links
        self._num_agents = num_agents
        self._publisher = StatisticsPublisher(
            DynamicAverageStatistics(), registry, identity
        )
        self._arrivals = 0
        self.identity = identity

    def advise(self, own_load: float, current_loads: Sequence[float]) -> LinkAdvice:
        """Observe one arrival, publish the signed statistic, suggest."""
        if len(current_loads) != self._num_links:
            raise GameError("load vector has the wrong number of links")
        if self._arrivals >= self._num_agents:
            raise GameError("more arrivals than announced agents")
        statistic = self._publisher.observe_and_publish(own_load)
        self._arrivals += 1
        future = self._num_agents - self._arrivals
        expected = self._publisher.expected_load()
        suggestion = self._pick_link(current_loads, own_load, expected, future)
        return LinkAdvice(
            agent_index=self._arrivals - 1,
            suggested_link=suggestion,
            loads_snapshot=tuple(float(v) for v in current_loads),
            own_load=float(own_load),
            expected_load=float(expected),
            future_count=future,
            statistic=statistic,
        )

    def _pick_link(self, loads, own_load, expected, future) -> int:
        """Hook for dishonest variants; honest service follows the rule."""
        return inventor_suggestion(loads, own_load, expected, future, fast=False)


class DeviousLinkInventor(OnlineLinkInventorService):
    """Suggests the *most* loaded link with probability ``deviate_p``."""

    def __init__(self, *args, deviate_p: float = 0.3,
                 rng: random.Random | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._deviate_p = deviate_p
        self._rng = rng or random.Random(0)
        self.deviations = 0

    def _pick_link(self, loads, own_load, expected, future) -> int:
        if self._rng.random() < self._deviate_p:
            self.deviations += 1
            worst = max(range(len(loads)), key=lambda j: (loads[j], -j))
            return worst
        return super()._pick_link(loads, own_load, expected, future)


@dataclass
class VerifiedSessionResult:
    """Outcome of a full verified parallel-links session."""

    final_loads: tuple[float, ...]
    makespan: float
    verified_count: int
    rejected_count: int
    advices: tuple[LinkAdvice, ...]

    @property
    def all_verified(self) -> bool:
        return self.rejected_count == 0


def resolve_advice(
    advice: LinkAdvice,
    link_loads: Sequence[float],
    rule_ok: bool,
    audit: AuditLog | None,
    session_id: str,
    identity: str,
) -> tuple[bool, int]:
    """The agent's follow-or-fallback step for one verified-or-not advice.

    Returns ``(verified, chosen_link)``: the suggestion when the
    recomputation verdict holds *and* the advice's snapshot matches the
    loads the agent actually observes; otherwise the greedy fallback,
    with the inventor blamed in ``audit`` (when given).
    """
    snapshot_ok = advice.loads_snapshot == tuple(link_loads)
    if rule_ok and snapshot_ok:
        return True, advice.suggested_link
    if audit is not None:
        reason = (
            "fails recomputation" if snapshot_ok
            else "was computed against stale loads"
        )
        audit.blame_inventor(
            session_id,
            identity,
            f"arrival {advice.agent_index}: suggested link "
            f"{advice.suggested_link} {reason}",
        )
    return False, argmin_link(link_loads)


def run_verified_session(
    loads: Sequence[float],
    num_links: int,
    service: OnlineLinkInventorService,
    audit: AuditLog | None = None,
    session_id: str = "online-links",
) -> VerifiedSessionResult:
    """Drive every arrival through advise -> verify -> follow-or-fallback.

    Each arrival is advised on the loads it observes, and the
    suggestion is re-derived from the advice's own inputs
    (:func:`~repro.online.parallel_links.verify_suggestion`).  A
    suggestion that fails the recomputation, or whose snapshot differs
    from the loads the agent observes, is replaced by the agent's own
    greedy choice (the safe default the paper's framework guarantees:
    bad advice can be *detected*, so it can cost the agent nothing),
    and the inventor is blamed in the audit log.
    """
    link_loads = [0.0] * num_links
    verified = 0
    advices: list[LinkAdvice] = []
    for w in loads:
        advice = service.advise(w, link_loads)
        advices.append(advice)
        rule_ok = verify_suggestion(
            advice.loads_snapshot, advice.own_load, advice.expected_load,
            advice.future_count, advice.suggested_link,
        )
        ok, chosen = resolve_advice(
            advice, link_loads, rule_ok, audit, session_id, service.identity
        )
        verified += ok
        link_loads[chosen] += float(w)
    return VerifiedSessionResult(
        final_loads=tuple(link_loads),
        makespan=max(link_loads),
        verified_count=verified,
        rejected_count=len(advices) - verified,
        advices=tuple(advices),
    )
