"""Tests for the verified per-arrival consultation pipeline (Sect. 6
through the Fig. 1 framework)."""

import random

import pytest

from repro.core import EVENT_INVENTOR_BLAMED, AuditLog
from repro.crypto import KeyRegistry
from repro.errors import GameError
from repro.online import simulate_inventor
from repro.online.consultation import (
    DeviousLinkInventor,
    OnlineLinkInventorService,
    run_verified_session,
)
from repro.online.inventor_stats import DynamicAverageStatistics, audit_statistics
from repro.online.parallel_links import argmin_link, verify_suggestion


@pytest.fixture
def loads():
    # Stdlib draws so the consultation protocol tests (pure protocol
    # code, no bulk simulation) also run on a numpy-free interpreter.
    rng = random.Random(21)
    return [rng.uniform(0, 100) for _ in range(40)]


class TestHonestService:
    def test_all_suggestions_verify(self, loads):
        registry = KeyRegistry()
        service = OnlineLinkInventorService(5, len(loads), registry)
        result = run_verified_session(loads, 5, service)
        assert result.all_verified
        assert result.verified_count == len(loads)
        assert result.rejected_count == 0

    def test_matches_unverified_simulation(self, loads):
        """The verified pipeline is the simulation plus checking: same
        final makespan as simulate_inventor on the same inputs."""
        registry = KeyRegistry()
        service = OnlineLinkInventorService(4, len(loads), registry)
        result = run_verified_session(loads, 4, service)
        baseline = simulate_inventor(loads, 4, DynamicAverageStatistics())
        assert result.makespan == pytest.approx(baseline, rel=1e-12)

    def test_statistics_audit_clean(self, loads):
        registry = KeyRegistry()
        service = OnlineLinkInventorService(3, len(loads), registry)
        result = run_verified_session(loads, 3, service)
        records = [a.statistic for a in result.advices]
        assert audit_statistics(registry, records, loads) == ()

    def test_mass_conservation(self, loads):
        registry = KeyRegistry()
        service = OnlineLinkInventorService(6, len(loads), registry)
        result = run_verified_session(loads, 6, service)
        assert sum(result.final_loads) == pytest.approx(sum(loads))

    def test_each_arrival_is_advised_on_the_loads_it_observes(self, loads):
        registry = KeyRegistry()
        service = OnlineLinkInventorService(3, len(loads), registry)
        result = run_verified_session(loads, 3, service)
        link_loads = [0.0] * 3
        for index, (w, advice) in enumerate(zip(loads, result.advices)):
            assert advice.agent_index == index
            assert advice.own_load == w
            assert advice.loads_snapshot == tuple(link_loads)
            link_loads[advice.suggested_link] += w
        assert len(result.advices) == len(loads)
        assert result.final_loads == tuple(link_loads)

    def test_arrival_budget_enforced(self):
        registry = KeyRegistry()
        service = OnlineLinkInventorService(2, 1, registry)
        service.advise(1.0, [0.0, 0.0])
        with pytest.raises(GameError):
            service.advise(1.0, [1.0, 0.0])

    def test_wrong_load_vector_rejected(self):
        registry = KeyRegistry()
        service = OnlineLinkInventorService(2, 3, registry)
        with pytest.raises(GameError):
            service.advise(1.0, [0.0])


class TestDeviousService:
    def test_deviations_caught_and_blamed(self, loads):
        registry = KeyRegistry()
        audit = AuditLog()
        service = DeviousLinkInventor(
            4, len(loads), registry, identity="shady-operator",
            deviate_p=0.5, rng=random.Random(3),
        )
        result = run_verified_session(loads, 4, service, audit=audit)
        assert service.deviations > 0
        # Every deviation that differs from the honest rule is rejected.
        assert result.rejected_count > 0
        assert audit.blame_counts().get("shady-operator", 0) == result.rejected_count

    def test_fallback_protects_the_agents(self, loads):
        """With verification, bad advice never hurts: the makespan under
        a devious inventor (rejected + greedy fallback) is no worse than
        blindly following the devious suggestions."""
        registry = KeyRegistry()
        service = DeviousLinkInventor(
            4, len(loads), registry, deviate_p=0.6, rng=random.Random(9),
        )
        verified = run_verified_session(loads, 4, service)

        # Blind-follow baseline: replay the same advices without checks.
        registry2 = KeyRegistry()
        blind_service = DeviousLinkInventor(
            4, len(loads), registry2, deviate_p=0.6, rng=random.Random(9),
        )
        link_loads = [0.0] * 4
        for w in loads:
            advice = blind_service.advise(w, link_loads)
            link_loads[advice.suggested_link] += float(w)
        blind_makespan = max(link_loads)
        assert verified.makespan <= blind_makespan

    def test_rejections_are_exactly_the_failed_recomputations(self, loads):
        """Every snapshot is fresh, so an advice is refused exactly when
        its suggestion fails recomputation, never for staleness."""
        registry = KeyRegistry()
        audit = AuditLog()
        service = DeviousLinkInventor(
            4, len(loads), registry, deviate_p=0.5, rng=random.Random(5),
        )
        result = run_verified_session(loads, 4, service, audit=audit)
        recomputed = [
            verify_suggestion(
                a.loads_snapshot, a.own_load, a.expected_load,
                a.future_count, a.suggested_link,
            )
            for a in result.advices
        ]
        assert not all(recomputed)
        assert result.rejected_count == recomputed.count(False)
        assert result.verified_count == recomputed.count(True)
        blames = audit.events_of(EVENT_INVENTOR_BLAMED)
        assert len(blames) == result.rejected_count
        assert all(
            "fails recomputation" in r.details["reason"] for r in blames
        )

    def test_zero_deviation_rate_is_honest(self, loads):
        registry = KeyRegistry()
        service = DeviousLinkInventor(
            3, len(loads), registry, deviate_p=0.0, rng=random.Random(1),
        )
        result = run_verified_session(loads, 3, service)
        assert result.all_verified
        assert service.deviations == 0


class StaleSnapshotInventor(OnlineLinkInventorService):
    """Advises against forged loads: every snapshot carries a phantom
    load on link 0, and the suggestion is the honest one for that
    snapshot, so recomputation from the advice's own inputs passes."""

    def advise(self, own_load, current_loads):
        forged = list(current_loads)
        forged[0] += 50.0
        return super().advise(own_load, forged)


class TestStaleSnapshot:
    def test_stale_snapshot_refused(self, loads):
        registry = KeyRegistry()
        audit = AuditLog()
        service = StaleSnapshotInventor(
            3, len(loads), registry, identity="stale-operator"
        )
        result = run_verified_session(loads, 3, service, audit=audit)

        # Recomputation alone passes every advice.
        assert all(
            verify_suggestion(
                a.loads_snapshot, a.own_load, a.expected_load,
                a.future_count, a.suggested_link,
            )
            for a in result.advices
        )
        assert result.verified_count == 0
        assert result.rejected_count == len(loads)

        # Every agent took argmin_link on the loads it observed, and at
        # least once that is not the forged suggestion.
        link_loads = [0.0] * 3
        differs = False
        for w, advice in zip(loads, result.advices):
            assert advice.loads_snapshot != tuple(link_loads)
            chosen = argmin_link(link_loads)
            differs |= chosen != advice.suggested_link
            link_loads[chosen] += float(w)
        assert differs
        assert result.final_loads == tuple(link_loads)

        assert audit.blame_counts() == {"stale-operator": len(loads)}
        blames = audit.events_of(EVENT_INVENTOR_BLAMED)
        assert [r.actor for r in blames] == ["stale-operator"] * len(loads)
        assert all(
            "was computed against stale loads" in r.details["reason"]
            for r in blames
        )
