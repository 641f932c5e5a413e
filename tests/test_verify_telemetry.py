"""End-to-end verify telemetry: the search-vs-verify split per consultation.

``Advice.verify_ms`` (populated on the *outcome's* advice by the
session), the service's ``service.consultation.completed`` record, which
prices both halves of the asymmetry — and the wire-determinism rule
that keeps every wall time off the bus.
"""

from __future__ import annotations

from repro.core.actors import AuthorityAgent, BimatrixInventor, PureNashInventor
from repro.core.audit_events import EVENT_SERVICE_COMPLETED
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.core.session import advice_wire_summary
from repro.games.generators import prisoners_dilemma, random_bimatrix


def _authority(inventor, games, seed=9):
    authority = RationalityAuthority(seed=seed)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for game_id, game in games:
        authority.publish_game(inventor.name, game_id, game)
    return authority


class TestVerifyTelemetry:
    def test_outcome_advice_carries_verify_ms(self):
        inventor = BimatrixInventor("inv", method="support-enumeration")
        authority = _authority(inventor, [("g0", random_bimatrix(3, 3, seed=4))])
        outcome = authority.consult("jane", "g0")
        # Both halves of the asymmetry are priced on the outcome.
        assert outcome.advice.solve_ms >= 0.0
        assert outcome.advice.verify_ms >= 0.0
        authority.close()

    def test_delivered_advice_is_unverified(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        session = authority.open_session("jane", "pd")
        advice = session.request_advice(inventor)
        assert advice.verify_ms == -1.0  # delivery predates verification
        session.verify()
        outcome = session.conclude()
        assert outcome.advice.verify_ms >= 0.0
        authority.close()

    def test_completed_record_carries_both_timings(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        outcome = authority.consult("jane", "pd")
        (record,) = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert record.details["verify_ms"] == outcome.advice.verify_ms >= 0.0
        assert record.details["solve_ms"] == outcome.advice.solve_ms
        authority.close()

    def test_wire_summary_never_carries_timings(self):
        inventor = BimatrixInventor("inv", method="support-enumeration")
        authority = _authority(inventor, [("g0", random_bimatrix(3, 3, seed=4))])
        outcome = authority.consult("jane", "g0")
        summary = advice_wire_summary(outcome.advice)
        assert "solve_ms" not in summary
        assert "verify_ms" not in summary
        authority.close()

    def test_service_records_carry_verify_split(self):
        inventor = BimatrixInventor("inv", method="support-enumeration")
        games = [(f"g{i}", random_bimatrix(3, 3, seed=40 + i)) for i in range(3)]
        authority = _authority(inventor, games)
        futures = [authority.service.submit("jane", g) for g, __ in games]
        for future in futures:
            assert future.result().advice.verify_ms >= 0.0
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert len(completed) == 3
        assert [r.details["verify_ms"] for r in completed] == [
            future.result().advice.verify_ms for future in futures
        ]
        assert all(r.details["verify_ms"] >= 0.0 for r in completed)
        authority.close()

    def test_service_submissions_report_verify_ms(self):
        from repro.service import AuthorityService

        inventor = BimatrixInventor("inv", method="support-enumeration")
        games = [(f"g{i}", random_bimatrix(3, 3, seed=60 + i)) for i in range(4)]
        authority = _authority(inventor, games)
        service = AuthorityService(authority)
        futures = [service.submit("jane", g) for g, __ in games]
        for future in futures:
            assert future.result().advice.verify_ms >= 0.0
        service.close()
        authority.close()
