"""The batch consultation path: core consult_many and online bursts."""

from __future__ import annotations

import pytest

from repro.core import AuditLog
from repro.core.actors import (
    AuthorityAgent,
    BimatrixInventor,
    PureNashInventor,
)
from repro.core.advice import Advice, ProofFormat, SolutionConcept
from repro.core.audit_events import (
    EVENT_BATCH_CONSULTATION,
    EVENT_SERVICE_COMPLETED,
)
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.core.session import advice_wire_summary
from repro.errors import ProtocolError
from repro.crypto import KeyRegistry
from repro.games.generators import prisoners_dilemma, random_bimatrix
from repro.linalg.backend import MODE_NUMPY, BackendPolicy
from repro.online.consultation import (
    DeviousLinkInventor,
    OnlineLinkInventorService,
    run_verified_session,
    verify_advices,
)

CHUNKED = BackendPolicy(MODE_NUMPY, chunk_size=32)


def _authority_with(inventor, games):
    authority = RationalityAuthority(seed=9)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for game_id, game in games:
        authority.publish_game(inventor.name, game_id, game)
    return authority


def _games(count=4, size=4):
    return [
        (f"g{i}", random_bimatrix(size, size, seed=300 + i))
        for i in range(count)
    ]


class TestConsultMany:
    def test_matches_individual_consults(self):
        games = _games()
        ids = [game_id for game_id, __ in games]

        batch_inv = BimatrixInventor(
            "inv", method="support-enumeration", backend=CHUNKED
        )
        batch_auth = _authority_with(batch_inv, games)
        batched = batch_auth.consult_many("jane", ids)

        single_inv = BimatrixInventor(
            "inv", method="support-enumeration", backend=CHUNKED
        )
        single_auth = _authority_with(single_inv, games)
        singles = [single_auth.consult("jane", game_id) for game_id in ids]

        assert [o.advice.suggestion for o in batched] == [
            o.advice.suggestion for o in singles
        ]
        assert all(o.majority.accepted and o.adopted for o in batched)

    def test_records_backend_in_advice_and_audit(self):
        games = _games(count=2)
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", backend=CHUNKED
        )
        authority = _authority_with(inventor, games)
        outcomes = authority.consult_many("jane", [gid for gid, __ in games])
        from repro.linalg.backend import numpy_available

        expected_backend = "numpy" if numpy_available() else "float+certify"
        for outcome in outcomes:
            assert outcome.advice.backend == expected_backend
            summary = advice_wire_summary(outcome.advice)
            assert summary["backend"] == expected_backend
        batch_events = authority.audit.events_of(EVENT_BATCH_CONSULTATION)
        assert len(batch_events) == 1
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert len(completed) == len(outcomes)
        assert all(
            event.details["backend"] == expected_backend
            for event in completed
        )

    def test_empty_batch(self):
        inventor = PureNashInventor("pure")
        authority = _authority_with(inventor, [("pd", prisoners_dilemma())])
        assert authority.consult_many("jane", []) == ()

    def test_unknown_game_rejected_before_any_solve(self):
        inventor = PureNashInventor("pure")
        authority = _authority_with(inventor, [("pd", prisoners_dilemma())])
        with pytest.raises(ProtocolError):
            authority.consult_many("jane", ["pd", "ghost"])

    def test_base_inventor_advise_many_loops_advise(self):
        inventor = PureNashInventor("pure")
        game = prisoners_dilemma()
        requests = [("pd", game, 0, "open"), ("pd", game, 1, "open")]
        packages = inventor.advise_many(requests)
        assert [p.advice.agent for p in packages] == [0, 1]


class TestAdviceBackendField:
    def test_numpy_backend_mode_accepted(self):
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.PURE_NASH,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=(0, 0),
            proof=None, backend="numpy",
        )
        assert advice.backend == "numpy"

    def test_wire_summary_fields(self):
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.PURE_NASH,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=(0, 1),
            proof=None, backend="numpy",
        )
        assert advice_wire_summary(advice) == {
            "game_id": "g",
            "agent": 0,
            "concept": SolutionConcept.PURE_NASH.value,
            "proof_format": ProofFormat.EMPTY_PROOF.value,
            "suggestion": [0, 1],
            "proof": None,
            "backend": "numpy",
            "cache": "",
        }


class TestOnlineBurstConsultation:
    def _loads(self, count=30):
        import random

        rng = random.Random(77)
        return [rng.uniform(0, 100) for _ in range(count)]

    def test_advise_many_matches_sequential_for_honest_service(self):
        loads = self._loads()
        registry = KeyRegistry()
        service = OnlineLinkInventorService(3, len(loads), registry)
        advices = service.advise_many(loads, [0.0, 0.0, 0.0])
        assert len(advices) == len(loads)
        assert all(verify_advices(advices))

    def test_batched_session_equals_unbatched_for_honest_service(self):
        loads = self._loads()
        outcomes = []
        for batch_size in (1, 5, len(loads)):
            registry = KeyRegistry()
            service = OnlineLinkInventorService(4, len(loads), registry)
            outcomes.append(
                run_verified_session(loads, 4, service, batch_size=batch_size)
            )
        assert outcomes[0].final_loads == outcomes[1].final_loads
        assert outcomes[0].final_loads == outcomes[2].final_loads
        assert all(o.all_verified for o in outcomes)

    def test_batched_session_still_catches_devious_inventor(self):
        loads = self._loads(40)
        registry = KeyRegistry()
        service = DeviousLinkInventor(
            3, len(loads), registry, deviate_p=0.5
        )
        audit = AuditLog()
        outcome = run_verified_session(
            loads, 3, service, audit=audit, session_id="burst",
            batch_size=8,
        )
        assert service.deviations > 0
        assert outcome.rejected_count >= service.deviations
        assert audit.blame_counts().get(service.identity, 0) > 0

    def test_batch_size_validation(self):
        registry = KeyRegistry()
        service = OnlineLinkInventorService(2, 4, registry)
        from repro.errors import GameError

        with pytest.raises(GameError):
            run_verified_session([1.0], 2, service, batch_size=0)
