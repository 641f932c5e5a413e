"""Queued consultations and the advice's backend field.

Submissions queued ahead of a drain each drain as their own
consultation, so a queue records, searches and caches exactly what the
same submissions do one by one.
"""

from __future__ import annotations

import time

import pytest

from repro.core import actors
from repro.core.actors import (
    AuthorityAgent,
    BimatrixInventor,
    PureNashInventor,
)
from repro.core.advice import Advice, ProofFormat, SolutionConcept
from repro.core.audit_events import EVENT_SERVICE_COMPLETED
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.core.session import advice_wire_summary
from repro.errors import ProtocolError
from repro.games.generators import prisoners_dilemma, random_bimatrix
from repro.linalg.backend import MODE_NUMPY, BackendPolicy

NUMPY = BackendPolicy(MODE_NUMPY)


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


class TestQueuedSubmissions:
    def test_matches_individual_consults(self):
        games = _games()
        ids = [game_id for game_id, __ in games]

        queue_inv = BimatrixInventor(
            "inv", method="support-enumeration", backend=NUMPY
        )
        queue_auth = _authority_with(queue_inv, games)
        futures = [queue_auth.service.submit("jane", gid) for gid in ids]
        queued = [f.result() for f in futures]

        single_inv = BimatrixInventor(
            "inv", method="support-enumeration", backend=NUMPY
        )
        single_auth = _authority_with(single_inv, games)
        singles = [single_auth.consult("jane", game_id) for game_id in ids]

        assert [o.advice.suggestion for o in queued] == [
            o.advice.suggestion for o in singles
        ]
        assert all(o.majority.accepted and o.adopted for o in queued)

    def test_records_backend_in_advice_and_audit(self):
        games = _games(count=2)
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", backend=NUMPY
        )
        authority = _authority_with(inventor, games)
        futures = [authority.service.submit("jane", gid) for gid, __ in games]
        outcomes = [future.result() for future in futures]
        from repro.linalg.backend import numpy_available

        expected_backend = "numpy" if numpy_available() else "float+certify"
        for outcome in outcomes:
            assert outcome.advice.backend == expected_backend
            summary = advice_wire_summary(outcome.advice)
            assert summary["backend"] == expected_backend
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert len(completed) == len(outcomes)
        assert all(
            event.details["backend"] == expected_backend
            for event in completed
        )

    def test_unknown_game_rejected_before_any_solve(self):
        inventor = PureNashInventor("pure")
        authority = _authority_with(inventor, [("pd", prisoners_dilemma())])
        queued = authority.service.submit("jane", "pd")
        with pytest.raises(ProtocolError):
            authority.service.submit("jane", "ghost")
        # The refusal queued nothing; the admitted game still resolves.
        assert authority.service.pending_count == 1
        assert queued.result().adopted
        assert len(authority.audit.events_of(EVENT_SERVICE_COMPLETED)) == 1


def _timed_searches(monkeypatch) -> list:
    """Record the wall time of every search the inventors run (ms)."""
    searched_ms = []
    search = actors.find_one_equilibrium

    def timed(game, policy=None):
        started = time.perf_counter()
        try:
            return search(game, policy=policy)
        finally:
            searched_ms.append((time.perf_counter() - started) * 1000.0)

    monkeypatch.setattr(actors, "find_one_equilibrium", timed)
    return searched_ms


#: Record fields that time a run or place it in the queue; the rest
#: depend only on the games and the order of consultation.
_TIMING_FIELDS = ("solve_ms", "verify_ms", "latency_ms", "queue_depth")


class TestQueuedProvenance:
    """Queued submissions record each game's own search."""

    def test_new_games_record_their_search(self, monkeypatch):
        searched_ms = _timed_searches(monkeypatch)
        games = _games(count=3, size=5)
        authority = _authority_with(
            BimatrixInventor("inv", method="support-enumeration"), games
        )
        service = authority.service
        futures = [service.submit("jane", gid) for gid, __ in games]
        assert all(f.result().majority.accepted for f in futures)
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert [r.details["cache"] for r in completed] == ["miss"] * 3
        # One search per game, each inside its own consultation: the
        # record's solve_ms covers the search it ran.
        assert len(searched_ms) == 3
        for record, search_ms in zip(completed, searched_ms):
            assert record.details["solve_ms"] >= search_ms
        assert (service.cache.stats.misses, service.cache.stats.hits) == (3, 0)
        authority.close()

    def test_a_repeated_id_is_a_miss_then_a_hit(self, monkeypatch):
        searched_ms = _timed_searches(monkeypatch)
        games = _games(count=1, size=5)
        authority = _authority_with(
            BimatrixInventor("inv", method="support-enumeration"), games
        )
        service = authority.service
        futures = [service.submit("jane", "g0") for __ in range(2)]
        assert [f.result().advice.cache for f in futures] == ["miss", "hit"]
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert [r.details["cache"] for r in completed] == ["miss", "hit"]
        assert len(searched_ms) == 1
        assert (service.cache.stats.misses, service.cache.stats.hits) == (1, 1)
        authority.close()

    def test_records_match_sequential_submits(self):
        games = _games(count=4, size=5)
        ids = ["g0", "g1", "g0", "g2", "g3", "g1"]

        def consult(queued: bool):
            authority = _authority_with(
                BimatrixInventor("inv", method="support-enumeration"), games
            )
            service = authority.service
            if queued:
                futures = [service.submit("jane", gid) for gid in ids]
                outcomes = [future.result() for future in futures]
            else:
                outcomes = [
                    service.submit("jane", gid).result() for gid in ids
                ]
            records = [
                {key: value for key, value in record.details.items()
                 if key not in _TIMING_FIELDS}
                for record in authority.audit.events_of(
                    EVENT_SERVICE_COMPLETED
                )
            ]
            stats = service.cache.stats
            authority.close()
            return (
                [o.advice.suggestion for o in outcomes], records,
                (stats.misses, stats.hits),
            )

        queued, sequential = consult(True), consult(False)
        assert queued == sequential
        __, records, counts = queued
        assert [r["cache"] for r in records] == [
            "miss", "miss", "hit", "miss", "miss", "hit",
        ]
        assert counts == (4, 2)


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
