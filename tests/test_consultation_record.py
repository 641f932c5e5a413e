"""One audit record per served consultation, and provenance that is true.

Once a consultation's future resolves, the service writes exactly one
``service.consultation.completed`` record for it — accepted, rejected
or failed — with the agent as actor.  The session adds blame records
for a rejection and nothing else; the bus still carries the three
protocol messages.  The advice's cache state and ``solve_ms`` are the
ones of the call that served it.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import time

import pytest

from repro.core import (
    AuthorityAgent,
    BimatrixInventor,
    MisadvisingInventor,
    PureNashInventor,
    RationalityAuthority,
    standard_procedures,
)
from repro.core.audit_events import (
    EVENT_DEADLINE_EXCEEDED,
    EVENT_INVENTOR_BLAMED,
    EVENT_SERVICE_COMPLETED,
)
from repro.games.generators import (
    battle_of_sexes,
    matching_pennies,
    random_bimatrix,
)
from repro.server import ThreadedServer
from repro.service import AuthorityService, SolveCache, faults

ACCEPTED_FIELDS = {
    "game_id", "privacy", "inventor", "concept", "proof_format", "backend",
    "cache", "solve_ms", "votes", "accepted", "verify_ms", "adopted",
    "queue_depth", "latency_ms",
}
PROTOCOL_KINDS = ["advice.request", "advice.delivery", "verification.verdict"]


def _authority(inventor, games, verifiers=True) -> RationalityAuthority:
    authority = RationalityAuthority(seed=13)
    if verifiers:
        authority.register_verifiers(standard_procedures())
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for game_id, game in games:
        authority.publish_game(inventor.name, game_id, game)
    return authority


def _clock(authority) -> int:
    return authority.audit.records[-1].clock


def _flip_row_action(suggestion):
    return (1 - suggestion[0],) + tuple(suggestion[1:])


class TestOneRecord:
    def test_an_accepted_consultation_writes_one_record(self):
        inventor = BimatrixInventor("inv", method="support-enumeration")
        game = random_bimatrix(4, 4, seed=2)
        authority = _authority(inventor, [("g", game)])
        clock, sent = _clock(authority), len(authority.bus.log)
        outcome = authority.consult("jane", "g")
        assert _clock(authority) == clock + 1
        assert [m.kind for m in authority.bus.log[sent:]] == PROTOCOL_KINDS
        (record,) = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert record.session_id == outcome.session_id
        assert record.actor == "jane"
        details = record.details
        assert set(details) == ACCEPTED_FIELDS
        advice = outcome.advice
        assert details["game_id"] == "g" and details["privacy"] == "open"
        assert details["inventor"] == "inv"
        assert details["concept"] == advice.concept.value
        assert details["proof_format"] == advice.proof_format.value
        assert details["backend"] == advice.backend
        assert details["cache"] == advice.cache == "miss"
        assert details["solve_ms"] == advice.solve_ms
        assert details["verify_ms"] == advice.verify_ms
        assert details["votes"] == [
            (v.verifier, v.accepted, v.reason)
            for v in outcome.majority.verdicts
        ]
        assert details["accepted"] is True and details["adopted"] is True
        assert details["queue_depth"] == 0 and details["latency_ms"] > 0.0
        authority.close()

    def test_a_rejected_consultation_adds_its_blame_records(self):
        liar = MisadvisingInventor("liar", PureNashInventor("inner"),
                                   _flip_row_action)
        game = battle_of_sexes().to_strategic()
        authority = _authority(liar, [("bos", game)])
        clock, sent = _clock(authority), len(authority.bus.log)
        outcome = authority.consult("jane", "bos")
        assert not outcome.majority.accepted and not outcome.adopted
        kinds = [m.kind for m in authority.bus.log[sent:]]
        assert kinds[:2] == PROTOCOL_KINDS[:2]
        assert set(kinds[2:]) == {"verification.verdict"}
        session = authority.audit.session(outcome.session_id)
        assert _clock(authority) == clock + len(session)
        *blames, record = session
        assert blames and all(
            b.event.startswith("blame.") for b in blames
        )
        (inventor_blame,) = [
            b for b in blames if b.event == EVENT_INVENTOR_BLAMED
        ]
        assert inventor_blame.actor == "liar"
        assert record.event == EVENT_SERVICE_COMPLETED
        assert record.details["accepted"] is False
        assert record.details["adopted"] is False
        rejecting = [
            (verifier, reason)
            for verifier, accepted, reason in record.details["votes"]
            if not accepted
        ]
        assert rejecting == [
            (v.verifier, v.reason)
            for v in outcome.majority.verdicts if not v.accepted
        ]
        assert all(reason for __, reason in rejecting)
        assert rejecting[0][1] in inventor_blame.details["reason"]
        authority.close()


class TestFailedRecords:
    def test_a_failed_solve_is_one_failed_record(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("mp", matching_pennies())])
        clock = _clock(authority)
        future = authority.service.submit("jane", "mp")
        assert future.exception() is not None
        assert _clock(authority) == clock + 1
        (record,) = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert record.actor == "jane"
        assert record.session_id == "session-0001"
        assert record.details == {
            "game_id": "mp", "privacy": "open", "failed": True,
            "error_type": type(future.exception()).__name__,
            "queue_depth": 0, "latency_ms": future.latency_ms,
        }
        authority.close()

    @pytest.mark.parametrize(
        "deadline_ms, fault, error",
        [(None, None, "EquilibriumError"),
         (60_000.0, None, "EquilibriumError"),
         (100.0, "solve:hang:2@1", "DeadlineExceeded")],
        ids=["inline", "deadlined", "abandoned"],
    )
    def test_a_failed_solve_is_found_by_its_session(self, deadline_ms,
                                                    fault, error):
        """The session opened for a solve that raised — or that was
        abandoned past its budget — keeps its id, so the failed record
        is the session's trail."""
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("mp", matching_pennies())])
        scope = faults.armed(fault) if fault else contextlib.nullcontext()
        with scope:  # an abandoned worker stays hung inside it
            future = authority.service.submit(
                "jane", "mp", deadline_ms=deadline_ms
            )
            assert type(future.exception()).__name__ == error
            (record,) = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
            assert record.session_id == "session-0001"
            assert authority.audit.session(record.session_id) == (record,)
            # No advice facts: an abandoned worker may still write them.
            assert "inventor" not in record.details
            assert "concept" not in record.details
        following = authority.service.submit("jane", "mp")
        assert following.exception() is not None
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert completed[-1].session_id == "session-0002"
        authority.close()

    def test_a_failed_verification_keeps_the_advice_provenance(self):
        inventor = PureNashInventor("pure")
        authority = _authority(
            inventor, [("bos", battle_of_sexes().to_strategic())],
            verifiers=False,
        )
        future = authority.service.submit("jane", "bos")
        assert type(future.exception()).__name__ == "ProtocolError"
        (record,) = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert record.session_id != "-"
        assert record.details["failed"] is True
        assert record.details["error_type"] == "ProtocolError"
        assert record.details["inventor"] == "pure"
        assert record.details["concept"] == "maximal-pure-nash"
        assert "votes" not in record.details
        authority.close()

    def test_a_lapsed_deadline_has_one_completed_record(self):
        inventor = PureNashInventor("pure")
        authority = _authority(
            inventor, [("bos", battle_of_sexes().to_strategic())]
        )
        service = authority.service
        future = service.submit("jane", "bos", deadline_ms=1.0)
        time.sleep(0.02)
        service.drain()
        assert type(future.exception()).__name__ == "DeadlineExceeded"
        (record,) = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert record.details["failed"] is True
        assert record.details["error_type"] == "DeadlineExceeded"
        (lapsed,) = authority.audit.events_of(EVENT_DEADLINE_EXCEEDED)
        assert lapsed.details["phase"] == "queued"
        authority.close()


class TestProvenance:
    def test_repeat_consultations_report_their_own_cache_state(self):
        """Each advice carries the provenance of the solve that served
        it: a repeated game id is a cache hit with its own solve time,
        over HTTP as in process."""
        games = [(f"g{i}", random_bimatrix(5, 5, seed=300 + i))
                 for i in range(6)]
        inventor = BimatrixInventor("inv", method="support-enumeration")
        authority = _authority(inventor, games)
        service = AuthorityService(authority, solve_cache=SolveCache())
        answers = []
        with ThreadedServer(service) as threaded:
            conn = http.client.HTTPConnection(
                "127.0.0.1", threaded.port, timeout=60
            )
            try:
                for __ in range(2):
                    for game_id, __game in games:
                        conn.request("POST", "/consult", body=json.dumps(
                            {"agent": "jane", "game_id": game_id}
                        ))
                        resp = conn.getresponse()
                        assert resp.status == 200
                        answers.append(json.loads(resp.read()))
                conn.request("GET", "/stats")
                stats = json.loads(conn.getresponse().read())
            finally:
                conn.close()
        caches = [answer["advice"]["cache"] for answer in answers]
        assert caches == ["miss"] * 6 + ["hit"] * 6
        assert stats["cache"]["hits"] == 6
        assert stats["cache"]["misses"] == 6
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert [r.details["cache"] for r in completed] == caches
        first, second = completed[:6], completed[6:]
        for cold, warm in zip(first, second):
            assert warm.details["game_id"] == cold.details["game_id"]
            assert warm.details["solve_ms"] != cold.details["solve_ms"]
        authority.close()

    @pytest.mark.parametrize("privacy", ["open", "private"])
    def test_an_uncached_inventor_searches_every_time(self, privacy):
        inventor = BimatrixInventor("inv", method="support-enumeration")
        game = random_bimatrix(4, 4, seed=5)
        first = inventor.advise("g", game, 0, privacy).advice
        again = inventor.advise("g", game, 0, privacy).advice
        assert first.cache == again.cache == ""
        assert first.suggestion == again.suggestion
        assert first.solve_ms != again.solve_ms
