"""One JSON encoding per bus message and per response body.

The bus charges each message the length of one ``json.dumps`` whose
hook writes a Fraction as ``"p/q"``, and a ``/consult`` body is one
``json.dumps`` whose hook writes Fractions and enums.  These tests pin
both to the two-pass encodings they replaced — a walk with
``transcripts.encode_value`` (bus) or ``wire.jsonable`` (bodies), then a
plain ``json.dumps`` — over every payload shape the authority sends.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.core import (
    AuthorityAgent,
    BimatrixInventor,
    CorrelatedInventor,
    ExtensiveFormInventor,
    MisadvisingInventor,
    ParticipationInventor,
    PureNashInventor,
    RationalityAuthority,
    advice_wire_summary,
    standard_procedures,
)
from repro.core.advice import Advice, ProofFormat, SolutionConcept
from repro.core.bus import MessageBus
from repro.core.messages import Message
from repro.errors import ProtocolError
from repro.games import ParticipationGame, ultimatum_game
from repro.games.generators import battle_of_sexes, random_bimatrix
from repro.interactive.transcripts import encode_value
from repro.online.participation_online import OnlineAdvice
from repro.server.wire import exact_default, jsonable, outcome_payload

UNICODE_REASON = "verifier crashed: ZeroDivisionError: ∑ wäre ≠ 0 — ✓ 🎲"


def _walked_size(payload) -> int:
    """The byte count the bus charged before: walk, then dump."""
    text = json.dumps(
        encode_value(payload), sort_keys=True, separators=(",", ":")
    )
    return len(text.encode("utf-8"))


def _walked_body(future, outcome) -> str:
    """The ``/consult`` body as it was encoded before: walk, then dump."""
    body = dict(outcome_payload(future, outcome))
    body["advice"] = jsonable(advice_wire_summary(outcome.advice))
    return json.dumps(body, separators=(",", ":"), sort_keys=True)


def _body(future, outcome) -> str:
    """The ``/consult`` body as the server encodes it."""
    return json.dumps(
        outcome_payload(future, outcome), separators=(",", ":"),
        sort_keys=True, default=exact_default,
    )


def _flip_row_action(suggestion):
    return (1 - suggestion[0],) + tuple(suggestion[1:])


def _served_authority():
    """An authority whose consultations cover every advice shape the
    repo serves: certificates, P1 and P2 profiles (one agent and both),
    a symmetric probability, a tuple-keyed correlated device, an
    extensive-form plan, and a rejected advice with its reasons."""
    authority = RationalityAuthority(seed=5)
    authority.register_verifiers(standard_procedures())
    inventors = [
        PureNashInventor("pure"),
        BimatrixInventor("mixed", method="support-enumeration"),
        ParticipationInventor("part"),
        CorrelatedInventor("device"),
        ExtensiveFormInventor("seq"),
        MisadvisingInventor("liar", PureNashInventor("inner"),
                            _flip_row_action),
    ]
    for inventor in inventors:
        authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("row", player_role=0))
    authority.register_agent(AuthorityAgent("both", player_role="both"))
    authority.publish_game("pure", "bos", battle_of_sexes().to_strategic())
    authority.publish_game("mixed", "m", random_bimatrix(4, 4, seed=3))
    authority.publish_game("part", "p", ParticipationGame(3, value=8, cost=3))
    authority.publish_game("device", "cd", battle_of_sexes().to_strategic())
    authority.publish_game("seq", "ult", ultimatum_game(4))
    authority.publish_game("liar", "bad", battle_of_sexes().to_strategic())
    requests = [
        ("row", "bos", "open"), ("row", "m", "open"), ("row", "m", "private"),
        ("both", "m", "open"), ("row", "p", "open"), ("row", "cd", "open"),
        ("row", "ult", "open"), ("row", "bad", "open"),
    ]
    service = authority.service
    futures = [
        service.submit(agent, game_id, privacy=privacy)
        for agent, game_id, privacy in requests
    ]
    service.drain()
    return authority, futures


class TestBusBytes:
    def test_every_served_message_costs_what_the_walk_charged(self):
        authority, futures = _served_authority()
        assert all(future.exception() is None for future in futures)
        log = authority.bus.log
        assert {m.kind for m in log} == {
            "game.publish", "advice.request", "advice.delivery",
            "verification.verdict",
        }
        for message in log:
            assert message.size_bytes() == _walked_size(message.payload), (
                message.kind, message.payload,
            )
        assert authority.bus.total_bytes() == sum(
            _walked_size(m.payload) for m in log
        )
        authority.close()

    @pytest.mark.parametrize("payload", [
        {"accepted": False, "reason": UNICODE_REASON},
        {"nested": [[Fraction(1, 3), [Fraction(-2, 7), []]], [], [0, 1.5]]},
        {"game_id": "g", "agent": "both", "privacy": "private"},
        {"z": None, "a": True, "m": Fraction(5), "k": [Fraction(0)]},
        [Fraction(1, 2), "x", {"b": 1, "a": [None, False]}],
        Fraction(-7, 3),
    ])
    def test_hand_built_shapes(self, payload):
        message = Message("a", "b", "kind", payload)
        assert message.size_bytes() == _walked_size(payload)
        assert message.canonical_payload() == json.dumps(
            encode_value(payload), sort_keys=True, separators=(",", ":")
        )

    def test_summaries_of_every_suggestion_kind(self):
        shapes = [
            (SolutionConcept.CORRELATED, ProofFormat.EMPTY_PROOF,
             {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}, None),
            (SolutionConcept.SUBGAME_PERFECT, ProofFormat.EMPTY_PROOF,
             {"offer": 0, "respond-1": 0}, None),
            (SolutionConcept.SYMMETRIC_MIXED_NASH,
             ProofFormat.INDIFFERENCE_IDENTITY, Fraction(1, 4),
             {"identity": "eq5", "p": "1/4"}),
            (SolutionConcept.ONLINE_BEST_REPLY,
             ProofFormat.DETERMINISTIC_RECOMPUTATION,
             OnlineAdvice(probability=Fraction(1),
                          expected_gain=Fraction(-3, 8)),
             {"history": [0, 1], "loads": [Fraction(3, 2)]}),
            (SolutionConcept.PURE_NASH, ProofFormat.EMPTY_PROOF, (1, 0),
             None),
        ]
        for concept, proof_format, suggestion, proof in shapes:
            advice = Advice(
                game_id="g", agent=0, concept=concept,
                proof_format=proof_format, suggestion=suggestion,
                proof=proof, inventor="inv",
            )
            summary = advice_wire_summary(advice)
            message = Message("inv", "row", "advice.delivery", summary)
            assert message.size_bytes() == _walked_size(summary), concept

    def test_a_correlated_summary_keys_its_device_by_strings(self):
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.CORRELATED,
            proof_format=ProofFormat.EMPTY_PROOF,
            suggestion={(0, 1): Fraction(1, 3), (1, 0): Fraction(2, 3)},
            proof=None,
        )
        summary = advice_wire_summary(advice)
        assert summary["suggestion"] == {
            "(0, 1)": Fraction(1, 3), "(1, 0)": Fraction(2, 3),
        }

    @pytest.mark.parametrize("payload", [
        {"x": object()},
        {"x": {1, 2}},
        {"concept": SolutionConcept.MIXED_NASH},
        {(0, 1): Fraction(1, 2)},  # tuple keys must be stringified first
        b"raw bytes",
    ])
    def test_unencodable_payloads_raise_protocol_error(self, payload):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        with pytest.raises(ProtocolError):
            bus.send("a", "b", "kind", payload)
        assert bus.log == () and bus.total_bytes() == 0


class TestResponseBodies:
    def test_bodies_equal_the_walked_bodies(self):
        authority, futures = _served_authority()
        outcomes = [future.result() for future in futures]
        assert not outcomes[-1].majority.accepted  # the liar's advice
        for future, outcome in zip(futures, outcomes):
            assert _body(future, outcome) == _walked_body(future, outcome)
        authority.close()

    def test_the_hook_writes_fractions_and_enums_only(self):
        assert exact_default(Fraction(-3, 9)) == "-1/3"
        assert exact_default(Fraction(4)) == "4/1"
        assert exact_default(SolutionConcept.MIXED_NASH) == "mixed-nash"
        with pytest.raises(TypeError):
            exact_default(object())
