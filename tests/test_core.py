"""Tests for the rationality-authority core: bus, advice, procedures,
reputation, audit, and the game-authority monitor."""

import random
from fractions import Fraction

import pytest

from repro.core import (
    Advice,
    AuditLog,
    ByzantineProcedure,
    CertificateProcedure,
    ComplianceExpectation,
    EmptyProofProcedure,
    GameAuthorityMonitor,
    IndifferenceProcedure,
    MessageBus,
    OnlineLinkProcedure,
    OnlineParticipationProcedure,
    P1Procedure,
    P2Procedure,
    ProofFormat,
    ReputationStore,
    SolutionConcept,
    VerificationContext,
    Verdict,
    VerifierRegistry,
    describe_advice,
    majority_verdict,
    standard_procedures,
)
from repro.core.advice import CONCEPT_LIBRARY
from repro.errors import ProtocolError
from repro.games import MixedProfile, ParticipationGame, ROW
from repro.games.generators import battle_of_sexes, prisoners_dilemma, random_bimatrix
from repro.equilibria import lemke_howson
from repro.interactive import P2Prover
from repro.online import OnlineAdvice, inventor_suggestion
from repro.proofs import build_max_nash_certificate, encode_certificate


def make_context(seed=0, prover=None):
    return VerificationContext(rng=random.Random(seed), prover=prover)


class TestBus:
    def test_send_and_log(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        msg = bus.send("a", "b", "k", {"x": 1})
        assert msg.sequence == 1
        assert bus.log == (msg,)
        assert bus.messages_between("a", "b") == (msg,)
        assert bus.messages_of_kind("k") == (msg,)

    def test_unknown_parties_rejected(self):
        bus = MessageBus()
        bus.register("a")
        with pytest.raises(ProtocolError):
            bus.send("a", "ghost", "k", {})
        with pytest.raises(ProtocolError):
            bus.send("ghost", "a", "k", {})

    def test_double_registration_rejected(self):
        bus = MessageBus()
        bus.register("a")
        with pytest.raises(ProtocolError):
            bus.register("a")

    def test_byte_accounting(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        bus.send("a", "b", "k", {"payload": "xyz"})
        assert bus.bytes_sent("a") > 0
        assert bus.bytes_received("b") == bus.bytes_sent("a")
        assert bus.total_bytes() == bus.bytes_sent("a")

    def test_fraction_payloads_encode(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        msg = bus.send("a", "b", "k", {"p": Fraction(1, 3)})
        assert "1/3" in msg.canonical_payload()

    def test_unencodable_payload_rejected(self):
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        with pytest.raises(ProtocolError):
            bus.send("a", "b", "k", {"x": object()})

    def test_delivery_hook(self):
        bus = MessageBus()
        seen = []
        bus.register("a")
        bus.register("b", hook=seen.append)
        bus.send("a", "b", "k", 1)
        assert len(seen) == 1

    def test_conversation_filter(self):
        bus = MessageBus()
        for name in ("a", "b", "c"):
            bus.register(name)
        bus.send("a", "b", "k", 1)
        bus.send("a", "c", "k", 2)
        assert len(bus.conversation(["a", "b"])) == 1


class TestAdvice:
    def test_concept_format_compatibility_enforced(self):
        with pytest.raises(ProtocolError):
            Advice(
                game_id="g",
                agent=0,
                concept=SolutionConcept.MAXIMAL_PURE_NASH,
                proof_format=ProofFormat.INTERACTIVE_P2,  # incompatible
                suggestion=(0, 0),
                proof=None,
            )

    def test_library_covers_all_concepts(self):
        assert set(CONCEPT_LIBRARY) == set(SolutionConcept)

    def test_describe_advice_mentions_consequences(self):
        advice = Advice(
            game_id="g",
            agent=0,
            concept=SolutionConcept.PURE_NASH,
            proof_format=ProofFormat.EMPTY_PROOF,
            suggestion=(0, 0),
            proof=None,
        )
        text = describe_advice(advice)
        assert "Consequences" in text
        assert "pure-nash" in text

    @pytest.mark.parametrize("backend", ["exact", "float+certify", "numpy"])
    def test_describe_advice_names_approximate_backends(self, backend):
        advice = Advice(
            game_id="g",
            agent=0,
            concept=SolutionConcept.PURE_NASH,
            proof_format=ProofFormat.EMPTY_PROOF,
            suggestion=(0, 0),
            proof=None,
            backend=backend,
        )
        text = describe_advice(advice)
        if backend == "exact":
            assert "Solver backend" not in text
        else:
            assert f"Solver backend: {backend} (search was approximate;" in text


class TestProcedures:
    def test_certificate_procedure_accepts_valid(self):
        game = battle_of_sexes().to_strategic()
        cert = build_max_nash_certificate(game, (0, 0))
        advice = Advice(
            game_id="g", agent=0,
            concept=SolutionConcept.MAXIMAL_PURE_NASH,
            proof_format=ProofFormat.CERTIFICATE,
            suggestion=(0, 0), proof=encode_certificate(cert),
        )
        verdict = CertificateProcedure("v").verify(game, advice, make_context())
        assert verdict.accepted
        assert verdict.cost["utility_evaluations"] > 0

    def test_certificate_for_wrong_profile_rejected(self):
        game = battle_of_sexes().to_strategic()
        cert = build_max_nash_certificate(game, (0, 0))
        advice = Advice(
            game_id="g", agent=0,
            concept=SolutionConcept.MAXIMAL_PURE_NASH,
            proof_format=ProofFormat.CERTIFICATE,
            suggestion=(1, 1),  # suggestion != certificate candidate
            proof=encode_certificate(cert),
        )
        verdict = CertificateProcedure("v").verify(game, advice, make_context())
        assert not verdict.accepted

    def test_malformed_certificate_rejected_gracefully(self):
        game = battle_of_sexes().to_strategic()
        advice = Advice(
            game_id="g", agent=0,
            concept=SolutionConcept.PURE_NASH,
            proof_format=ProofFormat.CERTIFICATE,
            suggestion=(0, 0), proof={"type": "garbage"},
        )
        verdict = CertificateProcedure("v").verify(game, advice, make_context())
        assert not verdict.accepted
        assert "malformed" in verdict.reason

    def test_empty_proof_procedure(self):
        game = prisoners_dilemma().to_strategic()
        good = Advice(
            game_id="g", agent=0, concept=SolutionConcept.PURE_NASH,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=(1, 1), proof=None,
        )
        bad = Advice(
            game_id="g", agent=0, concept=SolutionConcept.PURE_NASH,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=(0, 0), proof=None,
        )
        proc = EmptyProofProcedure("v")
        assert proc.verify(game, good, make_context()).accepted
        assert not proc.verify(game, bad, make_context()).accepted

    def test_empty_proof_mixed(self):
        game = random_bimatrix(3, 3, seed=1)
        eq = lemke_howson(game, 0)
        advice = Advice(
            game_id="g", agent="both", concept=SolutionConcept.MIXED_NASH,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=eq, proof=None,
        )
        assert EmptyProofProcedure("v").verify(game, advice, make_context()).accepted

    def test_p1_procedure_both_sides(self):
        game = random_bimatrix(4, 4, seed=2)
        eq = lemke_howson(game, 0)
        advice = Advice(
            game_id="g", agent="both", concept=SolutionConcept.MIXED_NASH,
            proof_format=ProofFormat.INTERACTIVE_P1,
            suggestion=eq,
            proof={
                "row_support": list(eq.support(0)),
                "column_support": list(eq.support(1)),
            },
        )
        verdict = P1Procedure("v").verify(game, advice, make_context())
        assert verdict.accepted

    def test_p1_procedure_rejects_garbage(self):
        game = random_bimatrix(3, 3, seed=3)
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.MIXED_NASH,
            proof_format=ProofFormat.INTERACTIVE_P1,
            suggestion=None, proof={"row_support": "nope"},
        )
        assert not P1Procedure("v").verify(game, advice, make_context()).accepted

    def test_p2_procedure_with_live_prover(self):
        game = random_bimatrix(4, 4, seed=4)
        eq = lemke_howson(game, 0)
        prover = P2Prover(game, eq, ROW)
        advice = Advice(
            game_id="g", agent=ROW, concept=SolutionConcept.MIXED_NASH,
            proof_format=ProofFormat.INTERACTIVE_P2,
            suggestion=eq.distribution(ROW), proof=None,
        )
        verdict = P2Procedure("v").verify(
            game, advice, make_context(seed=1, prover=prover)
        )
        assert verdict.accepted
        assert verdict.cost["rounds"] >= 1

    def test_p2_procedure_needs_prover(self):
        game = random_bimatrix(3, 3, seed=5)
        advice = Advice(
            game_id="g", agent=ROW, concept=SolutionConcept.MIXED_NASH,
            proof_format=ProofFormat.INTERACTIVE_P2,
            suggestion=None, proof=None,
        )
        verdict = P2Procedure("v").verify(game, advice, make_context())
        assert not verdict.accepted
        assert "prover" in verdict.reason

    def test_indifference_procedure(self):
        game = ParticipationGame(3, value=8, cost=3)
        good = Advice(
            game_id="g", agent=0, concept=SolutionConcept.SYMMETRIC_MIXED_NASH,
            proof_format=ProofFormat.INDIFFERENCE_IDENTITY,
            suggestion=Fraction(1, 4), proof=None,
        )
        bad = Advice(
            game_id="g", agent=0, concept=SolutionConcept.SYMMETRIC_MIXED_NASH,
            proof_format=ProofFormat.INDIFFERENCE_IDENTITY,
            suggestion=Fraction(1, 2), proof=None,
        )
        proc = IndifferenceProcedure("v")
        assert proc.verify(game, good, make_context()).accepted
        assert not proc.verify(game, bad, make_context()).accepted

    def test_online_link_procedure(self):
        game = ParticipationGame(3, value=8, cost=3)  # game irrelevant here
        loads = [2.0, 7.0]
        link = inventor_suggestion(loads, 1.0, 4.0, 3, fast=False)
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.ONLINE_BEST_REPLY,
            proof_format=ProofFormat.DETERMINISTIC_RECOMPUTATION,
            suggestion=link,
            proof={"kind": "parallel-links", "loads": loads, "own_load": 1.0,
                   "expected_load": 4.0, "future_count": 3},
        )
        assert OnlineLinkProcedure("v").verify(game, advice, make_context()).accepted
        wrong = Advice(
            game_id="g", agent=0, concept=SolutionConcept.ONLINE_BEST_REPLY,
            proof_format=ProofFormat.DETERMINISTIC_RECOMPUTATION,
            suggestion=1 - link, proof=advice.proof,
        )
        assert not OnlineLinkProcedure("v").verify(game, wrong, make_context()).accepted

    def test_online_participation_procedure(self):
        game = ParticipationGame(3, value=8, cost=3)
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.ONLINE_BEST_REPLY,
            proof_format=ProofFormat.DETERMINISTIC_RECOMPUTATION,
            suggestion=OnlineAdvice(Fraction(1), Fraction(5)),
            proof={"kind": "participation-online", "prior_participants": 1},
        )
        proc = OnlineParticipationProcedure("v")
        assert proc.verify(game, advice, make_context()).accepted
        flipped = Advice(
            game_id="g", agent=0, concept=SolutionConcept.ONLINE_BEST_REPLY,
            proof_format=ProofFormat.DETERMINISTIC_RECOMPUTATION,
            suggestion=OnlineAdvice(Fraction(0), Fraction(0)),
            proof={"kind": "participation-online", "prior_participants": 1},
        )
        assert not proc.verify(game, flipped, make_context()).accepted

    def test_byzantine_inverts(self):
        game = prisoners_dilemma().to_strategic()
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.PURE_NASH,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=(1, 1), proof=None,
        )
        honest = EmptyProofProcedure("honest")
        byzantine = ByzantineProcedure("evil", EmptyProofProcedure("inner"))
        assert honest.verify(game, advice, make_context()).accepted
        assert not byzantine.verify(game, advice, make_context()).accepted


class TestRegistryAndMajority:
    def test_registry_lookup_and_support(self):
        registry = VerifierRegistry()
        for proc in standard_procedures():
            registry.add(proc)
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.PURE_NASH,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=(0, 0), proof=None,
        )
        supporting = registry.supporting(advice)
        assert [p.name for p in supporting] == ["direct-evaluation"]
        assert registry.get("direct-evaluation").name == "direct-evaluation"

    def test_registry_duplicate_rejected(self):
        registry = VerifierRegistry()
        registry.add(EmptyProofProcedure("v"))
        with pytest.raises(ProtocolError):
            registry.add(EmptyProofProcedure("v"))

    def test_registry_unknown_name(self):
        with pytest.raises(ProtocolError):
            VerifierRegistry().get("nope")

    def test_majority_out_votes_byzantine(self):
        verdicts = [
            Verdict("a", True, "ok"),
            Verdict("b", True, "ok"),
            Verdict("evil", False, "inverted"),
        ]
        outcome = majority_verdict(verdicts)
        assert outcome.accepted
        assert outcome.dissenters() == ("evil",)
        assert not outcome.unanimous

    def test_majority_tie_rejects(self):
        verdicts = [Verdict("a", True, "ok"), Verdict("b", False, "no")]
        assert not majority_verdict(verdicts).accepted

    def test_majority_needs_votes(self):
        with pytest.raises(ProtocolError):
            majority_verdict([])


class TestReputation:
    def test_fresh_score_is_half(self):
        store = ReputationStore()
        assert store.score("new") == Fraction(1, 2)

    def test_agreement_raises_score(self):
        store = ReputationStore()
        for _ in range(8):
            store.record_vote("good", True)
        assert store.score("good") == Fraction(9, 10)

    def test_disagreement_lowers_score(self):
        store = ReputationStore()
        for _ in range(8):
            store.record_vote("bad", False)
        assert store.score("bad") == Fraction(1, 10)

    def test_update_from_outcome(self):
        store = ReputationStore()
        outcome = majority_verdict(
            [Verdict("a", True, ""), Verdict("b", True, ""), Verdict("c", False, "")]
        )
        store.update_from_outcome(outcome)
        assert store.score("a") > store.score("c")

    def test_ranking_and_selection(self):
        store = ReputationStore()
        store.record_vote("good", True)
        store.record_vote("bad", False)
        ranking = store.ranking()
        assert ranking[0][0] == "good"
        assert store.select_top(["good", "bad", "fresh"], 2) == ("good", "fresh")

    def test_select_top_validation(self):
        with pytest.raises(ProtocolError):
            ReputationStore().select_top(["a"], 0)


class TestAuditLog:
    def test_records_are_clocked(self):
        log = AuditLog()
        first = log.record("s1", "actor", "event.a")
        second = log.record("s1", "actor", "event.b")
        assert second.clock == first.clock + 1

    def test_queries(self):
        log = AuditLog()
        log.record("s1", "alice", "event.a", detail=1)
        log.record("s2", "bob", "event.a")
        log.record("s1", "alice", "event.b")
        assert len(log.events_for("alice")) == 2
        assert len(log.events_of("event.a")) == 2
        assert len(log.session("s1")) == 2

    def test_blame_counts(self):
        log = AuditLog()
        log.blame_inventor("s1", "evil-inc", "bad proof")
        log.blame_inventor("s2", "evil-inc", "bad proof again")
        log.blame_verifier("s1", "lazy-verify", "dissent")
        log.blame_agent("s3", "norton", "ignored verified advice")
        counts = log.blame_counts()
        assert counts == {"evil-inc": 2, "lazy-verify": 1, "norton": 1}


class TestGameAuthorityMonitor:
    def _monitor(self):
        game = prisoners_dilemma().to_strategic()
        return game, GameAuthorityMonitor(game, AuditLog(), "s1")

    def test_compliant_play_passes(self):
        game, monitor = self._monitor()
        monitor.expect(ComplianceExpectation("joe", 0, (1, 1)))
        assert monitor.observe(0, 1) is None
        assert monitor.violations == ()

    def test_deviation_detected_and_blamed(self):
        game, monitor = self._monitor()
        monitor.expect(ComplianceExpectation("joe", 0, (1, 1)))
        violation = monitor.observe(0, 0)
        assert violation is not None
        assert "deviates" in violation.reason

    def test_rule_violation_out_of_range(self):
        game, monitor = self._monitor()
        violation = monitor.observe(0, 9)
        assert violation is not None
        assert "game rules" in violation.reason

    def test_mixed_strategy_support_compliance(self):
        game, monitor = self._monitor()
        mixed = MixedProfile.from_rows([["1/2", "1/2"], [0, 1]])
        monitor.expect(ComplianceExpectation("jane", 1, mixed))
        assert monitor.observe(1, 1) is None
        violation = monitor.observe(1, 0)
        assert violation is not None
        assert "support" in violation.reason

    def test_unexpected_player_only_rule_checked(self):
        game, monitor = self._monitor()
        assert monitor.observe(1, 0) is None  # no expectation registered

    def test_resync_clears_violations(self):
        game, monitor = self._monitor()
        monitor.expect(ComplianceExpectation("joe", 0, (1, 1)))
        monitor.observe(0, 0)
        assert monitor.violations
        monitor.resync()
        assert monitor.violations == ()
        # Expectations survive the resync.
        assert monitor.observe(0, 0) is not None

    def test_player_index_validation(self):
        game, monitor = self._monitor()
        with pytest.raises(ProtocolError):
            monitor.observe(7, 0)
        with pytest.raises(ProtocolError):
            monitor.expect(ComplianceExpectation("x", 7, (1, 1)))
