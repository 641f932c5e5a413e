"""Integration tests: full consultation sessions through the authority,
dishonest parties, cross-checks, reputation dynamics and the bus trail."""

from fractions import Fraction

import pytest

from repro.core import (
    AuthorityAgent,
    BimatrixInventor,
    ByzantineProcedure,
    ComplianceExpectation,
    EmptyProofProcedure,
    EVENT_CROSS_CHECK,
    EVENT_INVENTOR_BLAMED,
    EVENT_SERVICE_COMPLETED,
    EVENT_VERIFIER_BLAMED,
    GameAuthorityMonitor,
    MisadvisingInventor,
    ParticipationInventor,
    PureNashInventor,
    RationalityAuthority,
    TwoFacedParticipationInventor,
    advice_wire_summary,
    standard_procedures,
)
from repro.core.actors import AgentPolicy
from repro.errors import ProtocolError
from repro.games import ParticipationGame, ROW
from repro.games.generators import battle_of_sexes, random_bimatrix
from repro.online import DynamicAverageStatistics, StatisticsPublisher, CheatingPublisher


def make_authority(seed=1):
    authority = RationalityAuthority(seed=seed)
    authority.register_verifiers(standard_procedures())
    return authority


class TestConsultationFlow:
    def test_pure_nash_certificate_flow(self):
        authority = make_authority()
        inventor = PureNashInventor("acme")
        authority.register_inventor(inventor)
        authority.register_agent(AuthorityAgent("joe", player_role=0))
        authority.publish_game("acme", "bos", battle_of_sexes().to_strategic())
        outcome = authority.consult("joe", "bos")
        assert outcome.adopted
        assert outcome.advice.suggestion in ((0, 0), (1, 1))
        assert "maximal-pure-nash" in outcome.concept_notice

    def test_p1_and_p2_flows(self):
        authority = make_authority()
        inventor = BimatrixInventor("hard-games")
        authority.register_inventor(inventor)
        authority.register_agent(AuthorityAgent("jane", player_role=ROW))
        authority.publish_game("hard-games", "g", random_bimatrix(5, 5, seed=9))
        open_outcome = authority.consult("jane", "g", privacy="open")
        private_outcome = authority.consult("jane", "g", privacy="private")
        assert open_outcome.adopted and private_outcome.adopted
        # P1 reveals both supports in the proof; P2's proof payload is empty.
        assert open_outcome.advice.proof is not None
        assert private_outcome.advice.proof is None

    def test_session_protocol_order_enforced(self):
        authority = make_authority()
        inventor = PureNashInventor("acme")
        authority.register_inventor(inventor)
        authority.register_agent(AuthorityAgent("joe"))
        authority.publish_game("acme", "bos", battle_of_sexes().to_strategic())
        session = authority.open_session("joe", "bos")
        with pytest.raises(ProtocolError):
            session.verify()  # before advice
        session.request_advice(inventor)
        with pytest.raises(ProtocolError):
            session.conclude()  # before verification
        session.verify()
        session.conclude()
        with pytest.raises(ProtocolError):
            session.verify()  # session closed

    def test_bus_records_conversation(self):
        authority = make_authority()
        inventor = PureNashInventor("acme")
        authority.register_inventor(inventor)
        authority.register_agent(AuthorityAgent("joe"))
        authority.publish_game("acme", "bos", battle_of_sexes().to_strategic())
        authority.consult("joe", "bos")
        kinds = [m.kind for m in authority.bus.log]
        assert "game.publish" in kinds
        assert "advice.request" in kinds
        assert "advice.delivery" in kinds
        assert "verification.verdict" in kinds
        assert authority.bus.total_bytes() > 0

    def test_audit_trail_complete(self):
        authority = make_authority()
        inventor = PureNashInventor("acme")
        authority.register_inventor(inventor)
        authority.register_agent(AuthorityAgent("joe"))
        authority.publish_game("acme", "bos", battle_of_sexes().to_strategic())
        outcome = authority.consult("joe", "bos")
        (record,) = authority.audit.session(outcome.session_id)
        assert record.event == EVENT_SERVICE_COMPLETED
        assert record.actor == "joe"
        details = record.details
        assert details["game_id"] == "bos" and details["privacy"] == "open"
        assert details["inventor"] == "acme"
        assert details["concept"] == "maximal-pure-nash"
        assert details["proof_format"] == outcome.advice.proof_format.value
        assert details["votes"] == [
            (v.verifier, v.accepted, v.reason)
            for v in outcome.majority.verdicts
        ]
        assert details["accepted"] and details["adopted"]

    def test_unknown_agent_or_game(self):
        authority = make_authority()
        inventor = PureNashInventor("acme")
        authority.register_inventor(inventor)
        with pytest.raises(ProtocolError):
            authority.consult("ghost", "bos")
        authority.register_agent(AuthorityAgent("joe"))
        with pytest.raises(ProtocolError):
            authority.consult("joe", "ghost-game")

    def test_duplicate_registrations_rejected(self):
        authority = make_authority()
        inventor = PureNashInventor("acme")
        authority.register_inventor(inventor)
        with pytest.raises(ProtocolError):
            authority.register_inventor(PureNashInventor("acme"))
        authority.register_agent(AuthorityAgent("joe"))
        with pytest.raises(ProtocolError):
            authority.register_agent(AuthorityAgent("joe"))
        authority.publish_game("acme", "g", battle_of_sexes().to_strategic())
        with pytest.raises(ProtocolError):
            authority.publish_game("acme", "g", battle_of_sexes().to_strategic())


class TestDishonesty:
    def test_misadvising_inventor_rejected_and_blamed(self):
        authority = make_authority()
        evil = MisadvisingInventor(
            "evil-inc",
            PureNashInventor("inner"),
            corrupt=lambda s: (1 - s[0],) + tuple(s[1:]),
        )
        authority.register_inventor(evil)
        authority.register_agent(AuthorityAgent("joe"))
        authority.publish_game("evil-inc", "bos", battle_of_sexes().to_strategic())
        outcome = authority.consult("joe", "bos")
        assert not outcome.adopted
        blames = authority.audit.events_of(EVENT_INVENTOR_BLAMED)
        assert any(r.actor == "evil-inc" for r in blames)

    def test_two_faced_inventor_caught_by_cross_check(self):
        authority = make_authority(seed=5)
        inventor = TwoFacedParticipationInventor("two-faced")
        authority.register_inventor(inventor)
        game = ParticipationGame(3, value=8, cost=3)
        authority.publish_game("two-faced", "auction", game)
        advices = []
        for i in range(3):
            authority.register_agent(AuthorityAgent(f"firm{i}", player_role=i))
            outcome = authority.consult(f"firm{i}", "auction")
            # Each advice is individually a valid equilibrium!
            assert outcome.adopted
            advices.append(outcome.advice)
        cross = authority.cross_check_symmetric(advices)
        assert not cross.consistent
        assert set(cross.probabilities) == {Fraction(1, 4), Fraction(3, 4)}
        assert authority.audit.blame_counts().get("two-faced") == 1
        assert authority.audit.events_of(EVENT_CROSS_CHECK)

    def test_honest_participation_inventor_cross_checks_clean(self):
        authority = make_authority(seed=6)
        inventor = ParticipationInventor("honest")
        authority.register_inventor(inventor)
        game = ParticipationGame(3, value=8, cost=3)
        authority.publish_game("honest", "auction", game)
        advices = []
        for i in range(3):
            authority.register_agent(AuthorityAgent(f"firm{i}", player_role=i))
            advices.append(authority.consult(f"firm{i}", "auction").advice)
        cross = authority.cross_check_symmetric(advices)
        assert cross.consistent
        assert cross.probabilities == (Fraction(1, 4),) * 3

    def test_byzantine_verifier_out_voted_and_loses_reputation(self):
        authority = RationalityAuthority(seed=7)
        authority.register_verifier(EmptyProofProcedure("honest-1"))
        authority.register_verifier(EmptyProofProcedure("honest-2"))
        authority.register_verifier(
            ByzantineProcedure("byzantine", EmptyProofProcedure("inner"))
        )
        # Use the empty-proof format so all three procedures apply.
        from repro.core import Advice, ProofFormat, SolutionConcept
        from repro.core.actors import AdvicePackage, GameInventor

        class EmptyProofInventor(GameInventor):
            def advise(self, game_id, game, agent, privacy):
                from repro.equilibria import pure_nash_equilibria

                profile = pure_nash_equilibria(game)[0]
                return AdvicePackage(
                    advice=Advice(
                        game_id=game_id, agent=agent,
                        concept=SolutionConcept.PURE_NASH,
                        proof_format=ProofFormat.EMPTY_PROOF,
                        suggestion=profile, proof=None, inventor=self.name,
                    )
                )

        authority.register_inventor(EmptyProofInventor("acme"))
        authority.register_agent(
            AuthorityAgent("joe", policy=AgentPolicy(verifier_count=3))
        )
        authority.publish_game("acme", "bos", battle_of_sexes().to_strategic())
        outcome = authority.consult("joe", "bos")
        assert outcome.adopted  # majority wins despite the byzantine verifier
        assert outcome.majority.dissenters() == ("byzantine",)
        # Reputation: byzantine dropped below the honest verifiers.
        assert authority.reputation.score("byzantine") < authority.reputation.score(
            "honest-1"
        )
        blamed = authority.audit.events_of(EVENT_VERIFIER_BLAMED)
        assert any(r.actor == "byzantine" for r in blamed)

    def test_repeated_sessions_entrench_reputation(self):
        authority = RationalityAuthority(seed=8)
        authority.register_verifier(EmptyProofProcedure("honest-1"))
        authority.register_verifier(EmptyProofProcedure("honest-2"))
        authority.register_verifier(
            ByzantineProcedure("byzantine", EmptyProofProcedure("inner"))
        )
        from repro.core import Advice, ProofFormat, SolutionConcept
        from repro.core.actors import AdvicePackage, GameInventor
        from repro.equilibria import pure_nash_equilibria

        class EmptyProofInventor(GameInventor):
            def advise(self, game_id, game, agent, privacy):
                profile = pure_nash_equilibria(game)[0]
                return AdvicePackage(
                    advice=Advice(
                        game_id=game_id, agent=agent,
                        concept=SolutionConcept.PURE_NASH,
                        proof_format=ProofFormat.EMPTY_PROOF,
                        suggestion=profile, proof=None, inventor=self.name,
                    )
                )

        authority.register_inventor(EmptyProofInventor("acme"))
        authority.register_agent(
            AuthorityAgent("joe", policy=AgentPolicy(verifier_count=3))
        )
        authority.publish_game("acme", "g", battle_of_sexes().to_strategic())
        for _ in range(5):
            authority.consult("joe", "g")
        assert authority.reputation.score("byzantine") < Fraction(1, 4)
        assert authority.reputation.score("honest-1") > Fraction(3, 4)

    def test_statistics_audit_via_authority(self):
        authority = make_authority(seed=9)
        inventor = PureNashInventor("network-op")
        authority.register_inventor(inventor)
        cheater = CheatingPublisher(
            DynamicAverageStatistics(), authority.keys, "network-op", inflation=3.0
        )
        loads = [10.0, 20.0, 30.0]
        records = [cheater.observe_and_publish(w) for w in loads]
        findings = authority.audit_published_statistics("network-op", records, loads)
        assert len(findings) == 3
        assert authority.audit.blame_counts().get("network-op") == 1

    def test_clean_statistics_audit(self):
        authority = make_authority(seed=10)
        inventor = PureNashInventor("network-op")
        authority.register_inventor(inventor)
        publisher = StatisticsPublisher(
            DynamicAverageStatistics(), authority.keys, "network-op"
        )
        loads = [10.0, 20.0]
        records = [publisher.observe_and_publish(w) for w in loads]
        findings = authority.audit_published_statistics("network-op", records, loads)
        assert findings == ()
        assert "network-op" not in authority.audit.blame_counts()


class TestAdviceWireSummary:
    def test_mixed_profile_summary_encodes(self):
        from repro.games import MixedProfile
        from repro.core import Advice, ProofFormat, SolutionConcept

        advice = Advice(
            game_id="g", agent="both", concept=SolutionConcept.MIXED_NASH,
            proof_format=ProofFormat.EMPTY_PROOF,
            suggestion=MixedProfile.uniform((2, 2)), proof=None,
        )
        summary = advice_wire_summary(advice)
        assert summary["suggestion"] == [
            [Fraction(1, 2), Fraction(1, 2)],
            [Fraction(1, 2), Fraction(1, 2)],
        ]

    def test_game_authority_integration_after_adoption(self):
        authority = make_authority(seed=11)
        inventor = PureNashInventor("acme")
        authority.register_inventor(inventor)
        authority.register_agent(AuthorityAgent("joe", player_role=0))
        game = battle_of_sexes().to_strategic()
        authority.publish_game("acme", "bos", game)
        outcome = authority.consult("joe", "bos")
        assert outcome.adopted
        monitor = GameAuthorityMonitor(game, authority.audit, outcome.session_id)
        monitor.expect(
            ComplianceExpectation("joe", 0, tuple(outcome.advice.suggestion))
        )
        # Joe plays the advised action: compliant.
        assert monitor.observe(0, outcome.advice.suggestion[0]) is None
        # Joe defects from verified advice: the Norton blame.
        deviant = 1 - outcome.advice.suggestion[0]
        assert monitor.observe(0, deviant) is not None
        assert "joe" in authority.audit.blame_counts()
