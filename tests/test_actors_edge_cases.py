"""Edge-case coverage for the inventor actors and authority plumbing."""

import random
from fractions import Fraction

import pytest

from repro.core import (
    Advice,
    AuthorityAgent,
    BimatrixInventor,
    CorrelatedInventor,
    ExtensiveFormInventor,
    P1Procedure,
    ParticipationInventor,
    ProofFormat,
    PureNashInventor,
    RationalityAuthority,
    SolutionConcept,
    VerificationContext,
    standard_procedures,
)
from repro.errors import EquilibriumError, ProtocolError
from repro.games import BimatrixGame, ParticipationGame, ROW, ultimatum_game
from repro.games.generators import (
    battle_of_sexes,
    matching_pennies,
    prisoners_dilemma,
    random_bimatrix,
)
from repro.interactive import P1Announcement


class TestBimatrixInventor:
    def test_support_enumeration_method(self):
        inventor = BimatrixInventor("se", method="support-enumeration")
        game = random_bimatrix(3, 3, seed=42)
        package = inventor.advise("g", game, "both", "open")
        assert package.advice.proof_format is ProofFormat.INTERACTIVE_P1

    def test_unknown_method_rejected(self):
        with pytest.raises(ProtocolError):
            BimatrixInventor("x", method="oracle")

    def test_solve_is_cached(self):
        from repro.service.cache import SolveCache

        inventor = BimatrixInventor("lh", solve_cache=SolveCache())
        game = random_bimatrix(4, 4, seed=5)
        first = inventor.solve(game)
        second = inventor.solve(game)
        assert second.profile is first.profile
        assert (first.cache, second.cache) == ("miss", "hit")

    def test_private_advice_needs_single_agent(self):
        inventor = BimatrixInventor("lh")
        game = matching_pennies()
        with pytest.raises(ProtocolError):
            inventor.advise("g", game, "both", "private")

    def test_wrong_game_type_rejected(self):
        inventor = BimatrixInventor("lh")
        with pytest.raises(ProtocolError):
            inventor.advise(
                "g", ParticipationGame(3, value=8, cost=3), 0, "open"
            )

    def test_commitment_mode_produces_commitments(self):
        inventor = BimatrixInventor(
            "lh", commitment_mode=True, rng=random.Random(1)
        )
        game = random_bimatrix(3, 3, seed=9)
        package = inventor.advise("g", game, ROW, "private")
        disclosure = package.prover.disclose()
        assert len(disclosure.membership_commitments) == 3


class TestParticipationInventor:
    def test_wrong_game_rejected(self):
        inventor = ParticipationInventor("auctioneer")
        with pytest.raises(ProtocolError):
            inventor.advise("g", matching_pennies(), 0, "open")

    def test_probability_same_across_agents(self):
        inventor = ParticipationInventor("auctioneer")
        game = ParticipationGame(3, value=8, cost=3)
        a = inventor.advise("g", game, 0, "open").advice.suggestion
        b = inventor.advise("g", game, 1, "open").advice.suggestion
        assert a == b == Fraction(1, 4)

    def test_large_root_preference(self):
        inventor = ParticipationInventor("auctioneer", prefer="large")
        game = ParticipationGame(3, value=8, cost=3)
        assert inventor.advise("g", game, 0, "open").advice.suggestion == \
            Fraction(3, 4)


def _per_game_state(inventor) -> int:
    """Entries held in the inventor's containers (dicts, lists, sets)."""
    return sum(
        len(value) for value in vars(inventor).values()
        if isinstance(value, (dict, list, set))
    )


#: (inventor, first game, second game): two games whose answers differ.
NO_MEMO_CASES = [
    pytest.param(
        lambda: ParticipationInventor("auctioneer"),
        ParticipationGame(3, value=8, cost=3),
        ParticipationGame(4, value=8, cost=3),
        id="participation",
    ),
    pytest.param(
        lambda: CorrelatedInventor("device-maker"),
        battle_of_sexes().to_strategic(),
        prisoners_dilemma().to_strategic(),
        id="correlated",
    ),
    pytest.param(
        lambda: ExtensiveFormInventor("sequential"),
        ultimatum_game(4),
        ultimatum_game(6),
        id="extensive",
    ),
]


class TestNoPerIdMemo:
    """Each advice answers the game it is given, not an earlier game
    advised under the same id, and advising keeps no per-id state."""

    @pytest.mark.parametrize("make, first, second", NO_MEMO_CASES)
    def test_a_reused_id_gets_the_new_games_answer(self, make, first, second):
        expected = make().advise("g2", second, 0, "open").advice.suggestion
        inventor = make()
        before = inventor.advise("g", first, 0, "open").advice.suggestion
        after = inventor.advise("g", second, 0, "open").advice.suggestion
        assert before != expected
        assert after == expected

    @pytest.mark.parametrize("make, first, second", NO_MEMO_CASES)
    def test_advising_many_ids_keeps_no_state(self, make, first, second):
        inventor = make()
        held = _per_game_state(inventor)
        for i in range(500):
            inventor.advise(f"g{i}", first, 0, "open")
        assert _per_game_state(inventor) == held


class TestPureNashInventor:
    def test_no_pne_raises(self):
        inventor = PureNashInventor("acme", maximal=False)
        with pytest.raises(EquilibriumError):
            inventor.advise("g", matching_pennies().to_strategic(), 0, "open")

    def test_non_maximal_concept(self):
        from repro.games.generators import prisoners_dilemma

        inventor = PureNashInventor("acme", maximal=False)
        package = inventor.advise(
            "g", prisoners_dilemma().to_strategic(), 0, "open"
        )
        assert package.advice.concept is SolutionConcept.PURE_NASH


class TestAuthorityPlumbing:
    def test_inventor_of_lookup(self):
        authority = RationalityAuthority(seed=50)
        authority.register_verifiers(standard_procedures())
        inventor = ParticipationInventor("auctioneer")
        authority.register_inventor(inventor)
        authority.publish_game(
            "auctioneer", "g", ParticipationGame(3, value=8, cost=3)
        )
        assert authority.inventor_of("g") is inventor
        with pytest.raises(ProtocolError):
            authority.inventor_of("ghost")

    def test_publish_requires_registered_inventor(self):
        authority = RationalityAuthority(seed=51)
        with pytest.raises(ProtocolError):
            authority.publish_game("ghost", "g", matching_pennies())

    def test_unknown_privacy_mode_rejected(self):
        authority = RationalityAuthority(seed=52)
        authority.register_verifiers(standard_procedures())
        inventor = ParticipationInventor("auctioneer")
        authority.register_inventor(inventor)
        authority.register_agent(AuthorityAgent("joe"))
        authority.publish_game(
            "auctioneer", "g", ParticipationGame(3, value=8, cost=3)
        )
        session = authority.open_session("joe", "g")
        with pytest.raises(ProtocolError):
            session.request_advice(inventor, privacy="telepathic")

    def test_cross_check_needs_advices(self):
        authority = RationalityAuthority(seed=53)
        with pytest.raises(ProtocolError):
            authority.cross_check_symmetric([])


class TestP1ProcedureObjectProof:
    def test_announcement_object_accepted(self):
        from repro.equilibria import lemke_howson

        game = random_bimatrix(3, 3, seed=77)
        eq = lemke_howson(game, 0)
        advice = Advice(
            game_id="g", agent="both", concept=SolutionConcept.MIXED_NASH,
            proof_format=ProofFormat.INTERACTIVE_P1,
            suggestion=eq,
            proof=P1Announcement(
                row_support=eq.support(0), column_support=eq.support(1)
            ),
        )
        context = VerificationContext(rng=random.Random(0))
        assert P1Procedure("v").verify(game, advice, context).accepted

    def test_non_bimatrix_game_rejected(self):
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.MIXED_NASH,
            proof_format=ProofFormat.INTERACTIVE_P1,
            suggestion=None,
            proof={"row_support": [0], "column_support": [0]},
        )
        context = VerificationContext(rng=random.Random(0))
        verdict = P1Procedure("v").verify(
            ParticipationGame(3, value=8, cost=3), advice, context
        )
        assert not verdict.accepted

def _p1_advice(row_support, column_support, agent="both"):
    return Advice(
        game_id="g", agent=agent, concept=SolutionConcept.MIXED_NASH,
        proof_format=ProofFormat.INTERACTIVE_P1,
        suggestion=None,
        proof={"row_support": row_support, "column_support": column_support},
    )


#: A 2x2 game whose one equilibrium is pure, at (row 1, column 0).
_PURE_AT_1_0 = BimatrixGame([[0, 0], [1, 1]], [[1, 0], [1, 0]])


class TestP1ProcedureMalformedInput:
    """A malformed announcement or advised agent is a rejecting verdict,
    never an exception.  Bool entries, repeated and unordered indices
    decode from no bit-vector; each case below is one that would
    otherwise be accepted."""

    @pytest.mark.parametrize(
        "row_support, column_support, agent",
        [
            pytest.param(["0"], [0], "both", id="string-entries"),
            pytest.param([1.0], [0.0], "both", id="float-entries"),
            pytest.param("01", [0], "both", id="string-support"),
            pytest.param([True], [False], "both", id="bool-entries"),
            pytest.param([1, 1], [0], 0, id="repeated-indices"),
            pytest.param([1], [0], 2, id="agent-2"),
            pytest.param([1], [0], "2", id="agent-string-2"),
            pytest.param([1], [0], -1, id="agent-minus-1"),
            pytest.param([1], [0], "row", id="agent-row"),
            pytest.param([1], [0], True, id="agent-bool"),
        ],
    )
    def test_rejected_as_malformed(self, row_support, column_support, agent):
        advice = _p1_advice(row_support, column_support, agent)
        context = VerificationContext(rng=random.Random(0))
        verdict = P1Procedure("v").verify(_PURE_AT_1_0, advice, context)
        assert not verdict.accepted
        assert verdict.reason.startswith("malformed P1 announcement")

    def test_unordered_indices_rejected_as_malformed(self):
        """Matching pennies' full supports, listed backwards."""
        advice = _p1_advice([1, 0], [1, 0])
        context = VerificationContext(rng=random.Random(0))
        verdict = P1Procedure("v").verify(matching_pennies(), advice, context)
        assert not verdict.accepted
        assert verdict.reason.startswith("malformed P1 announcement")
        ordered = _p1_advice([0, 1], [0, 1])
        assert P1Procedure("v").verify(matching_pennies(), ordered, context).accepted

    @pytest.mark.parametrize("agent", [0, 1, "both"])
    def test_well_formed_equilibrium_still_accepted(self, agent):
        context = VerificationContext(rng=random.Random(0))
        for proof in ((1,), (0,)), ([1], [0]):
            advice = _p1_advice(*proof, agent=agent)
            assert P1Procedure("v").verify(_PURE_AT_1_0, advice, context).accepted

    def test_out_of_range_and_empty_supports_keep_their_reasons(self):
        context = VerificationContext(rng=random.Random(0))
        verdict = P1Procedure("v").verify(
            _PURE_AT_1_0, _p1_advice([1, 2], [0], agent=0), context
        )
        assert verdict.reason == "agent 0: own support indices out of range"
        verdict = P1Procedure("v").verify(
            _PURE_AT_1_0, _p1_advice([], [0], agent=1), context
        )
        assert verdict.reason == "agent 1: a support set is empty"

