"""Tests for the extended solution-concept library: dominance, iterated
elimination, correlated equilibria and Bayesian games — plus their
verification procedures through the authority."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Advice,
    BayesNashProcedure,
    CorrelatedProcedure,
    DominanceProcedure,
    ProofFormat,
    SolutionConcept,
    VerificationContext,
)
from repro.errors import EquilibriumError, GameError
from repro.games import BayesianGame, StrategicGame, bayes_nash_equilibria, is_bayes_nash
from repro.games.generators import (
    battle_of_sexes,
    matching_pennies,
    prisoners_dilemma,
    random_bimatrix,
    stag_hunt,
)
from repro.equilibria import (
    correlated_equilibrium_lp,
    dominant_strategy_equilibrium,
    is_correlated_equilibrium,
    is_dominant_action,
    is_pure_nash,
    iterated_elimination,
    lemke_howson,
    normalize_distribution,
    obedience_gap,
    product_distribution,
    pure_nash_equilibria,
    strictly_dominates,
    weakly_dominates,
)


def ctx():
    return VerificationContext(rng=random.Random(0))


class TestDominance:
    def test_pd_defect_dominates(self):
        g = prisoners_dilemma().to_strategic()
        assert strictly_dominates(g, 0, 1, 0)
        assert not strictly_dominates(g, 0, 0, 1)
        assert is_dominant_action(g, 0, 1, strict=True)

    def test_dominant_equilibrium_pd(self):
        g = prisoners_dilemma().to_strategic()
        assert dominant_strategy_equilibrium(g) == (1, 1)
        assert dominant_strategy_equilibrium(g, strict=True) == (1, 1)

    def test_no_dominant_equilibrium_in_bos(self):
        g = battle_of_sexes().to_strategic()
        assert dominant_strategy_equilibrium(g) is None

    def test_weak_dominance_needs_strict_somewhere(self):
        # Constant game: no action weakly dominates another (all ties).
        g = StrategicGame.from_payoff_function((2, 2), lambda i, p: 0)
        assert not weakly_dominates(g, 0, 0, 1)
        # But every action is (weakly) dominant in the best-reply sense.
        assert is_dominant_action(g, 0, 0)
        assert is_dominant_action(g, 0, 1)

    def test_dominant_profile_is_nash(self):
        g = prisoners_dilemma().to_strategic()
        profile = dominant_strategy_equilibrium(g)
        assert is_pure_nash(g, profile)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_dominant_implies_nash_property(self, seed):
        g = random_bimatrix(3, 3, seed=seed).to_strategic()
        profile = dominant_strategy_equilibrium(g)
        if profile is not None:
            assert is_pure_nash(g, profile)


class TestIteratedElimination:
    def test_pd_solves_completely(self):
        g = prisoners_dilemma().to_strategic()
        survivors, steps = iterated_elimination(g)
        assert survivors == {0: (1,), 1: (1,)}
        assert len(steps) == 2

    def test_pennies_eliminates_nothing(self):
        g = matching_pennies().to_strategic()
        survivors, steps = iterated_elimination(g)
        assert survivors == {0: (0, 1), 1: (0, 1)}
        assert steps == ()

    def test_sequential_elimination(self):
        # Row's action 2 is dominated; once gone, column's 1 dominates.
        g = StrategicGame.two_player(
            [[3, 3], [2, 2], [1, 1]],
            [[0, 1], [0, 1], [5, 0]],
        )
        survivors, steps = iterated_elimination(g)
        assert survivors[0] == (0,)
        assert survivors[1] == (1,)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_equilibria_survive_strict_elimination(self, seed):
        """Strictly dominated actions are never played in any equilibrium."""
        g = random_bimatrix(3, 3, seed=seed).to_strategic()
        survivors, __ = iterated_elimination(g, strict=True)
        for eq in pure_nash_equilibria(g):
            for player, action in enumerate(eq):
                assert action in survivors[player]


class TestCorrelated:
    def test_public_coin_in_bos(self):
        g = battle_of_sexes().to_strategic()
        coin = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        assert is_correlated_equilibrium(g, coin)

    def test_off_equilibrium_mass_rejected(self):
        g = battle_of_sexes().to_strategic()
        assert not is_correlated_equilibrium(g, {(0, 1): Fraction(1)})

    def test_chicken_classic_device(self):
        # Chicken: (dare, chicken) / (chicken, dare) / (chicken, chicken)
        # each with prob 1/3 is the classic non-product CE.
        chicken = StrategicGame.two_player(
            [[0, 7], [2, 6]],
            [[0, 2], [7, 6]],
        )
        device = {
            (0, 1): Fraction(1, 3),
            (1, 0): Fraction(1, 3),
            (1, 1): Fraction(1, 3),
        }
        assert is_correlated_equilibrium(chicken, device)
        # The same weights on the wrong cells fail.
        bad = {
            (0, 0): Fraction(1, 3),
            (1, 0): Fraction(1, 3),
            (0, 1): Fraction(1, 3),
        }
        assert not is_correlated_equilibrium(chicken, bad)

    def test_obedience_gap_signs(self):
        g = prisoners_dilemma().to_strategic()
        dist = {(1, 1): Fraction(1)}
        assert obedience_gap(g, dist, 0, 1, 0) <= 0
        coop = {(0, 0): Fraction(1)}
        assert obedience_gap(g, coop, 0, 0, 1) > 0

    def test_normalization_validation(self):
        g = prisoners_dilemma().to_strategic()
        with pytest.raises(EquilibriumError):
            normalize_distribution(g, {(0, 0): Fraction(1, 2)})
        with pytest.raises(EquilibriumError):
            normalize_distribution(g, {(0, 0): Fraction(3, 2), (1, 1): Fraction(-1, 2)})

    def test_lp_finds_valid_ce(self):
        for game in (battle_of_sexes(), stag_hunt(), prisoners_dilemma()):
            g = game.to_strategic()
            ce = correlated_equilibrium_lp(g)
            assert is_correlated_equilibrium(g, ce)

    def test_lp_ce_maximizes_welfare_in_bos(self):
        g = battle_of_sexes().to_strategic()
        ce = correlated_equilibrium_lp(g)
        welfare = sum(
            prob * sum(g.payoffs(profile), start=Fraction(0))
            for profile, prob in ce.items()
        )
        assert welfare == 3  # all mass on the (2,1)/(1,2) diagonal

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_nash_induces_correlated(self, seed):
        game = random_bimatrix(3, 3, seed=seed)
        eq = lemke_howson(game, 0)
        g = game.to_strategic()
        dist = product_distribution(g, eq)
        assert is_correlated_equilibrium(g, dist)


def two_type_coordination() -> BayesianGame:
    prior = {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2)}

    def payoff(player, types, actions):
        match = 1 if actions[0] == actions[1] else 0
        if player == 0:
            return (2 if actions[0] == types[0] else 1) * match
        return match

    return BayesianGame((2, 1), (2, 2), prior, payoff, name="TypeCoord")


class TestBayesian:
    def test_construction_validation(self):
        with pytest.raises(GameError):
            BayesianGame((2, 1), (2, 2), {(0, 0): Fraction(1, 2)}, lambda *a: 0)
        with pytest.raises(GameError):
            BayesianGame((0, 1), (2, 2), {(0, 0): Fraction(1)}, lambda *a: 0)
        with pytest.raises(GameError):
            BayesianGame((1, 1), (2, 2), {(5, 0): Fraction(1)}, lambda *a: 0)

    def test_type_marginals(self):
        game = two_type_coordination()
        assert game.type_marginal(0, 0) == Fraction(1, 2)
        assert game.type_marginal(1, 0) == 1

    def test_interim_payoffs(self):
        game = two_type_coordination()
        # Player 1 plays action 0; player 0's type-0 interim payoffs:
        strategies = ((0, 0), (0,))
        assert game.interim_payoff(0, 0, 0, strategies) == 2
        assert game.interim_payoff(0, 0, 1, strategies) == 0

    def test_pooling_equilibria(self):
        game = two_type_coordination()
        eqs = bayes_nash_equilibria(game)
        assert ((0, 0), (0,)) in eqs
        assert ((1, 1), (1,)) in eqs
        # Separating profiles are not equilibria here.
        assert ((0, 1), (0,)) not in eqs

    def test_is_bayes_nash_agrees_with_enumeration(self):
        game = two_type_coordination()
        eqs = set(bayes_nash_equilibria(game))
        import itertools

        for s0 in itertools.product(range(2), repeat=2):
            for s1 in itertools.product(range(2), repeat=1):
                assert is_bayes_nash(game, (s0, s1)) == ((s0, s1) in eqs)

    def test_agent_form_equilibria_match(self):
        game = two_type_coordination()
        agent_form, agents = game.to_agent_form()
        agent_pne = set(pure_nash_equilibria(agent_form))
        # Map Bayes-Nash profiles into agent-form profiles.
        for eq in bayes_nash_equilibria(game):
            profile = tuple(
                eq[player][own_type] for (player, own_type) in agents
            )
            assert profile in agent_pne

    def test_strategy_validation(self):
        game = two_type_coordination()
        with pytest.raises(GameError):
            is_bayes_nash(game, ((0,), (0,)))  # wrong type coverage
        with pytest.raises(GameError):
            is_bayes_nash(game, ((0, 5), (0,)))  # invalid action

    def test_describe(self):
        assert "types 2x1" in two_type_coordination().describe()


class TestNewProcedures:
    def test_dominance_procedure(self):
        g = prisoners_dilemma().to_strategic()
        good = Advice(
            game_id="g", agent=0, concept=SolutionConcept.DOMINANT_STRATEGY,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=(1, 1),
            proof={"strict": True},
        )
        bad = Advice(
            game_id="g", agent=0, concept=SolutionConcept.DOMINANT_STRATEGY,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=(0, 0), proof=None,
        )
        proc = DominanceProcedure("v")
        assert proc.verify(g, good, ctx()).accepted
        assert not proc.verify(g, bad, ctx()).accepted

    def test_dominance_procedure_rejects_nash_only_profile(self):
        # BoS (0,0) is Nash but not dominant.
        g = battle_of_sexes().to_strategic()
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.DOMINANT_STRATEGY,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=(0, 0), proof=None,
        )
        assert not DominanceProcedure("v").verify(g, advice, ctx()).accepted

    def test_correlated_procedure(self):
        g = battle_of_sexes().to_strategic()
        device = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
        good = Advice(
            game_id="g", agent=0, concept=SolutionConcept.CORRELATED,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=device, proof=None,
        )
        proc = CorrelatedProcedure("v")
        assert proc.verify(g, good, ctx()).accepted
        malformed = Advice(
            game_id="g", agent=0, concept=SolutionConcept.CORRELATED,
            proof_format=ProofFormat.EMPTY_PROOF,
            suggestion={(0, 0): Fraction(1, 2)}, proof=None,
        )
        verdict = proc.verify(g, malformed, ctx())
        assert not verdict.accepted
        assert "malformed" in verdict.reason

    def test_bayes_procedure(self):
        game = two_type_coordination()
        good = Advice(
            game_id="g", agent=0, concept=SolutionConcept.BAYES_NASH,
            proof_format=ProofFormat.EMPTY_PROOF,
            suggestion=((0, 0), (0,)), proof=None,
        )
        bad = Advice(
            game_id="g", agent=0, concept=SolutionConcept.BAYES_NASH,
            proof_format=ProofFormat.EMPTY_PROOF,
            suggestion=((0, 1), (0,)), proof=None,
        )
        proc = BayesNashProcedure("v")
        assert proc.verify(game, good, ctx()).accepted
        assert not proc.verify(game, bad, ctx()).accepted

    def test_bayes_procedure_needs_bayesian_game(self):
        g = prisoners_dilemma().to_strategic()
        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.BAYES_NASH,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=((0,),), proof=None,
        )
        assert not BayesNashProcedure("v").verify(g, advice, ctx()).accepted

    def test_library_covers_new_concepts(self):
        from repro.core.advice import CONCEPT_LIBRARY

        assert set(CONCEPT_LIBRARY) == set(SolutionConcept)

    def test_bayesian_consult_through_authority(self):
        from repro.core import (AuthorityAgent, RationalityAuthority,
                                standard_procedures)
        from repro.core.actors import AdvicePackage, GameInventor

        game = two_type_coordination()

        class BayesInventor(GameInventor):
            def advise(self, game_id, game_obj, agent, privacy):
                eq = bayes_nash_equilibria(game_obj)[0]
                return AdvicePackage(
                    advice=Advice(
                        game_id=game_id, agent=agent,
                        concept=SolutionConcept.BAYES_NASH,
                        proof_format=ProofFormat.EMPTY_PROOF,
                        suggestion=eq, proof=None, inventor=self.name,
                    )
                )

        authority = RationalityAuthority(seed=13)
        authority.register_verifiers(standard_procedures())
        authority.register_inventor(BayesInventor("bayes-inc"))
        authority.register_agent(AuthorityAgent("joe", player_role=0))
        authority.publish_game("bayes-inc", "bg", game)
        outcome = authority.consult("joe", "bg")
        assert outcome.adopted
        assert "interim" in " ".join(
            v.reason for v in outcome.majority.verdicts
        )


class TestNewInventors:
    def test_correlated_inventor_end_to_end(self):
        from repro.core import (AuthorityAgent, CorrelatedInventor,
                                RationalityAuthority, standard_procedures)
        from repro.games.generators import battle_of_sexes

        authority = RationalityAuthority(seed=31)
        authority.register_verifiers(standard_procedures())
        authority.register_inventor(CorrelatedInventor("device-maker"))
        authority.register_agent(AuthorityAgent("joe"))
        authority.publish_game(
            "device-maker", "bos", battle_of_sexes().to_strategic()
        )
        outcome = authority.consult("joe", "bos")
        assert outcome.adopted
        assert outcome.advice.concept is SolutionConcept.CORRELATED
        # The same game gets the same device on every consultation.
        again = authority.consult("joe", "bos")
        assert again.advice.suggestion == outcome.advice.suggestion

    def test_extensive_inventor_end_to_end(self):
        from repro.core import (AuthorityAgent, ExtensiveFormInventor,
                                RationalityAuthority, standard_procedures)
        from repro.games import ultimatum_game

        authority = RationalityAuthority(seed=32)
        authority.register_verifiers(standard_procedures())
        authority.register_inventor(ExtensiveFormInventor("sequential"))
        authority.register_agent(AuthorityAgent("joe"))
        authority.publish_game("sequential", "ult", ultimatum_game(4))
        outcome = authority.consult("joe", "ult")
        assert outcome.adopted
        assert outcome.advice.suggestion["offer"] == 0
        assert "subgame" in outcome.concept_notice

    def test_extensive_inventor_rejects_wrong_game(self):
        from repro.core import ExtensiveFormInventor
        from repro.errors import ProtocolError
        from repro.games.generators import prisoners_dilemma

        inventor = ExtensiveFormInventor("sequential")
        with pytest.raises(ProtocolError):
            inventor.advise("g", prisoners_dilemma().to_strategic(), 0, "open")

    def test_corrupted_spe_advice_rejected(self):
        """A misadvising wrapper around the extensive-form inventor: the
        tampered plan fails the one-shot-deviation check."""
        from repro.core import (AuthorityAgent, ExtensiveFormInventor,
                                MisadvisingInventor, RationalityAuthority,
                                standard_procedures)
        from repro.games import ultimatum_game

        def corrupt(strategy):
            tampered = dict(strategy)
            tampered["respond-2"] = 1  # reject a positive offer
            tampered["offer"] = 3
            return tampered

        authority = RationalityAuthority(seed=33)
        authority.register_verifiers(standard_procedures())
        evil = MisadvisingInventor(
            "evil-seq", ExtensiveFormInventor("inner"), corrupt
        )
        authority.register_inventor(evil)
        authority.register_agent(AuthorityAgent("joe"))
        authority.publish_game("evil-seq", "ult", ultimatum_game(4))
        outcome = authority.consult("joe", "ult")
        assert not outcome.adopted
        assert authority.audit.blame_counts().get("evil-seq") == 1
