"""Tests for the game substrate: strategic, bimatrix, symmetric,
participation and congestion games."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GameError, ProfileError
from repro.games import (
    BimatrixGame,
    COLUMN,
    CommodityDemand,
    LinearDelay,
    MixedProfile,
    Network,
    NetworkCongestionGame,
    ParticipationGame,
    ROW,
    StrategicGame,
    SymmetricTwoActionGame,
    binomial_pmf,
    binomial_tail_at_least,
    binomial_tail_at_most,
    is_symmetric,
    parallel_links_network,
)
from repro.games.congestion import AffineDelay, PolynomialDelay
from repro.games.generators import (
    battle_of_sexes,
    coordination_game,
    matching_pennies,
    prisoners_dilemma,
    pure_dominance_game,
    random_bimatrix,
    random_coordination,
    random_strategic,
    random_zero_sum,
)

probability_st = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1), max_denominator=16
)


class TestStrategicGame:
    def test_two_player_table(self):
        g = StrategicGame.two_player([[1, 2], [3, 4]], [[5, 6], [7, 8]])
        assert g.payoff(0, (0, 1)) == 2
        assert g.payoff(1, (1, 0)) == 7
        assert g.payoffs((1, 1)) == (Fraction(4), Fraction(8))

    def test_missing_profile_rejected(self):
        with pytest.raises(GameError):
            StrategicGame((2, 2), {(0, 0): (1, 1)})

    def test_alien_profile_rejected(self):
        table = {p: (0, 0) for p in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        table[(2, 2)] = (0, 0)
        with pytest.raises(GameError):
            StrategicGame((2, 2), table)

    def test_wrong_payoff_arity_rejected(self):
        table = {p: (0,) for p in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        with pytest.raises(GameError):
            StrategicGame((2, 2), table)

    def test_from_payoff_function(self):
        g = StrategicGame.from_payoff_function((2, 2), lambda i, p: sum(p) + i)
        assert g.payoff(1, (1, 1)) == 3

    def test_payoff_range(self):
        g = StrategicGame.two_player([[1, 5], [0, 2]], [[0, 0], [0, 0]])
        assert g.payoff_range() == (Fraction(0), Fraction(5))

    def test_scale_preserves_sign_structure(self):
        g = prisoners_dilemma().to_strategic()
        scaled = g.scale_payoffs(Fraction(3, 2))
        assert scaled.payoff(0, (0, 0)) == Fraction(-3, 2)

    def test_scale_rejects_nonpositive(self):
        g = prisoners_dilemma().to_strategic()
        with pytest.raises(GameError):
            g.scale_payoffs(0)

    def test_translate_single_player(self):
        g = prisoners_dilemma().to_strategic()
        shifted = g.translate_payoffs(0, 10)
        assert shifted.payoff(0, (0, 0)) == 9
        assert shifted.payoff(1, (0, 0)) == g.payoff(1, (0, 0))

    def test_expected_payoff_uniform(self):
        g = StrategicGame.two_player([[4, 0], [0, 0]], [[0, 0], [0, 0]])
        mp = MixedProfile.uniform((2, 2))
        assert g.expected_payoff(0, mp) == 1

    def test_zero_actions_rejected(self):
        with pytest.raises(GameError):
            StrategicGame.from_payoff_function((0, 2), lambda i, p: 0)


class TestBimatrixGame:
    def test_shape_validation(self):
        with pytest.raises(GameError):
            BimatrixGame([[1, 2]], [[1], [2]])

    def test_payoff_lookup(self, fig5_game):
        assert fig5_game.payoff(ROW, (1, 1)) == 2
        assert fig5_game.payoff(COLUMN, (1, 1)) == 0

    def test_player_out_of_range(self, fig5_game):
        with pytest.raises(GameError):
            fig5_game.payoff(2, (0, 0))

    def test_bilinear_expected_payoff_matches_enumeration(self, fig5_game):
        mp = MixedProfile.from_rows([["1/3", "2/3"], ["1/4", "3/4"]])
        strategic = fig5_game.to_strategic()
        for player in (ROW, COLUMN):
            assert fig5_game.expected_payoff(player, mp) == strategic.expected_payoff(
                player, mp
            )

    def test_row_payoffs_against(self, fig5_game):
        gains = fig5_game.row_payoffs_against(["1/2", "1/2"])
        assert gains == (Fraction(1), Fraction(1))

    def test_column_payoffs_against(self, fig5_game):
        gains = fig5_game.column_payoffs_against([1, 0])
        assert gains == (Fraction(1), Fraction(1))

    def test_payoffs_against_dispatch(self, fig5_game):
        assert fig5_game.payoffs_against(ROW, ["1/2", "1/2"]) == \
            fig5_game.row_payoffs_against(["1/2", "1/2"])

    def test_transpose_swaps_roles(self, bos):
        t = bos.transpose()
        assert t.payoff(ROW, (0, 1)) == bos.payoff(COLUMN, (1, 0))

    def test_zero_sum(self):
        g = BimatrixGame.zero_sum([[1, -2], [3, 0]])
        for profile in g.enumerate_profiles():
            assert g.payoff(ROW, profile) + g.payoff(COLUMN, profile) == 0

    def test_mixed_profile_shape_enforced(self, bos):
        with pytest.raises(ProfileError):
            bos.expected_payoff(ROW, MixedProfile.uniform((3, 2)))


class TestSymmetricGame:
    def test_binomial_pmf_sums_to_one(self):
        p = Fraction(1, 3)
        total = sum(binomial_pmf(k, 5, p) for k in range(6))
        assert total == 1

    def test_tails_are_complementary(self):
        p = Fraction(2, 7)
        for k in range(7):
            assert binomial_tail_at_least(k, 6, p) + binomial_tail_at_most(
                k - 1, 6, p
            ) == 1

    def test_tail_edge_cases(self):
        assert binomial_tail_at_least(0, 4, Fraction(1, 2)) == 1
        assert binomial_tail_at_least(5, 4, Fraction(1, 2)) == 0

    @given(probability_st, st.integers(min_value=1, max_value=8))
    def test_pmf_nonnegative(self, p, n):
        assert all(binomial_pmf(k, n, p) >= 0 for k in range(n + 1))

    def test_symmetric_game_payoff_depends_on_count_only(self):
        g = SymmetricTwoActionGame(3, lambda a, x: a * 10 + x)
        assert g.payoff(0, (1, 0, 1)) == g.payoff(2, (1, 0, 1))
        assert g.payoff(0, (1, 1, 0)) == g.payoff(0, (1, 0, 1))

    def test_expected_payoff_of_action_at_extremes(self):
        g = SymmetricTwoActionGame(3, lambda a, x: a * 10 + x)
        assert g.expected_payoff_of_action(1, 0) == 10
        assert g.expected_payoff_of_action(1, 1) == 12

    def test_indifference_gap_sign(self):
        # Action 1 always pays 1 more: gap is constantly 1.
        g = SymmetricTwoActionGame(4, lambda a, x: a)
        assert g.indifference_gap(Fraction(1, 3)) == 1
        assert g.is_symmetric_equilibrium(1)
        assert not g.is_symmetric_equilibrium(0)
        assert not g.is_symmetric_equilibrium(Fraction(1, 2))

    def test_symmetric_payoff_mixes_actions(self):
        g = SymmetricTwoActionGame(2, lambda a, x: a)
        assert g.symmetric_payoff(Fraction(1, 4)) == Fraction(1, 4)

    def test_to_strategic_round_trip(self):
        g = SymmetricTwoActionGame(3, lambda a, x: a * 2 + x)
        s = g.to_strategic()
        for profile in s.enumerate_profiles():
            for player in range(3):
                assert s.payoff(player, profile) == g.payoff(player, profile)

    def test_needs_two_players(self):
        with pytest.raises(GameError):
            SymmetricTwoActionGame(1, lambda a, x: 0)

    def test_is_symmetric_matrix_check(self):
        a = [[1, 2], [3, 4]]
        b = [[1, 3], [2, 4]]
        assert is_symmetric(a, b)
        assert not is_symmetric(a, a)
        assert not is_symmetric([[1, 2]], [[1], [2]])


class TestParticipationGame:
    def test_paper_rules(self, paper_participation_game):
        g = paper_participation_game
        v, c = g.value, g.cost
        # participate, enough total participants
        assert g.compact_payoff(1, 1) == v - c
        assert g.compact_payoff(1, 2) == v - c
        # participate alone: pay c
        assert g.compact_payoff(1, 0) == -c
        # stay out with >= k others in: v
        assert g.compact_payoff(0, 2) == v
        # stay out with < k others: 0
        assert g.compact_payoff(0, 1) == 0
        assert g.compact_payoff(0, 0) == 0

    def test_parameter_validation(self):
        with pytest.raises(GameError):
            ParticipationGame(3, value=0, cost=1)
        with pytest.raises(GameError):
            ParticipationGame(3, value=5, cost=0)
        with pytest.raises(GameError):
            ParticipationGame(3, value=3, cost=3)  # needs v - c > 0
        with pytest.raises(GameError):
            ParticipationGame(3, value=8, cost=3, threshold=4)
        with pytest.raises(GameError):
            ParticipationGame(3, value=8, cost=3, threshold=1)

    def test_conditionals_partition(self, paper_participation_game):
        cond = paper_participation_game.conditionals(Fraction(1, 4))
        assert cond.check_totals()

    def test_conditionals_values_at_paper_point(self, paper_participation_game):
        cond = paper_participation_game.conditionals(Fraction(1, 4))
        # X ~ Binomial(2, 1/4): P[X>=1] = 7/16, P[X=0] = 9/16, P[X>=2] = 1/16.
        assert cond.a_k == Fraction(7, 16)
        assert cond.b_k == Fraction(9, 16)
        assert cond.c_k == Fraction(1, 16)
        assert cond.d_k == Fraction(15, 16)

    def test_eq4_equals_eq5_for_k2(self, paper_participation_game):
        g = paper_participation_game
        for p in (Fraction(1, 8), Fraction(1, 4), Fraction(2, 3)):
            # Both gaps must agree in sign and zero-set.
            gap5 = g.indifference_identity_gap(p)
            gap4 = g.closed_form_gap(p)
            assert (gap5 == 0) == (gap4 == 0)

    def test_closed_form_requires_k2(self):
        g = ParticipationGame(5, value=8, cost=1, threshold=3)
        with pytest.raises(GameError):
            g.closed_form_gap(Fraction(1, 2))

    def test_verify_equilibrium_paper_values(self, paper_participation_game):
        g = paper_participation_game
        assert g.verify_equilibrium(Fraction(1, 4))
        assert g.verify_equilibrium(Fraction(3, 4))
        assert not g.verify_equilibrium(Fraction(1, 2))
        assert not g.verify_equilibrium(Fraction(5, 4))
        assert not g.verify_equilibrium(Fraction(-1, 4))

    def test_boundary_p_zero(self, paper_participation_game):
        # p = 0: participating alone loses c, staying out gains 0 -> equilibrium.
        assert paper_participation_game.verify_equilibrium(0)

    def test_expected_gain_paper_value(self, paper_participation_game):
        g = paper_participation_game
        assert g.equilibrium_expected_gain(Fraction(1, 4)) == g.value / 16


class TestNetworksAndCongestion:
    def test_delay_functions(self):
        assert LinearDelay(2)(3) == 6
        assert AffineDelay(2, 1)(3) == 7
        assert PolynomialDelay((1, 0, 1))(2) == 5

    def test_delay_validation(self):
        with pytest.raises(GameError):
            LinearDelay(-1)
        with pytest.raises(GameError):
            AffineDelay(1, -1)
        with pytest.raises(GameError):
            PolynomialDelay((-1,))

    def test_parallel_links_network(self):
        net = parallel_links_network(3)
        assert net.num_arcs == 3
        paths = net.simple_arc_paths("s", "t")
        assert paths == ((0,), (1,), (2,))

    def test_path_validation(self):
        net = parallel_links_network(2)
        assert net.validate_path((1,), "s", "t") == (1,)
        with pytest.raises(GameError):
            net.validate_path((0,), "t", "s")
        with pytest.raises(GameError):
            net.validate_path((), "s", "t")

    def test_best_reply_path_includes_own_load(self):
        net = parallel_links_network(2)
        path, delay = net.best_reply_path("s", "t", 2, {0: Fraction(1)})
        assert path == (1,)
        assert delay == 2

    def test_best_reply_tie_breaks_to_first(self):
        net = parallel_links_network(2)
        path, __ = net.best_reply_path("s", "t", 1, {})
        assert path == (0,)

    def test_congestion_game_delays(self):
        net = parallel_links_network(2)
        demands = [
            CommodityDemand("s", "t", Fraction(1)),
            CommodityDemand("s", "t", Fraction(2)),
        ]
        game = NetworkCongestionGame(net, demands)
        # Both on link 0: loads 3 on arc0.
        assert game.agent_delay(0, (0, 0)) == 3
        assert game.agent_delay(1, (0, 0)) == 3
        # Split: each sees its own load.
        assert game.agent_delay(0, (0, 1)) == 1
        assert game.agent_delay(1, (0, 1)) == 2
        assert game.total_congestion((0, 1)) == 3
        assert game.payoff(0, (0, 1)) == -1

    def test_congestion_game_requires_route(self):
        net = Network()
        net.add_node("s")
        net.add_node("t")
        with pytest.raises(GameError):
            NetworkCongestionGame(net, [CommodityDemand("s", "t", Fraction(1))])

    def test_unknown_endpoint(self):
        net = parallel_links_network(1)
        with pytest.raises(GameError):
            net.simple_arc_paths("s", "nowhere")

    def test_unhashable_endpoint_is_unknown(self):
        net = parallel_links_network(1)
        with pytest.raises(GameError, match="unknown endpoint"):
            net.simple_arc_paths(["s"], "t")


class _RecordedNetwork(Network):
    """A :class:`Network` that records how it was built, for replay."""

    def __init__(self, name: str = ""):
        super().__init__(name)
        self.calls: list[tuple] = []

    def add_node(self, node):
        self.calls.append(("node", node))
        super().add_node(node)

    def add_arc(self, source, target, delay=None):
        self.calls.append(("arc", source, target))
        return super().add_arc(source, target, delay)


class TestPathsMatchNetworkx:
    """The stdlib path search returns what ``networkx`` returns.

    Each network's construction is replayed into an ``nx.MultiDiGraph``
    (arc ids as edge keys), and every ordered pair of its nodes, plus an
    unknown one, is queried on both sides.
    """

    @pytest.fixture()
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def _replay(nx, calls):
        graph = nx.MultiDiGraph()
        arc_ids = iter(range(len(calls)))
        for call in calls:
            if call[0] == "node":
                graph.add_node(call[1])
            else:
                graph.add_edge(call[1], call[2], key=next(arc_ids))
        return graph

    def assert_matches(self, nx, net):
        graph = self._replay(nx, net.calls)
        assert net.nodes() == tuple(graph.nodes())
        endpoints = [*graph.nodes(), "nowhere"]
        for source in endpoints:
            for sink in endpoints:
                if source not in graph or sink not in graph:
                    with pytest.raises(GameError, match="unknown endpoint"):
                        net.simple_arc_paths(source, sink)
                    continue
                expected = sorted(
                    (tuple(key for _u, _v, key in path)
                     for path in nx.all_simple_edge_paths(graph, source, sink)),
                    key=lambda p: (len(p), p),
                )
                assert net.simple_arc_paths(source, sink) == tuple(expected)

    def test_fig6_diamond(self, nx, monkeypatch):
        from repro.online import fig6

        monkeypatch.setattr(fig6, "Network", _RecordedNetwork)
        net = fig6.diamond_network()
        assert net.simple_arc_paths("a", "d") == ((0, 1), (2, 3))
        self.assert_matches(nx, net)

    @pytest.mark.parametrize("links", [1, 2, 3, 4])
    def test_parallel_links(self, nx, monkeypatch, links):
        from repro.games import congestion

        monkeypatch.setattr(congestion, "Network", _RecordedNetwork)
        net = congestion.parallel_links_network(links)
        assert net.simple_arc_paths("s", "t") == tuple((i,) for i in range(links))
        self.assert_matches(nx, net)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_multigraphs(self, nx, seed):
        rng = random.Random(seed)
        names = [f"v{i}" for i in range(rng.randint(1, 5))]
        rng.shuffle(names)
        net = _RecordedNetwork()
        for name in rng.sample(names, rng.randint(0, len(names))):
            net.add_node(name)
        for _ in range(rng.randint(0, 9)):
            source, target = rng.choice(names), rng.choice(names)
            net.add_arc(source, target)
            roll = rng.random()
            if roll < 0.25:
                net.add_arc(source, target)  # a parallel arc
            elif roll < 0.5:
                net.add_arc(target, source)  # a reverse arc
        self.assert_matches(nx, net)

    def test_source_equal_to_sink_is_one_empty_path(self, nx):
        net = _RecordedNetwork()
        net.add_arc("s", "t")
        net.add_arc("t", "s")
        net.add_arc("s", "s")
        assert net.simple_arc_paths("s", "s") == ((),)
        self.assert_matches(nx, net)

    def test_unreachable_sink_has_no_path(self, nx):
        net = _RecordedNetwork()
        net.add_arc("s", "t")
        net.add_node("u")
        assert net.simple_arc_paths("s", "u") == ()
        assert net.simple_arc_paths("t", "s") == ()
        self.assert_matches(nx, net)


class TestGenerators:
    def test_classics_have_expected_shapes(self):
        assert matching_pennies().action_counts == (2, 2)
        assert battle_of_sexes().action_counts == (2, 2)
        assert coordination_game().action_counts == (2, 2)

    def test_random_bimatrix_deterministic(self):
        a = random_bimatrix(3, 4, seed=7)
        b = random_bimatrix(3, 4, seed=7)
        assert a.row_matrix == b.row_matrix
        assert a.column_matrix == b.column_matrix

    def test_random_bimatrix_seed_sensitivity(self):
        a = random_bimatrix(3, 4, seed=7)
        b = random_bimatrix(3, 4, seed=8)
        assert a.row_matrix != b.row_matrix

    def test_random_zero_sum_is_zero_sum(self):
        g = random_zero_sum(3, 3, seed=1)
        for profile in g.enumerate_profiles():
            assert g.payoff(0, profile) + g.payoff(1, profile) == 0

    def test_random_coordination_is_common_payoff(self):
        g = random_coordination(3, seed=2)
        for profile in g.enumerate_profiles():
            assert g.payoff(0, profile) == g.payoff(1, profile)

    def test_random_strategic_deterministic(self):
        a = random_strategic((2, 2, 2), seed=5)
        b = random_strategic((2, 2, 2), seed=5)
        for profile in a.enumerate_profiles():
            assert a.payoffs(profile) == b.payoffs(profile)

    def test_pure_dominance_game(self):
        g = pure_dominance_game()
        # Action 1 strictly dominates for every player.
        for profile in g.enumerate_profiles():
            for player in range(3):
                if profile[player] == 0:
                    better = profile[:player] + (1,) + profile[player + 1:]
                    assert g.payoff(player, better) > g.payoff(player, profile)
