"""The decide stage, the padded-stack screen and the first-hit schedule.

Support enumeration screens each side of a chunk's Lemma-1 systems as
one zero-padded numpy stack.  These tests pin that padding changes
nothing: every pair's verdict equals the one its two systems earn when
screened alone, iteration caps included, and the first equilibrium
found does not depend on how the pairs are chunked.  They also pin the
exact decide stage in front of the screen: every pair it drops has no
equilibrium, no equilibrium's support pair is dropped, and a dropped
pair never reaches the screen or the exact LP.
"""

from __future__ import annotations

import hashlib
import importlib
import threading
from fractions import Fraction

import pytest

from repro.equilibria.mixed import is_mixed_nash
from repro.equilibria.support_enumeration import (
    SCREEN_EXACT,
    SCREEN_PRUNED,
    _feasibility_rows,
    _triage,
    decide_support_pairs,
    equilibrium_for_supports,
    find_one_equilibrium,
    screen_support_chunk,
    support_enumeration,
    support_pairs,
)
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.linalg.backend import (
    FLOAT_BACKEND,
    INCONCLUSIVE,
    MODE_NUMPY,
    NUMPY_BACKEND,
    BackendPolicy,
    float_matrix,
    numpy_available,
)
from repro.rng import make_rng

# The package re-exports the function under the module's name.
se = importlib.import_module("repro.equilibria.support_enumeration")

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="needs numpy (stdlib-only run)"
)

SHAPES = [(3, 3), (5, 5), (4, 6), (6, 4), (3, 7)]


def _degenerate(n: int, m: int, seed: int) -> BimatrixGame:
    """Payoffs in {-1, 0, 1}: ties everywhere, the hard case for pivoting."""
    rng = make_rng(seed, "stacked-screen:degenerate")
    a = [[rng.choice((-1, 0, 1)) for _ in range(m)] for _ in range(n)]
    b = [[rng.choice((-1, 0, 1)) for _ in range(m)] for _ in range(n)]
    return BimatrixGame(a, b, name=f"Degenerate({n}x{m}, seed={seed})")


def _corpus():
    games = []
    for n, m in SHAPES:
        for seed in range(2):
            games.append(random_bimatrix(n, m, seed=4100 + 10 * seed + n * m))
            games.append(_degenerate(n, m, 4200 + 10 * seed + n * m))
    return games


def _screened_alone(backend, game, pairs):
    """The reference: every Lemma-1 system built as lists, screened alone."""
    a_rows = float_matrix(game.row_matrix)
    b_cols = float_matrix(game.column_matrix_transposed)
    verdicts = []
    for rs, cs in pairs:
        y_point = backend.screen_feasible(
            [_feasibility_rows(a_rows, rs, cs, 0.0, 1.0)[:2]]
        )[0]
        x_point = None
        if y_point is INCONCLUSIVE:
            x_point = INCONCLUSIVE
        elif y_point is not None:
            x_point = backend.screen_feasible(
                [_feasibility_rows(b_cols, cs, rs, 0.0, 1.0)[:2]]
            )[0]
        verdicts.append(_triage(y_point, x_point, rs, cs, backend.support_tol))
    return verdicts


def _screened_stacked(backend, game, pairs):
    return screen_support_chunk(
        backend,
        backend.float_payoffs(game.row_matrix),
        backend.float_payoffs(game.column_matrix_transposed),
        pairs,
    )


@requires_numpy
class TestStackedVerdicts:
    @pytest.mark.parametrize("game", _corpus(), ids=lambda g: g.name)
    def test_each_pair_matches_its_systems_screened_alone(self, game):
        pairs = list(support_pairs(*game.action_counts))
        stacked = _screened_stacked(NUMPY_BACKEND, game, pairs)
        assert stacked == _screened_alone(NUMPY_BACKEND, game, pairs)

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 8])
    def test_padded_system_hits_its_own_iteration_cap(self, cap):
        from repro.linalg.numpy_backend import NumpyBackend

        backend = NumpyBackend(max_iterations=cap)
        inconclusive = 0
        for game in (random_bimatrix(5, 5, seed=4300), _degenerate(4, 6, 4301)):
            pairs = list(support_pairs(*game.action_counts))
            stacked = _screened_stacked(backend, game, pairs)
            assert stacked == _screened_alone(backend, game, pairs)
            inconclusive += stacked.count((SCREEN_EXACT,))
        if cap <= 3:
            assert inconclusive > 0  # the cap really binds

    def test_mixed_shapes_pad_into_one_stack(self):
        from repro.linalg.numpy_backend import NumpyBackend

        rng = make_rng(4400, "stacked-screen:generic")
        systems = []
        for __ in range(60):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 6)
            systems.append((
                [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)],
                [rng.randint(-5, 5) for _ in range(nrows)],
            ))
        for backend in (NUMPY_BACKEND, NumpyBackend(max_iterations=2)):
            alone = [backend.screen_feasible([system])[0] for system in systems]
            assert backend.screen_feasible(systems) == alone


@requires_numpy
class TestWaveSchedule:
    @pytest.mark.parametrize("game", _corpus(), ids=lambda g: g.name)
    def test_answer_independent_of_chunking(self, game):
        expected = find_one_equilibrium(game, policy="numpy")
        assert is_mixed_nash(game, expected)
        for chunk_size in (1, 7, 1024):
            policy = BackendPolicy(MODE_NUMPY, chunk_size=chunk_size)
            found = find_one_equilibrium(game, policy=policy)
            assert found.distributions == expected.distributions

    def test_answer_is_repeatable(self):
        for game in (random_bimatrix(5, 5, seed=4500), _degenerate(6, 4, 4501)):
            expected = find_one_equilibrium(game, policy="numpy")
            policy = BackendPolicy(MODE_NUMPY)
            found = find_one_equilibrium(game, policy=policy)
            assert found.distributions == expected.distributions


def _support_of(profile):
    return tuple(
        tuple(i for i, p in enumerate(dist) if p)
        for dist in profile.distributions
    )


class TestScreenVerdicts:
    """Both screen paths keep every pair that carries an equilibrium."""

    @pytest.mark.parametrize("backend", [
        pytest.param(FLOAT_BACKEND, id="scalar-float"),
        pytest.param(NUMPY_BACKEND, id="stacked-numpy", marks=requires_numpy),
    ])
    @pytest.mark.parametrize("shape", [(3, 3), (4, 6), (5, 5)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_equilibrium_supports_survive_the_screen(self, backend, shape):
        game = random_bimatrix(*shape, seed=4600 + shape[0] * shape[1])
        pairs = list(support_pairs(*game.action_counts))
        verdicts = _screened_stacked(backend, game, pairs)
        assert len(verdicts) == len(pairs)
        verdict_of = dict(zip(pairs, verdicts))
        equilibria = support_enumeration(game)
        assert equilibria
        for profile in equilibria:
            assert verdict_of[_support_of(profile)] != (SCREEN_PRUNED,)


#: SHA-256 over the corpus's first-hit and full-enumeration answers.
#: The three policies agree on every game, so they share one digest;
#: a change to it means a served answer changed.
ANSWER_DIGEST = (
    "1b309d5f0d7837567c4754de8bb8e89af68fa93ed6002db514b1a24c48105967"
)


def _answer_line(game, kind, profile):
    cells = "|".join(
        ",".join(str(p) for p in dist) for dist in profile.distributions
    )
    return f"{game.name}:{kind}:{cells}\n".encode()


class TestAnswersPinned:
    @pytest.mark.parametrize("policy", ["exact", "float+certify", "numpy"])
    def test_answers_match_the_recorded_digest(self, policy):
        digest = hashlib.sha256()
        for game in _corpus():
            first = find_one_equilibrium(game, policy=policy)
            digest.update(_answer_line(game, "one", first))
            for profile in support_enumeration(game, policy=policy):
                digest.update(_answer_line(game, "all", profile))
        assert digest.hexdigest() == ANSWER_DIGEST


class TestInProcessSearch:
    @pytest.mark.parametrize("policy", ["exact", "float+certify", "numpy"])
    def test_search_starts_no_thread_or_process(self, policy, monkeypatch):
        import multiprocessing.process

        started = []

        def refuse(worker, *args, **kwargs):
            started.append(worker)
            raise AssertionError(f"the search started {worker!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "start", refuse
        )
        for game in (random_bimatrix(5, 5, seed=4700), _degenerate(4, 6, 4701)):
            found = find_one_equilibrium(game, policy=policy)
            assert is_mixed_nash(game, found)
            assert found in support_enumeration(game, policy=policy)
        monkeypatch.undo()
        assert started == []


def _near_tie(n: int, m: int, seed: int) -> BimatrixGame:
    """{-1, 0, 1} payoffs nudged by multiples of 1e-9: exact order, float ties."""
    rng = make_rng(seed, "stacked-screen:near-tie")
    nudge = Fraction(1, 10**9)

    def cell():
        return rng.choice((-1, 0, 1)) + rng.choice((-1, 0, 0, 1)) * nudge

    a = [[cell() for _ in range(m)] for _ in range(n)]
    b = [[cell() for _ in range(m)] for _ in range(n)]
    return BimatrixGame(a, b, name=f"NearTie({n}x{m}, seed={seed})")


def _decide_corpus():
    games = []
    for n, m in SHAPES:
        games.append(random_bimatrix(n, m, seed=4800 + n * m))
        games.append(_degenerate(n, m, 4900 + n * m))
        games.append(_near_tie(n, m, 5000 + n * m))
    return games


def _rejected(game):
    pairs = list(support_pairs(*game.action_counts))
    kept = set(decide_support_pairs(game, pairs))
    return {pair for pair in pairs if pair not in kept}


class TestDecideStage:
    """Exact one-action comparisons drop pairs before the screen."""

    @pytest.mark.parametrize("game", _decide_corpus(), ids=lambda g: g.name)
    def test_every_rejected_pair_is_infeasible(self, game):
        pairs = list(support_pairs(*game.action_counts))
        kept = list(decide_support_pairs(game, pairs))
        assert kept == [pair for pair in pairs if pair in set(kept)]
        rejected = _rejected(game)
        assert rejected  # the stage has something to decide here
        for rs, cs in sorted(rejected):
            assert min(len(rs), len(cs)) == 1
            assert equilibrium_for_supports(game, rs, cs) is None, (rs, cs)

    @pytest.mark.parametrize("game", _decide_corpus(), ids=lambda g: g.name)
    def test_no_equilibrium_support_is_rejected(self, game):
        rejected = _rejected(game)
        equilibria = support_enumeration(game)
        assert equilibria
        for profile in equilibria:
            assert _support_of(profile) not in rejected

    @pytest.mark.parametrize("policy", ["exact", "float+certify", "numpy"])
    @pytest.mark.parametrize("game", _decide_corpus(), ids=lambda g: g.name)
    def test_rejected_pairs_reach_neither_screen_nor_lp(
        self, game, policy, monkeypatch
    ):
        seen = []
        real_screen = se.screen_support_chunk
        real_lp = se.equilibrium_for_supports

        def screen(backend, a_float, b_cols_float, pairs):
            seen.extend(pairs)
            return real_screen(backend, a_float, b_cols_float, pairs)

        def lp(game, rs, cs, *args, **kwargs):
            seen.append((tuple(rs), tuple(cs)))
            return real_lp(game, rs, cs, *args, **kwargs)

        monkeypatch.setattr(se, "screen_support_chunk", screen)
        monkeypatch.setattr(se, "equilibrium_for_supports", lp)
        found = find_one_equilibrium(game, policy=policy)
        everything = support_enumeration(game, policy=policy)
        monkeypatch.undo()
        assert seen
        assert not set(seen) & _rejected(game)
        assert found in everything
