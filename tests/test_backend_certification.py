"""Property tests for the certification gate of the two-phase pipeline.

The contract under test: *no approximate profile ever escapes to core*.
Whatever the float search produces — correct points, garbage points, or
blanket infeasibility claims — everything the solver layer returns must
pass the seed's exact Nash checker, because candidates are reconstructed
as Fractions and certified before release, and failures fall back to the
exact path.
"""

from __future__ import annotations

import importlib

import pytest

from repro.equilibria.lemke_howson import lemke_howson_all
from repro.equilibria.mixed import certify_mixed_profile, is_mixed_nash
from repro.equilibria.support_enumeration import (
    decide_support_pairs,
    find_one_equilibrium,
    support_enumeration,
    support_pairs,
)
from repro.games.generators import random_bimatrix
from repro.linalg.backend import FloatBackend, numpy_available, resolve_policy
from repro.rng import make_rng

# The package re-exports the function under the module's name.
se = importlib.import_module("repro.equilibria.support_enumeration")

SEEDS = tuple(range(12))


def _shapes(seed):
    rng = make_rng(seed, "certification:shape")
    return rng.randint(2, 4), rng.randint(2, 4)


class TestFloatPipelineSoundness:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_float_equilibrium_is_exactly_certified(self, seed):
        n, m = _shapes(seed)
        game = random_bimatrix(n, m, seed=seed)
        for profile in support_enumeration(game, policy="float+certify"):
            assert is_mixed_nash(game, profile)
            assert certify_mixed_profile(game, profile) is profile

    @pytest.mark.parametrize("seed", SEEDS)
    def test_float_set_matches_exact_set(self, seed):
        n, m = _shapes(seed)
        game = random_bimatrix(n, m, seed=seed)
        exact = {p.distributions for p in support_enumeration(game)}
        fast = {
            p.distributions
            for p in support_enumeration(game, policy="float+certify")
        }
        assert exact == fast

    @pytest.mark.parametrize("seed", SEEDS)
    def test_find_one_and_lemke_howson_certify(self, seed):
        n, m = _shapes(seed)
        game = random_bimatrix(n, m, seed=seed)
        assert is_mixed_nash(game, find_one_equilibrium(game, policy="float+certify"))
        for profile in lemke_howson_all(game, policy="float+certify"):
            assert is_mixed_nash(game, profile)


class _LyingStdlib(FloatBackend):
    """The stdlib screen with a lying ``find_feasible_point``."""

    name = "lying-stdlib"

    def __init__(self, answer):
        self.answer = answer
        self.calls = 0

    def find_feasible_point(self, a_eq, b_eq):
        self.calls += 1
        return self.answer(len(a_eq[0]) if a_eq else 0)


def _lying_numpy(answer):
    """The numpy screen with a lying ``screen_feasible``."""
    from repro.linalg.numpy_backend import NumpyBackend

    class LyingNumpy(NumpyBackend):
        name = "lying-numpy"
        calls = 0

        def screen_feasible(self, stack):
            self.calls += 1
            batch, __, ncols = stack.a.shape
            return [answer(ncols) for __ in range(batch)]

    return LyingNumpy()


def _garbage(ncols):
    """Claims feasibility and returns nonsense: not feasible, not a
    distribution, not anything."""
    return [0.7] * ncols


def _blanket_no(ncols):
    """Claims every system is infeasible (maximally aggressive pruning)."""
    return None


#: The shared backend each float policy resolves to, and how to make a
#: liar of it.
LIARS = [
    pytest.param("float+certify", "FLOAT_BACKEND", _LyingStdlib, id="stdlib"),
    pytest.param(
        "numpy", "NUMPY_BACKEND", _lying_numpy, id="numpy",
        marks=pytest.mark.skipif(
            not numpy_available(), reason="needs numpy (stdlib-only run)"
        ),
    ),
]


def _games_without_a_pure_equilibrium(count: int = 6):
    """Random games whose decided pair stream holds no pure pair, so a
    first-hit scan screens before it answers and, when every pair is
    pruned, has no pure pair to fall back on."""
    games = []
    seed = 0
    while len(games) < count:
        n, m = _shapes(seed)
        game = random_bimatrix(n, m, seed=seed)
        seed += 1
        decided = decide_support_pairs(game, support_pairs(n, m))
        if all(len(rs) > 1 or len(cs) > 1 for rs, cs in decided):
            games.append(game)
    return games


class TestAdversarialBackends:
    """Even a lying backend cannot push an uncertified profile out."""

    @pytest.mark.parametrize("policy, shared, liar", LIARS)
    def test_garbage_points_never_escape(
        self, policy, shared, liar, monkeypatch
    ):
        import repro.linalg.backend as backend_mod

        lying = liar(_garbage)
        monkeypatch.setattr(backend_mod, shared, lying)
        # A garbage feasibility claim forces the exact reconstruction;
        # whatever survives it satisfies the exact side conditions, so
        # every emitted profile must be an exact Nash equilibrium.
        for game in _games_without_a_pure_equilibrium():
            found = find_one_equilibrium(game, policy=policy)
            assert certify_mixed_profile(game, found) is found
            everything = support_enumeration(game, policy=policy)
            assert everything
            for profile in everything:
                assert certify_mixed_profile(game, profile) is profile
        assert lying.calls > 0

    @pytest.mark.parametrize("policy, shared, liar", LIARS)
    def test_blanket_pruning_still_yields_an_exact_equilibrium(
        self, policy, shared, liar, monkeypatch
    ):
        import repro.linalg.backend as backend_mod

        lying = liar(_blanket_no)
        monkeypatch.setattr(backend_mod, shared, lying)
        searched = []
        real_setup = se._search_setup

        def recording_setup(game, policy):
            searched.append(resolve_policy(policy).mode)
            return real_setup(game, policy)

        monkeypatch.setattr(se, "_search_setup", recording_setup)
        for game in _games_without_a_pure_equilibrium():
            # find_one_equilibrium rescans exactly when the screen prunes
            # everything, so Nash's theorem is never "refuted" by a
            # backend.
            searched.clear()
            profile = find_one_equilibrium(game, policy=policy)
            assert certify_mixed_profile(game, profile) is profile
            assert searched == [policy, "exact"]
            # The enumeration has no rescan: it returns what survived.
            for found in support_enumeration(game, policy=policy):
                assert certify_mixed_profile(game, found) is found
        assert lying.calls > 0
