"""Cross-mode parity: every search mode returns the same equilibrium sets.

The two-phase pipeline's contract is that backends change *cost*, never
*answers*: on a batch of small random bimatrix games — and on the
committed degenerate instances, where approximate search is most likely
to wander — ``exact``, ``float+certify`` and ``numpy`` screening (at
the default chunk size and at 32 pairs) must return identical
equilibrium sets.  (On random games the
sets are generically unique; pinning the degenerate instances as well
keeps the vectorized and warm-started screens honest about vertex
selection.)
"""

from __future__ import annotations

import pytest

from repro.equilibria.support_enumeration import support_enumeration
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.linalg.backend import (
    MODE_FLOAT_CERTIFY,
    MODE_NUMPY,
    BackendPolicy,
    numpy_available,
)

# Every non-exact search mode under test.  Without numpy the "numpy"
# policies resolve to the stdlib float backend — exercising exactly the
# documented fallback.
MODES = [
    pytest.param(BackendPolicy(MODE_FLOAT_CERTIFY), id="float+certify"),
    pytest.param(BackendPolicy(MODE_NUMPY), id="numpy"),
    pytest.param(
        BackendPolicy(MODE_NUMPY, chunk_size=32), id="numpy-chunk-32"
    ),
]


def _sorted_set(profiles):
    return sorted(profile.distributions for profile in profiles)


def _degenerate_instances():
    zero = [[0, 0], [0, 0]]
    return [
        BimatrixGame.fig5_example(),
        BimatrixGame(
            [[3, 0], [3, 0], [0, 2]], [[1, 2], [1, 2], [4, 0]],
            name="DuplicateRows",
        ),
        BimatrixGame(
            [[1, 1, 4], [2, 2, 0]], [[3, 3, 1], [0, 0, 5]],
            name="IdenticalColumns",
        ),
        BimatrixGame(zero, zero, name="AllZero"),
    ]


class TestRandomGameParity:
    """~50 small random games, all modes against the exact reference."""

    SEEDS = list(range(50))

    @pytest.mark.parametrize("mode", MODES)
    def test_equilibrium_sets_match_exact(self, mode):
        mismatches = []
        for seed in self.SEEDS:
            n = 2 + seed % 3   # 2..4 actions per side
            m = 2 + (seed // 3) % 3
            game = random_bimatrix(n, m, seed=1000 + seed)
            exact = _sorted_set(support_enumeration(game))
            approx = _sorted_set(support_enumeration(game, policy=mode))
            if exact != approx:
                mismatches.append((seed, n, m))
        assert not mismatches, f"modes diverged on seeds {mismatches}"


class TestDegenerateParity:
    """The committed degenerate seeds from test_degenerate_games."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "game", _degenerate_instances(), ids=lambda g: g.name
    )
    def test_equilibrium_sets_match_exact(self, game, mode):
        exact = _sorted_set(support_enumeration(game))
        approx = _sorted_set(support_enumeration(game, policy=mode))
        assert exact == approx

    @pytest.mark.parametrize("mode", MODES)
    def test_equal_size_restriction_matches_too(self, mode):
        game = random_bimatrix(5, 5, seed=4242)
        exact = _sorted_set(support_enumeration(game, equal_size_only=True))
        approx = _sorted_set(
            support_enumeration(game, equal_size_only=True, policy=mode)
        )
        assert exact == approx


@pytest.mark.skipif(
    not numpy_available(), reason="needs numpy (stdlib-only run)"
)
def test_numpy_mode_actually_uses_numpy_backend():
    """Guard against the fallback silently hiding a broken registration."""
    from repro.linalg.numpy_backend import NumpyBackend

    assert isinstance(BackendPolicy(MODE_NUMPY).search_backend(8), NumpyBackend)
