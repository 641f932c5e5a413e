"""Unit tests for the vectorized numpy backend (linalg/numpy_backend.py)."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy", reason="needs numpy (stdlib-only run)")

from repro.equilibria.support_enumeration import (
    _feasibility_rows,
    _lemma1_stack,
    support_pairs,
)
from repro.games.generators import random_bimatrix
from repro.linalg import (
    FLOAT_BACKEND,
    INCONCLUSIVE,
    NUMPY_BACKEND,
    BackendPolicy,
    int_lp,
    numpy_available,
)
from repro.linalg.backend import AUTO_THRESHOLD, MODE_AUTO, MODE_NUMPY
from repro.linalg.numpy_backend import NumpyBackend


class TestRegistration:
    def test_backend_is_registered(self):
        assert numpy_available()
        assert NUMPY_BACKEND is not None
        assert NUMPY_BACKEND.mode == MODE_NUMPY
        assert not NUMPY_BACKEND.exact

    def test_numpy_mode_resolves_to_numpy_backend(self):
        backend = BackendPolicy(MODE_NUMPY).search_backend(4)
        assert isinstance(backend, NumpyBackend)

    def test_auto_prefers_numpy_when_available(self):
        auto = BackendPolicy(MODE_AUTO)
        assert auto.search_backend(AUTO_THRESHOLD - 1).exact
        assert isinstance(auto.search_backend(AUTO_THRESHOLD), NumpyBackend)


class TestScreenFeasible:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_agrees_with_exact_and_stdlib_across_shapes(self, seed):
        """One stack of every support pair's y-side system: the verdicts
        match the exact LP and the stdlib screen wherever conclusive."""
        game = random_bimatrix(4, 5, seed=seed)
        pairs = list(support_pairs(4, 5))
        owns = [rs for rs, __ in pairs]
        others = [cs for __, cs in pairs]
        stack = _lemma1_stack(
            NUMPY_BACKEND.float_payoffs(game.row_matrix), owns, others
        )
        verdicts = NUMPY_BACKEND.screen_feasible(stack)
        assert len(verdicts) == len(pairs)
        stdlib = FLOAT_BACKEND.screen_feasible([
            _feasibility_rows(
                FLOAT_BACKEND.float_payoffs(game.row_matrix), own, other,
                0.0, 1.0,
            )[:2]
            for own, other in pairs
        ])
        conclusive = feasible = 0
        for idx, (own, other) in enumerate(pairs):
            verdict = verdicts[idx]
            if verdict is INCONCLUSIVE:
                continue
            conclusive += 1
            rows, rhs, __ = _feasibility_rows(
                game.row_matrix, own, other, 0, 1
            )
            exact_point = int_lp.find_feasible_point(rows, rhs)
            assert (exact_point is None) == (verdict is None)
            if stdlib[idx] is not INCONCLUSIVE:
                assert (stdlib[idx] is None) == (verdict is None)
            if verdict is not None:
                feasible += 1
                # The point satisfies the padded system it came from.
                point = np.array(verdict)
                assert np.allclose(stack.a[idx] @ point, stack.b[idx],
                                   atol=1e-6)
                assert (point >= -1e-9).all()
        assert conclusive >= 0.9 * len(pairs)
        assert feasible > 0
