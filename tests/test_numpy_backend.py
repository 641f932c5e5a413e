"""Unit tests for the vectorized numpy backend (linalg/numpy_backend.py)."""

from __future__ import annotations

import pickle

import pytest

np = pytest.importorskip("numpy", reason="needs numpy (stdlib-only run)")

from repro.errors import BackendError, LinearAlgebraError
from repro.linalg import (
    EXACT_BACKEND,
    FLOAT_BACKEND,
    INCONCLUSIVE,
    NUMPY_BACKEND,
    BackendPolicy,
    numpy_available,
    solve_square,
)
from repro.linalg.backend import MODE_AUTO, MODE_NUMPY
from repro.linalg.numpy_backend import NumpyBackend
from repro.rng import make_rng


class TestRegistration:
    def test_backend_is_registered(self):
        assert numpy_available()
        assert NUMPY_BACKEND is not None
        assert NUMPY_BACKEND.mode == MODE_NUMPY
        assert not NUMPY_BACKEND.exact
        assert NUMPY_BACKEND.batched_screen

    def test_numpy_mode_resolves_to_numpy_backend(self):
        backend = BackendPolicy(MODE_NUMPY).search_backend(4)
        assert isinstance(backend, NumpyBackend)

    def test_auto_prefers_numpy_when_available(self):
        auto = BackendPolicy(MODE_AUTO, auto_threshold=10)
        assert auto.search_backend(9).exact
        assert isinstance(auto.search_backend(10), NumpyBackend)

    def test_tolerance_validation(self):
        with pytest.raises(LinearAlgebraError):
            NumpyBackend(max_condition=0)
        with pytest.raises(LinearAlgebraError):
            NumpyBackend(feastol=-1)


class TestSolveSquare:
    def test_matches_exact_on_random_systems(self):
        rng = make_rng(17, "numpy:square")
        for __ in range(25):
            n = rng.randint(1, 6)
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                matrix[i][i] += 20  # diagonally dominant: well conditioned
            rhs = [rng.randint(-9, 9) for _ in range(n)]
            exact = solve_square(matrix, rhs)
            approx = NUMPY_BACKEND.solve_square(matrix, rhs)
            for e, a in zip(exact, approx):
                assert abs(float(e) - a) < 1e-8

    def test_near_singular_raises_backend_error(self):
        with pytest.raises(BackendError):
            NUMPY_BACKEND.solve_square([[1.0, 1.0], [1.0, 1.0 + 1e-14]], [1, 2])

    def test_singular_raises_backend_error(self):
        with pytest.raises(BackendError):
            NUMPY_BACKEND.solve_square([[1.0, 2.0], [2.0, 4.0]], [1, 2])

    def test_shape_validation(self):
        with pytest.raises(LinearAlgebraError):
            NUMPY_BACKEND.solve_square([[1, 2]], [1])
        with pytest.raises(LinearAlgebraError):
            NUMPY_BACKEND.solve_square([[1]], [1, 2])


class TestScreenFeasible:
    def test_agrees_with_exact_across_shapes(self):
        """The batched verdicts match the exact LP wherever conclusive."""
        rng = make_rng(23, "numpy:screen")
        systems = []
        expected = []
        for __ in range(120):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 6)
            a = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
            b = [rng.randint(-5, 5) for _ in range(nrows)]
            systems.append((a, b))
            expected.append(EXACT_BACKEND.find_feasible_point(a, b))
        verdicts = NUMPY_BACKEND.screen_feasible(systems)
        assert len(verdicts) == len(systems)
        conclusive = 0
        for (a, b), exact_point, verdict in zip(systems, expected, verdicts):
            if verdict is INCONCLUSIVE:
                continue
            conclusive += 1
            assert (exact_point is None) == (verdict is None)
            if verdict is not None:
                for row, rhs in zip(a, b):
                    value = sum(c * x for c, x in zip(row, verdict))
                    assert abs(value - rhs) < 1e-6
                assert all(x >= -1e-9 for x in verdict)
        assert conclusive >= 100  # the screen is conclusive nearly always

    def test_order_is_positional_despite_shape_grouping(self):
        # Alternate shapes so grouping reorders internally; outputs must not.
        feasible_1x2 = ([[1, 1]], [1])
        infeasible_1x1 = ([[1]], [-1])
        systems = [feasible_1x2, infeasible_1x1] * 3
        verdicts = NUMPY_BACKEND.screen_feasible(systems)
        assert [v is not None for v in verdicts] == [True, False] * 3

    def test_empty_batch(self):
        assert NUMPY_BACKEND.screen_feasible([]) == []

    def test_malformed_system_rejected(self):
        with pytest.raises(LinearAlgebraError):
            NUMPY_BACKEND.screen_feasible([([[1, 2], [1]], [1, 1])])


class TestScalarFeasibility:
    def test_upper_bounds(self):
        assert NUMPY_BACKEND.find_feasible_point([[1, 1]], [3], [1, 1]) is None
        point = NUMPY_BACKEND.find_feasible_point([[1, 1]], [3], [2, 2])
        assert point is not None
        assert abs(sum(point) - 3.0) < 1e-9

    def test_matches_stdlib_float_backend_verdicts(self):
        rng = make_rng(29, "numpy:scalar")
        for __ in range(40):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 6)
            a = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
            b = [rng.randint(-5, 5) for _ in range(nrows)]
            try:
                stdlib_point = FLOAT_BACKEND.find_feasible_point(a, b)
            except BackendError:
                continue
            try:
                numpy_point = NUMPY_BACKEND.find_feasible_point(a, b)
            except BackendError:
                continue
            assert (stdlib_point is None) == (numpy_point is None)


class TestTryBasis:
    def test_reuses_a_feasible_basis(self):
        solved = FLOAT_BACKEND.find_feasible_basis([[1, 1, 0], [0, 1, 1]], [1, 1])
        assert solved is not None
        point, basis = solved
        warm = NUMPY_BACKEND.try_basis([[1, 1, 0], [0, 1, 1]], [1, 1], basis)
        assert warm is not None
        assert all(abs(w - p) < 1e-9 for w, p in zip(warm, point))

    def test_rejects_singular_or_negative_bases(self):
        # Basis columns 0 and 0 are not a basis at all.
        assert NUMPY_BACKEND.try_basis([[1, 0], [0, 1]], [1, 1], [0, 0]) is None
        # The induced basic solution is negative: x0 = -1.
        assert NUMPY_BACKEND.try_basis([[1, 0], [0, 1]], [-1, 1], [0, 1]) is None

    def test_exact_backend_try_basis_is_exact(self):
        from fractions import Fraction

        warm = EXACT_BACKEND.try_basis([[2, 1], [0, 1]], [1, 0], [0, 1])
        assert warm == [Fraction(1, 2), Fraction(0)]


class TestPickling:
    """Backends and the INCONCLUSIVE sentinel survive a pickle round trip."""

    def test_backend_round_trips(self):
        clone = pickle.loads(pickle.dumps(NUMPY_BACKEND))
        assert isinstance(clone, NumpyBackend)
        assert clone.support_tol == NUMPY_BACKEND.support_tol

    def test_inconclusive_sentinel_keeps_identity(self):
        assert pickle.loads(pickle.dumps(INCONCLUSIVE)) is INCONCLUSIVE
