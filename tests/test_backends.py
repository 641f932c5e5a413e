"""Unit tests for the numeric-backend layer (linalg/backend.py)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.errors import BackendError, LinearAlgebraError, ProtocolError
from repro.linalg import (
    EXACT_BACKEND,
    FLOAT_BACKEND,
    BackendPolicy,
    ExactBackend,
    resolve_policy,
    solve_square,
)
from repro.online.parallel_links import LeastLoadedTracker
from repro.linalg.backend import (
    BACKEND_MODES,
    MODE_AUTO,
    MODE_EXACT,
    MODE_FLOAT_CERTIFY,
)
from repro.rng import make_rng


class TestFloatSolveSquare:
    def test_matches_exact_on_random_systems(self):
        rng = make_rng(17, "backend:square")
        for trial in range(25):
            n = rng.randint(1, 6)
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                matrix[i][i] += 20  # diagonally dominant: well conditioned
            rhs = [rng.randint(-9, 9) for _ in range(n)]
            exact = solve_square(matrix, rhs)
            approx = FLOAT_BACKEND.solve_square(matrix, rhs)
            for e, a in zip(exact, approx):
                assert abs(float(e) - a) < 1e-8

    def test_near_singular_raises_backend_error(self):
        with pytest.raises(BackendError):
            FLOAT_BACKEND.solve_square([[1.0, 1.0], [1.0, 1.0 + 1e-14]], [1, 2])

    def test_shape_validation(self):
        with pytest.raises(LinearAlgebraError):
            FLOAT_BACKEND.solve_square([[1, 2]], [1])
        with pytest.raises(LinearAlgebraError):
            FLOAT_BACKEND.solve_square([[1]], [1, 2])


class TestFloatFeasibility:
    def test_agrees_with_exact_on_random_systems(self):
        rng = make_rng(23, "backend:lp")
        agreements = 0
        for trial in range(40):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 6)
            a = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
            b = [rng.randint(-5, 5) for _ in range(nrows)]
            exact_point = EXACT_BACKEND.find_feasible_point(a, b)
            try:
                float_point = FLOAT_BACKEND.find_feasible_point(a, b)
            except BackendError:
                continue  # inconclusive is allowed; only wrong answers are not
            assert (exact_point is None) == (float_point is None)
            agreements += 1
            if float_point is not None:
                # The float point approximately satisfies the system.
                for row, rhs in zip(a, b):
                    value = sum(c * x for c, x in zip(row, float_point))
                    assert abs(value - rhs) < 1e-6
                assert all(x >= -1e-9 for x in float_point)
        assert agreements >= 30  # the screen is conclusive nearly always

    def test_upper_bounds(self):
        # x0 + x1 = 3 with x <= (1, 1) is infeasible; x <= (2, 2) is not.
        assert FLOAT_BACKEND.find_feasible_point([[1, 1]], [3], [1, 1]) is None
        point = FLOAT_BACKEND.find_feasible_point([[1, 1]], [3], [2, 2])
        assert point is not None
        assert abs(sum(point) - 3.0) < 1e-9

    def test_exact_backend_is_the_seed_lp(self):
        point = ExactBackend().find_feasible_point([[1, 1]], [1])
        assert point == (Fraction(1), Fraction(0))


class TestBackendPolicy:
    def test_mode_validation(self):
        with pytest.raises(LinearAlgebraError):
            BackendPolicy("float")
        with pytest.raises(LinearAlgebraError):
            resolve_policy("exactly")
        with pytest.raises(LinearAlgebraError):
            resolve_policy(42)

    def test_resolution(self):
        assert resolve_policy(None).mode == MODE_EXACT
        assert resolve_policy("float+certify").mode == MODE_FLOAT_CERTIFY
        policy = BackendPolicy(MODE_AUTO, auto_threshold=8)
        assert resolve_policy(policy) is policy

    @pytest.mark.parametrize("mode", BACKEND_MODES)
    def test_every_mode_string_resolves_to_its_shared_policy(self, mode):
        policy = resolve_policy(mode)
        assert policy.mode == mode
        assert policy.chunk_size is None
        assert resolve_policy(mode) is policy
        assert policy == BackendPolicy(mode)

    def test_sharded_is_not_a_mode(self):
        # Screening always runs in the calling process; a stale
        # "sharded" spelling must fail loudly, not fall back silently.
        assert "sharded" not in BACKEND_MODES
        with pytest.raises(LinearAlgebraError, match="expected one of"):
            resolve_policy("sharded")
        with pytest.raises(LinearAlgebraError):
            BackendPolicy("sharded")

    def test_search_backend_selection(self):
        assert BackendPolicy(MODE_EXACT).search_backend(100).exact
        assert not BackendPolicy(MODE_FLOAT_CERTIFY).search_backend(2).exact
        auto = BackendPolicy(MODE_AUTO, auto_threshold=10)
        assert auto.search_backend(9).exact
        assert not auto.search_backend(10).exact

    def test_advice_records_and_validates_backend(self):
        from repro.core import Advice, ProofFormat, SolutionConcept

        advice = Advice(
            game_id="g", agent=0, concept=SolutionConcept.PURE_NASH,
            proof_format=ProofFormat.EMPTY_PROOF, suggestion=(0, 0),
            proof=None, backend="float+certify",
        )
        assert advice.backend == "float+certify"
        with pytest.raises(ProtocolError):
            Advice(
                game_id="g", agent=0, concept=SolutionConcept.PURE_NASH,
                proof_format=ProofFormat.EMPTY_PROOF, suggestion=(0, 0),
                proof=None, backend="float32",
            )


class TestLeastLoadedTracker:
    def _reference_argmin(self, loads):
        best = 0
        for j in range(1, len(loads)):
            if loads[j] < loads[best]:
                best = j
        return best

    def test_matches_linear_scan_under_mixed_operations(self):
        rng = make_rng(31, "tracker")
        for trial in range(10):
            m = rng.randint(1, 12)
            loads = [0.0] * m
            mirror = [0.0] * m
            tracker = LeastLoadedTracker(loads)
            for _ in range(200):
                assert tracker.argmin() == self._reference_argmin(mirror)
                w = rng.random() * 10
                if rng.random() < 0.5:
                    j = tracker.assign_least_loaded(w)
                    assert j == self._reference_argmin(mirror)
                else:
                    j = rng.randrange(m)
                    tracker.add(j, w)
                mirror[j] += w
                assert loads == mirror

    def test_exact_arithmetic_and_tie_breaking(self):
        loads = [Fraction(0)] * 3
        tracker = LeastLoadedTracker(loads)
        assert tracker.assign_least_loaded(Fraction(1, 2)) == 0  # ties go low
        assert tracker.assign_least_loaded(Fraction(1, 2)) == 1
        assert tracker.assign_least_loaded(Fraction(1, 3)) == 2
        assert tracker.argmin() == 2
        assert loads == [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]
