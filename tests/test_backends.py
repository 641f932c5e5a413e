"""Unit tests for the numeric-backend layer (linalg/backend.py)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.errors import BackendError, LinearAlgebraError, ProtocolError
from repro.linalg import (
    FLOAT_BACKEND,
    INCONCLUSIVE,
    BackendPolicy,
    FloatBackend,
    int_lp,
    resolve_policy,
)
from repro.online.parallel_links import LeastLoadedTracker
from repro.linalg.backend import (
    AUTO_THRESHOLD,
    BACKEND_MODES,
    MODE_AUTO,
    MODE_EXACT,
    MODE_FLOAT_CERTIFY,
)
from repro.rng import make_rng


class TestFloatFeasibility:
    def test_agrees_with_exact_on_random_systems(self):
        rng = make_rng(23, "backend:lp")
        agreements = 0
        for trial in range(40):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 6)
            a = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
            b = [rng.randint(-5, 5) for _ in range(nrows)]
            exact_point = int_lp.find_feasible_point(a, b)
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

    def test_screen_solves_each_system_alone(self, monkeypatch):
        rng = make_rng(29, "backend:screen")
        systems = []
        for __ in range(40):
            nrows = rng.randint(1, 4)
            ncols = rng.randint(1, 6)
            systems.append((
                [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)],
                [rng.randint(-5, 5) for _ in range(nrows)],
            ))
        # A one-pivot cap makes the longer phase-1 runs inconclusive.
        monkeypatch.setattr(FloatBackend, "cap_base", 1)
        monkeypatch.setattr(FloatBackend, "cap_per_size", 0)
        expected = []
        for rows, rhs in systems:
            try:
                expected.append(FLOAT_BACKEND.find_feasible_point(rows, rhs))
            except BackendError:
                expected.append(INCONCLUSIVE)
        assert INCONCLUSIVE in expected
        assert FLOAT_BACKEND.screen_feasible(systems) == expected
        assert FLOAT_BACKEND.screen_feasible(systems[::-1]) == expected[::-1]


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
        policy = BackendPolicy(MODE_AUTO)
        assert resolve_policy(policy) is policy

    @pytest.mark.parametrize("mode", BACKEND_MODES)
    def test_every_mode_string_resolves_to_its_shared_policy(self, mode):
        policy = resolve_policy(mode)
        assert policy.mode == mode
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
        auto = BackendPolicy(MODE_AUTO)
        assert auto.search_backend(AUTO_THRESHOLD - 1).exact
        assert not auto.search_backend(AUTO_THRESHOLD).exact

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
