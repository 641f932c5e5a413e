"""Unit tests for exact-rational conversion helpers."""

from fractions import Fraction

try:
    import numpy as np
except ImportError:
    np = None
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.fractions_util import (
    SMALL_INT_LIMIT,
    as_floats,
    dot,
    exact_fingerprint,
    fraction_matrix,
    fraction_vector,
    is_probability_vector,
    mat_vec,
    to_fraction,
    vec_mat,
)

fractions_st = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


class TestToFraction:
    def test_int(self):
        assert to_fraction(7) == Fraction(7)

    def test_fraction_passthrough(self):
        f = Fraction(3, 7)
        assert to_fraction(f) is f

    def test_string(self):
        assert to_fraction("3/8") == Fraction(3, 8)

    def test_decimal_string(self):
        assert to_fraction("0.375") == Fraction(3, 8)

    def test_float_exact_binary(self):
        assert to_fraction(0.5) == Fraction(1, 2)

    @pytest.mark.skipif(np is None, reason="needs numpy (stdlib-only run)")
    def test_numpy_int(self):
        assert to_fraction(np.int64(5)) == Fraction(5)

    @pytest.mark.skipif(np is None, reason="needs numpy (stdlib-only run)")
    def test_numpy_float(self):
        assert to_fraction(np.float64(0.25)) == Fraction(1, 4)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            to_fraction(True)

    def test_none_rejected(self):
        with pytest.raises(TypeError):
            to_fraction(None)


class TestSharedSmallIntegers:
    """Integers in the table convert to one shared, equal Fraction."""

    @pytest.mark.parametrize("n", [
        -SMALL_INT_LIMIT, -10, -1, 0, 1, 10, SMALL_INT_LIMIT,
    ])
    def test_inside_the_table_is_shared_and_equal(self, n):
        assert to_fraction(n) is to_fraction(n)
        assert to_fraction(n) == Fraction(n)
        assert type(to_fraction(n)) is Fraction

    def test_every_generator_payoff_is_shared(self):
        games = [random_bimatrix(5, 5, seed=s) for s in range(40)]
        payoffs = {
            id(value)
            for game in games
            for matrix in (game.row_matrix, game.column_matrix)
            for row in matrix
            for value in row
        }
        assert len(payoffs) <= 21

    @pytest.mark.parametrize("n", [
        SMALL_INT_LIMIT + 1, -SMALL_INT_LIMIT - 1, 10**30, -(10**30),
    ])
    def test_outside_the_table_is_equal_but_fresh(self, n):
        first = to_fraction(n)
        assert first == Fraction(n)
        assert first is not to_fraction(n)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bools_still_refused(self, flag):
        with pytest.raises(TypeError):
            to_fraction(flag)

    @pytest.mark.skipif(np is None, reason="needs numpy (stdlib-only run)")
    @pytest.mark.parametrize("n", [0, 7, -10, SMALL_INT_LIMIT + 1, 2**40])
    def test_numpy_integer_scalars_convert(self, n):
        assert to_fraction(np.int64(n)) == Fraction(n)

    def test_int_and_fraction_games_agree(self):
        ints = random_bimatrix(5, 5, seed=11)
        rows = [[int(v) for v in row] for row in ints.row_matrix]
        cols = [[int(v) for v in row] for row in ints.column_matrix]
        from_ints = BimatrixGame(rows, cols)
        from_fractions = BimatrixGame(
            [[Fraction(v) for v in row] for row in rows],
            [[Fraction(v) for v in row] for row in cols],
        )
        assert from_ints.row_matrix == from_fractions.row_matrix
        assert from_ints.column_matrix == from_fractions.column_matrix
        assert (
            from_ints.payoff_fingerprint == from_fractions.payoff_fingerprint
            == ints.payoff_fingerprint
        )
        assert from_ints.integer_lattice == from_fractions.integer_lattice


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteRefused:
    """NaN and the infinities have no exact value: one ValueError each."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_python_floats(self, value):
        with pytest.raises(ValueError, match=repr(value)):
            to_fraction(value)

    @pytest.mark.skipif(np is None, reason="needs numpy (stdlib-only run)")
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["float16", "float32", "float64"])
    def test_numpy_float_scalars(self, value, kind):
        scalar = getattr(np, kind)(value)
        with pytest.raises(ValueError, match="non-finite value") as info:
            to_fraction(scalar)
        assert repr(scalar) in str(info.value)

    def test_finite_floats_still_convert(self):
        assert to_fraction(1e308) == Fraction(1e308)
        assert to_fraction(-0.0) == 0

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_games_refuse_non_finite_payoffs(self, value):
        with pytest.raises(ValueError, match="non-finite value"):
            BimatrixGame([[1, value]], [[0, 0]])


class TestVectorsAndMatrices:
    def test_fraction_vector(self):
        assert fraction_vector([1, "1/2"]) == (Fraction(1), Fraction(1, 2))

    def test_fraction_matrix(self):
        m = fraction_matrix([[1, 2], [3, 4]])
        assert m == ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            fraction_matrix([[1, 2], [3]])

    def test_as_floats(self):
        out = as_floats([Fraction(1, 2), Fraction(1, 4)])
        assert list(out) == [0.5, 0.25]


class TestProbabilityVector:
    def test_valid(self):
        assert is_probability_vector((Fraction(1, 2), Fraction(1, 2)))

    def test_sum_off(self):
        assert not is_probability_vector((Fraction(1, 2), Fraction(1, 3)))

    def test_negative(self):
        assert not is_probability_vector((Fraction(3, 2), Fraction(-1, 2)))

    def test_empty(self):
        assert not is_probability_vector(())

    def test_degenerate(self):
        assert is_probability_vector((Fraction(0), Fraction(1)))


class TestLinearOps:
    def test_dot(self):
        assert dot(fraction_vector([1, 2]), fraction_vector([3, 4])) == 11

    def test_dot_length_mismatch(self):
        with pytest.raises(ValueError):
            dot(fraction_vector([1]), fraction_vector([1, 2]))

    def test_mat_vec(self):
        m = fraction_matrix([[1, 0], [0, 2]])
        assert mat_vec(m, fraction_vector([3, 4])) == (Fraction(3), Fraction(8))

    def test_vec_mat(self):
        m = fraction_matrix([[1, 2], [3, 4]])
        assert vec_mat(fraction_vector([1, 1]), m) == (Fraction(4), Fraction(6))

    def test_vec_mat_mismatch(self):
        with pytest.raises(ValueError):
            vec_mat(fraction_vector([1]), fraction_matrix([[1], [2]]))

    @given(st.lists(fractions_st, min_size=1, max_size=6))
    def test_dot_with_zero_vector_is_zero(self, values):
        zeros = [Fraction(0)] * len(values)
        assert dot(values, zeros) == 0

    @given(
        st.lists(fractions_st, min_size=1, max_size=5),
        st.lists(fractions_st, min_size=1, max_size=5),
    )
    def test_dot_commutes(self, a, b):
        size = min(len(a), len(b))
        a, b = a[:size], b[:size]
        assert dot(a, b) == dot(b, a)


class TestExactFingerprint:
    """The one canonicalization every solve cache keys through."""

    def test_equal_rationals_equal_digest(self):
        assert exact_fingerprint([[0.5, 1]]) == exact_fingerprint(
            [[Fraction(1, 2), "1/1"]]
        )

    def test_value_and_shape_sensitivity(self):
        base = exact_fingerprint([[1, 2], [3, 4]])
        assert exact_fingerprint([[1, 2], [3, 5]]) != base
        assert exact_fingerprint([[1, 2, 3, 4]]) != base
        assert exact_fingerprint([[1, 3], [2, 4]]) != base

    def test_matrix_boundaries_matter(self):
        # Two matrices vs one concatenated matrix must not collide.
        assert exact_fingerprint([[1]], [[2]]) != exact_fingerprint([[1], [2]])

    def test_label_namespaces(self):
        assert exact_fingerprint([[1]], label="a") != exact_fingerprint(
            [[1]], label="b"
        )

    @given(st.lists(st.lists(fractions_st, min_size=1, max_size=3),
                    min_size=1, max_size=3))
    def test_deterministic(self, rows):
        width = len(rows[0])
        rows = [row[:width] + [Fraction(0)] * (width - len(row)) for row in rows]
        assert exact_fingerprint(rows) == exact_fingerprint(rows)
