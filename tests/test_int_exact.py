"""The fraction-free exact kernel must be bit-identical to the seed.

Three layers of parity are pinned here:

* **Linear algebra** — property tests (hypothesis) that integer Bareiss
  RREF/solves agree bit for bit with the Fraction Gaussian elimination
  of :mod:`repro.linalg.exact` on random rational systems, including
  rank-deficient, inconsistent and singular ones;
* **Certification** — the integer-lattice Lemma-1 gate decides exactly
  like the Fraction reference on equilibria, near-equilibria and
  degenerate games, and full equilibrium sets are unchanged across
  every search backend mode under the new certifier;
* **Proof checking** — the integerized kernel accepts/rejects every
  certificate identically to the Fraction oracle, with identical
  counters and rejection reasons.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LinearAlgebraError
from repro.linalg import exact, int_exact
from repro.linalg.int_exact import (
    IntegerLattice,
    bareiss_elimination,
    integer_utility_table,
    integerize_matrix,
    integerize_vector,
)

small_fraction = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=8
)


def rational_matrix(max_rows=6, max_cols=6):
    return st.integers(min_value=1, max_value=max_rows).flatmap(
        lambda nr: st.integers(min_value=1, max_value=max_cols).flatmap(
            lambda nc: st.lists(
                st.lists(small_fraction, min_size=nc, max_size=nc),
                min_size=nr,
                max_size=nr,
            )
        )
    )


def _with_dependent_row(matrix, factor, which):
    """Overwrite one row with a multiple of another (forces rank deficiency)."""
    rows = [list(r) for r in matrix]
    if len(rows) >= 2:
        src = which % (len(rows) - 1)
        rows[-1] = [x * factor for x in rows[src]]
    return rows


class TestBareissEliminationParity:
    @settings(max_examples=150, deadline=None)
    @given(rational_matrix(), st.data())
    def test_rref_bit_identical(self, matrix, data):
        rhs = [
            [data.draw(small_fraction)] for _ in matrix
        ]
        expected = exact.gaussian_elimination(matrix, rhs)
        got = bareiss_elimination(matrix, rhs)
        assert got == expected
        # Bit-identical means types too: normalized Fractions throughout.
        for row in got[0]:
            assert all(type(v) is Fraction for v in row)

    @settings(max_examples=100, deadline=None)
    @given(
        rational_matrix(),
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
        st.integers(min_value=0, max_value=10),
    )
    def test_rank_deficient_rref(self, matrix, factor, which):
        degenerate = _with_dependent_row(matrix, factor, which)
        assert bareiss_elimination(degenerate) == exact.gaussian_elimination(
            degenerate
        )
        assert int_exact.matrix_rank(degenerate) == exact.matrix_rank(degenerate)

    @settings(max_examples=150, deadline=None)
    @given(rational_matrix(), st.data())
    def test_solve_linear_system_parity(self, matrix, data):
        rhs = [data.draw(small_fraction) for _ in matrix]
        try:
            expected = exact.solve_linear_system(matrix, rhs)
            expected_error = None
        except LinearAlgebraError as exc:
            expected, expected_error = None, str(exc)
        try:
            got = int_exact.solve_linear_system(matrix, rhs)
            got_error = None
        except LinearAlgebraError as exc:
            got, got_error = None, str(exc)
        assert got == expected
        assert got_error == expected_error

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.data())
    def test_solve_square_parity(self, size, data):
        matrix = [
            [data.draw(small_fraction) for _ in range(size)] for _ in range(size)
        ]
        rhs = [data.draw(small_fraction) for _ in range(size)]
        try:
            expected = exact.solve_square(matrix, rhs)
            expected_error = None
        except LinearAlgebraError as exc:
            expected, expected_error = None, str(exc)
        try:
            got = int_exact.solve_square(matrix, rhs)
            got_error = None
        except LinearAlgebraError as exc:
            got, got_error = None, str(exc)
        assert got == expected
        assert got_error == expected_error

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.data())
    def test_solve_square_integers(self, size, data):
        """The integer entry point: x_j = numerators[j] / det, det > 0."""
        entry = st.integers(min_value=-4, max_value=4)
        augmented = [
            [data.draw(entry) for _ in range(size + 1)] for _ in range(size)
        ]
        untouched = [list(row) for row in augmented]
        matrix = [row[:size] for row in augmented]
        rhs = [row[size] for row in augmented]
        try:
            expected = exact.solve_square(matrix, rhs)
        except LinearAlgebraError:
            with pytest.raises(LinearAlgebraError):
                int_exact.solve_square_integers(augmented)
            return
        numerators, det = int_exact.solve_square_integers(augmented)
        assert det > 0
        assert all(type(v) is int for v in numerators)
        assert tuple(Fraction(v, det) for v in numerators) == expected
        assert augmented == untouched

    @settings(max_examples=60, deadline=None)
    @given(rational_matrix())
    def test_nullspace_parity(self, matrix):
        assert int_exact.nullspace(matrix) == exact.nullspace(matrix)

    def test_empty_and_edge_shapes(self):
        assert bareiss_elimination([]) == exact.gaussian_elimination([])
        assert int_exact.solve_square([], []) == ()
        with pytest.raises(LinearAlgebraError):
            int_exact.solve_square([[1, 2], [2, 4]], [1, 2])  # singular
        with pytest.raises(LinearAlgebraError):
            int_exact.solve_square([[1, 2, 3], [4, 5, 6]], [1, 2])
        with pytest.raises(LinearAlgebraError):
            int_exact.solve_linear_system([[1, 1]], [1, 2])  # rhs length
        with pytest.raises(LinearAlgebraError):
            bareiss_elimination([[1, 1]], [[1], [2]])  # rhs row count


class TestIntegerization:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(small_fraction, min_size=0, max_size=10))
    def test_vector_roundtrip_and_minimality(self, values):
        from math import lcm

        ints, scale = integerize_vector(values)
        assert scale >= 1
        assert [Fraction(n, scale) for n in ints] == [
            Fraction(v) for v in values
        ]
        # Minimality: the scale is exactly the LCM of the denominators.
        expected = lcm(*(Fraction(v).denominator for v in values)) if values else 1
        assert scale == expected

    @settings(max_examples=60, deadline=None)
    @given(rational_matrix(4, 4))
    def test_matrix_roundtrip(self, matrix):
        ints, scale = integerize_matrix(matrix)
        for row, int_row in zip(matrix, ints):
            assert [Fraction(n, scale) for n in int_row] == [
                Fraction(v) for v in row
            ]

    def test_lattice_cached_on_game(self):
        from repro.games.generators import random_bimatrix

        game = random_bimatrix(3, 4, seed=7)
        lattice = game.integer_lattice
        assert isinstance(lattice, IntegerLattice)
        assert lattice is game.integer_lattice  # built once, cached
        assert len(lattice.row_payoffs) == 3
        assert len(lattice.column_payoffs) == 4  # B^T: columns as rows
        assert lattice.row_scale >= 1 and lattice.column_scale >= 1


def _rational_game(size, seed):
    """A bimatrix game with genuinely rational (non-integer) payoffs."""
    from repro.games.bimatrix import BimatrixGame
    from repro.rng import make_rng

    rng = make_rng(seed, f"rational-bimatrix:{size}")
    def draw():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 9))

    a = [[draw() for _ in range(size)] for _ in range(size)]
    b = [[draw() for _ in range(size)] for _ in range(size)]
    return BimatrixGame(a, b, name=f"RationalGame{size}/{seed}")


class TestLatticeCertification:
    def _games(self):
        from repro.games.generators import (
            matching_pennies,
            random_bimatrix,
            rock_paper_scissors,
        )
        from repro.games.bimatrix import BimatrixGame

        games = [
            random_bimatrix(3, 3, seed=s) for s in range(6)
        ]
        games += [_rational_game(3, s) for s in range(4)]
        games += [
            matching_pennies(),
            rock_paper_scissors(),
            BimatrixGame.fig5_example(),  # degenerate continuum
        ]
        return games

    def test_lattice_agrees_with_fraction_reference(self):
        from repro.equilibria.mixed import fraction_nash_check, is_mixed_nash
        from repro.equilibria.support_enumeration import support_enumeration
        from repro.games.profiles import MixedProfile

        checked = 0
        for game in self._games():
            profiles = list(support_enumeration(game))
            # Perturbations and uniform mixes exercise the reject path.
            n, m = game.action_counts
            profiles.append(MixedProfile.uniform((n, m)))
            for profile in list(profiles):
                x, y = profile.distributions
                if len([v for v in x if v]) < n:
                    bumped = tuple(
                        Fraction(1, n) for _ in range(n)
                    )
                    profiles.append(MixedProfile((bumped, y)))
            for profile in profiles:
                assert is_mixed_nash(game, profile) == fraction_nash_check(
                    game, profile
                )
                checked += 1
        assert checked > 30

    def test_certify_many_matches_scalar_gate(self):
        from repro.equilibria.mixed import certify_many, certify_mixed_profile
        from repro.equilibria.support_enumeration import support_enumeration
        from repro.games.profiles import MixedProfile

        for game in self._games()[:6]:
            n, m = game.action_counts
            candidates = list(support_enumeration(game))
            candidates.append(MixedProfile.uniform((n, m)))
            batched = certify_many(game, candidates)
            scalar = [certify_mixed_profile(game, c) for c in candidates]
            assert batched == scalar
        assert certify_many(self._games()[0], []) == []

    def test_certify_many_on_generic_games(self):
        from repro.equilibria.mixed import certify_many
        from repro.games.generators import pure_dominance_game
        from repro.games.profiles import MixedProfile

        game = pure_dominance_game()  # 3 players: no integer lattice
        good = MixedProfile.pure((1, 1, 1), game.action_counts)
        bad = MixedProfile.uniform(game.action_counts)
        assert certify_many(game, [good, bad]) == [good, None]

    def test_equilibrium_sets_unchanged_across_backends(self):
        """Full-set parity across every search mode with the new certifier."""
        from repro.equilibria.support_enumeration import support_enumeration
        from repro.linalg.backend import numpy_available

        policies = [None, "float+certify"]
        if numpy_available():
            policies.append("numpy")
        for game in self._games():
            reference = support_enumeration(game)
            for policy in policies[1:]:
                assert support_enumeration(game, policy=policy) == reference


class TestIntegerProofKernel:
    def _games(self):
        from repro.games.generators import random_strategic

        return [
            random_strategic(shape, seed=seed)
            for shape, seed in [((2, 3), 11), ((3, 3), 12), ((2, 2, 2), 13)]
        ]

    def test_integer_table_is_order_preserving(self):
        from repro.games.generators import random_strategic
        from repro.games.profiles import enumerate_profiles

        game = random_strategic((3, 3), seed=21)
        table = integer_utility_table(game)
        assert table is not None
        profiles = list(enumerate_profiles(game.action_counts))
        for player in range(game.num_players):
            for p in profiles:
                for q in profiles:
                    frac = game.payoff(player, p) < game.payoff(player, q)
                    ints = table[p][player] < table[q][player]
                    assert frac == ints

    def test_kernel_decisions_and_counters_identical(self):
        from repro.proofs import (
            build_all_nash_certificate,
            build_nash_certificate,
            check_certificate,
        )
        from repro.equilibria import pure_nash_equilibria

        for game in self._games():
            cert = build_all_nash_certificate(game)
            fast = check_certificate(game, cert)
            slow = check_certificate(game, cert, integerize=False)
            assert fast == slow
            assert fast.accepted
            for profile in pure_nash_equilibria(game):
                single = build_nash_certificate(game, profile)
                assert check_certificate(game, single) == check_certificate(
                    game, single, integerize=False
                )

    def test_kernel_rejections_identical(self):
        from repro.proofs import build_all_nash_certificate, check_certificate
        from repro.proofs.certificates import (
            AllNashCertificate,
            NashCertificate,
        )
        from repro.games.generators import random_strategic

        game = random_strategic((3, 3), seed=31)
        cert = build_all_nash_certificate(game)
        # Tamper: claim every refuted profile's first refutation is Nash.
        refutation = cert.refutations[0]
        tampered = AllNashCertificate(
            enumeration=cert.enumeration,
            equilibria=cert.equilibria
            + (NashCertificate(refutation.profile, mode="by-evaluation"),),
            refutations=cert.refutations[1:],
        )
        fast = check_certificate(game, tampered)
        slow = check_certificate(game, tampered, integerize=False)
        assert not fast.accepted
        assert fast == slow  # same reason, same counters

    def test_untabulable_game_falls_back(self):
        class Hostile:
            action_counts = (2, 2)
            num_players = 2

            def payoff(self, player, profile):
                raise RuntimeError("no table for you")

        assert integer_utility_table(Hostile()) is None

    def test_oversized_space_declines(self, monkeypatch):
        from repro.games.generators import random_strategic

        monkeypatch.setattr(int_exact, "MAX_TABLE_PROFILES", 3)
        game = random_strategic((2, 2), seed=1)
        assert integer_utility_table(game) is None
