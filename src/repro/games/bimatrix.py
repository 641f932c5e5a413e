"""Bimatrix (2-player) games.

Section 4 of the paper works with "a 2-agent game, defined by the n x m
matrices A, B of the payoffs of the two agents (the row agent, whose pure
strategies are the n rows, and the column agent, whose strategies are the
m columns)".  :class:`BimatrixGame` is that object, with the closed-form
bilinear expected payoffs the interactive verifiers rely on, plus the
worked example of Fig. 5.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.errors import GameError, ProfileError
from repro.fractions_util import (
    dot,
    exact_fingerprint,
    fraction_matrix,
    fraction_vector,
    mat_vec,
    vec_mat,
)
from repro.games.base import Game, UtilityTableMixin
from repro.games.profiles import MixedProfile, PureProfile

ROW = 0
COLUMN = 1


class BimatrixGame(Game, UtilityTableMixin):
    """A two-player game given by exact payoff matrices ``A`` (row) and ``B`` (column)."""

    def __init__(self, a_matrix: Sequence[Sequence], b_matrix: Sequence[Sequence],
                 name: str = ""):
        self._a = fraction_matrix(a_matrix)
        self._b = fraction_matrix(b_matrix)
        if not self._a or not self._a[0]:
            raise GameError("payoff matrices must be non-empty")
        if len(self._a) != len(self._b) or len(self._a[0]) != len(self._b[0]):
            raise GameError("A and B must have identical shapes")
        self._name = name or "BimatrixGame"
        self._b_transposed: tuple[tuple[Fraction, ...], ...] | None = None
        self._fingerprint: str | None = None
        self._integer_lattice = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero_sum(cls, a_matrix: Sequence[Sequence], name: str = "") -> "BimatrixGame":
        """Build the zero-sum game with row payoffs ``A`` and column payoffs ``-A``."""
        a = fraction_matrix(a_matrix)
        b = tuple(tuple(-x for x in row) for row in a)
        return cls(a, b, name=name or "ZeroSumGame")

    @classmethod
    def fig5_example(cls) -> "BimatrixGame":
        """The bimatrix game of Fig. 5 in the paper.

        Rows A, B; columns C, D; payoffs::

                 C       D
            A  1, 1    1, 1
            B  0, 1    2, 0

        Its equilibria are exactly: row plays A; column plays any
        (qC, qD) with qD <= 1/2.  Remark 2 uses this game to show P2 does
        not reveal the column agent's equilibrium to the row agent.
        """
        return cls([[1, 1], [0, 2]], [[1, 1], [1, 0]], name="Fig5Example")

    # ------------------------------------------------------------------
    # Game interface
    # ------------------------------------------------------------------

    @property
    def num_players(self) -> int:
        return 2

    @property
    def action_counts(self) -> tuple[int, ...]:
        return (len(self._a), len(self._a[0]))

    @property
    def num_rows(self) -> int:
        return len(self._a)

    @property
    def num_columns(self) -> int:
        return len(self._a[0])

    @property
    def name(self) -> str:
        return self._name

    @property
    def row_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The row agent's payoff matrix A."""
        return self._a

    @property
    def column_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The column agent's payoff matrix B."""
        return self._b

    @property
    def column_matrix_transposed(self) -> tuple[tuple[Fraction, ...], ...]:
        """``B^T``, computed once and cached.

        The support-enumeration loop views the column agent through its
        own payoff rows; materializing the transpose per support pair
        was an O(n·m) tax on every one of the 2^(n+m) pairs.
        """
        if self._b_transposed is None:
            self._b_transposed = tuple(zip(*self._b))
        return self._b_transposed

    @property
    def payoff_fingerprint(self) -> str:
        """Canonical fingerprint of the exact payoff matrices (A, B).

        Two games fingerprint identically iff every payoff entry is the
        same rational number — the name (and any float-vs-Fraction input
        representation of equal values) does not matter.  Solve caches
        key on this, so a re-published or re-constructed game with the
        same payoffs is "the same game" to them.  Computed once and
        cached; delegates to
        :func:`repro.fractions_util.exact_fingerprint`, the single
        canonicalization helper all caches share.
        """
        if self._fingerprint is None:
            self._fingerprint = exact_fingerprint(
                self._a, self._b, label="bimatrix"
            )
        return self._fingerprint

    @property
    def integer_lattice(self):
        """The payoffs cleared to a common-denominator integer lattice.

        An :class:`~repro.linalg.int_exact.IntegerLattice` holding
        ``row_scale * A`` and ``column_scale * B^T`` as Python ints.
        Computed once per game and cached (like ``payoff_fingerprint``):
        the exact certification gate
        (:func:`~repro.equilibria.mixed.certify_mixed_profile`) runs its
        Lemma-1 support comparisons on these tensors, so every candidate
        of a game shares one integerization instead of re-clearing
        Fractions per check.
        """
        if self._integer_lattice is None:
            from repro.linalg.int_exact import IntegerLattice

            self._integer_lattice = IntegerLattice.from_matrices(
                self._a, self.column_matrix_transposed
            )
        return self._integer_lattice

    def payoff(self, player: int, profile: PureProfile) -> Fraction:
        profile = self.validate_profile(profile)
        row, col = profile
        if player == ROW:
            return self._a[row][col]
        if player == COLUMN:
            return self._b[row][col]
        raise GameError(f"player {player} out of range for a bimatrix game")

    # ------------------------------------------------------------------
    # Bilinear expected payoffs (closed form, used by P1/P2 verifiers)
    # ------------------------------------------------------------------

    def expected_payoff(self, player: int, mixed: MixedProfile) -> Fraction:
        """Exact expected payoff x^T M y, with M = A or B."""
        x, y = self._unpack(mixed)
        matrix = self._a if player == ROW else self._b
        return dot(vec_mat(x, matrix), y)

    def expected_action_payoff(self, player: int, action: int, mixed: MixedProfile) -> Fraction:
        """Closed-form λ(action): one bilinear row, not a profile sweep.

        Overrides the base class's profile-space enumeration — the exact
        certification gate calls this for every action of every player,
        so the generic O(n·m)-profiles-per-action path made verification
        quadratically more expensive than Lemma 1 promises.
        """
        x, y = self._unpack(mixed)
        if player == ROW:
            return dot(self._a[action], y)
        if player == COLUMN:
            return dot(x, self.column_matrix_transposed[action])
        raise GameError(f"player {player} out of range for a bimatrix game")

    def row_payoffs_against(self, y: Sequence) -> tuple[Fraction, ...]:
        """Expected payoff of each pure row against column mix ``y``: (A y)_i.

        This is λ1(i) in the paper's notation — what the P1 verifier
        computes for every row when checking support optimality.
        """
        y = fraction_vector(y)
        if len(y) != self.num_columns:
            raise ProfileError("column mix has wrong length")
        return mat_vec(self._a, y)

    def column_payoffs_against(self, x: Sequence) -> tuple[Fraction, ...]:
        """Expected payoff of each pure column against row mix ``x``: (x^T B)_j.

        This is λ2(j) — the quantity the P2 verifier evaluates at its two
        random indices (Fig. 4).
        """
        x = fraction_vector(x)
        if len(x) != self.num_rows:
            raise ProfileError("row mix has wrong length")
        return vec_mat(x, self._b)

    def payoffs_against(self, player: int, other_mix: Sequence) -> tuple[Fraction, ...]:
        """Per-action expected payoffs of ``player`` against the other's mix."""
        if player == ROW:
            return self.row_payoffs_against(other_mix)
        if player == COLUMN:
            return self.column_payoffs_against(other_mix)
        raise GameError(f"player {player} out of range for a bimatrix game")

    def _unpack(self, mixed: MixedProfile) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        if mixed.num_players != 2:
            raise ProfileError("bimatrix games need 2-player mixed profiles")
        x, y = mixed.distributions
        if len(x) != self.num_rows or len(y) != self.num_columns:
            raise ProfileError(
                f"mixed profile shape ({len(x)}, {len(y)}) does not match "
                f"game shape ({self.num_rows}, {self.num_columns})"
            )
        return x, y

    # ------------------------------------------------------------------
    # Conversions and transforms
    # ------------------------------------------------------------------

    def transpose(self) -> "BimatrixGame":
        """Swap the roles of the two agents (B^T becomes the row matrix)."""
        a_t = tuple(zip(*self._b))
        b_t = tuple(zip(*self._a))
        return BimatrixGame(a_t, b_t, name=f"{self._name}^T")

    def to_strategic(self):
        """View as a generic :class:`~repro.games.strategic.StrategicGame`."""
        from repro.games.strategic import StrategicGame

        return StrategicGame.two_player(self._a, self._b, name=self._name)

    def __repr__(self) -> str:
        return (
            f"BimatrixGame(name={self._name!r}, "
            f"shape={self.num_rows}x{self.num_columns})"
        )
