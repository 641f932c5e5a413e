"""Symmetric games, in particular n-player two-action symmetric games.

The participation game of Sect. 5 is symmetric: "by Nash's theorem it has
a symmetric Nash equilibrium in which each firm decides to participate or
not with probability p independent of the others".  This module provides

* :class:`SymmetricTwoActionGame` — n players, two actions, payoffs that
  depend only on the player's own action and the *count* of opponents
  choosing action 1 (the standard compact form for such games);
* exact binomial machinery to evaluate expected payoffs under the
  symmetric mixed profile ``p`` (the quantities A, B, C, D of Eq. (3));
* :func:`is_symmetric` — a checker that a generic 2-player strategic
  game is symmetric (used by tests and the verifier's solution-concept
  library).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from repro.errors import GameError
from repro.fractions_util import to_fraction
from repro.games.base import Game, UtilityTableMixin
from repro.games.profiles import PureProfile


def binomial_pmf(k: int, n: int, p: Fraction) -> Fraction:
    """Exact binomial probability  C(n, k) p^k (1-p)^(n-k)."""
    if not 0 <= k <= n:
        return Fraction(0)
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def binomial_tail_at_least(k: int, n: int, p: Fraction) -> Fraction:
    """Exact ``P[X >= k]`` for ``X ~ Binomial(n, p)``."""
    if k <= 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    return sum(
        (binomial_pmf(j, n, p) for j in range(k, n + 1)), start=Fraction(0)
    )


def binomial_tail_at_most(k: int, n: int, p: Fraction) -> Fraction:
    """Exact ``P[X <= k]`` for ``X ~ Binomial(n, p)``."""
    return Fraction(1) - binomial_tail_at_least(k + 1, n, p)


class SymmetricTwoActionGame(Game, UtilityTableMixin):
    """An n-player symmetric game with actions {0, 1}.

    The payoff of a player depends only on its own action ``a`` and the
    number ``x`` of *other* players choosing action 1; it is supplied as
    ``payoff_fn(a, x)`` returning an exact value.  This compact form keeps
    the profile space exponential only where it must be (the Fig. 2 proof
    path materializes it explicitly; everything else works with counts).
    """

    def __init__(self, num_players: int, payoff_fn: Callable[[int, int], object],
                 name: str = ""):
        if num_players < 2:
            raise GameError("a symmetric game needs at least two players")
        self._n = int(num_players)
        self._name = name or "SymmetricTwoActionGame"
        # Materialize the (2 x n) compact payoff table once, exactly.
        self._compact = {
            (a, x): to_fraction(payoff_fn(a, x))
            for a in (0, 1)
            for x in range(self._n)
        }

    @property
    def num_players(self) -> int:
        return self._n

    @property
    def action_counts(self) -> tuple[int, ...]:
        return (2,) * self._n

    @property
    def name(self) -> str:
        return self._name

    def compact_payoff(self, action: int, others_in: int) -> Fraction:
        """Payoff for playing ``action`` when ``others_in`` opponents play 1."""
        try:
            return self._compact[(action, others_in)]
        except KeyError:
            raise GameError(
                f"compact payoff undefined for action={action}, others={others_in}"
            ) from None

    def payoff(self, player: int, profile: PureProfile) -> Fraction:
        profile = self.validate_profile(profile)
        others_in = sum(profile) - profile[player]
        return self.compact_payoff(profile[player], others_in)

    # ------------------------------------------------------------------
    # Symmetric mixed play
    # ------------------------------------------------------------------

    def expected_payoff_of_action(self, action: int, p) -> Fraction:
        """Exact expected payoff of pure ``action`` when every opponent plays 1 w.p. ``p``.

        The opponents' count of 1-plays is Binomial(n-1, p); this is the
        expectation the participation-game verifier evaluates on each side
        of the indifference identity (Eq. 2).
        """
        p = to_fraction(p)
        if not 0 <= p <= 1:
            raise GameError(f"probability {p} outside [0, 1]")
        return sum(
            (
                binomial_pmf(x, self._n - 1, p) * self.compact_payoff(action, x)
                for x in range(self._n)
            ),
            start=Fraction(0),
        )

    def symmetric_payoff(self, p) -> Fraction:
        """Expected payoff to any player when *everyone* plays 1 w.p. ``p``."""
        p = to_fraction(p)
        return (
            p * self.expected_payoff_of_action(1, p)
            + (1 - p) * self.expected_payoff_of_action(0, p)
        )

    def indifference_gap(self, p) -> Fraction:
        """``E[u(action 1)] - E[u(action 0)]`` at symmetric play ``p``.

        A fully-mixed symmetric equilibrium is exactly a root of this
        function in (0, 1); the verifier of Sect. 5 checks a claimed
        ``p`` by evaluating it (cheap) instead of solving for it (hard).
        """
        return self.expected_payoff_of_action(1, p) - self.expected_payoff_of_action(0, p)

    def is_symmetric_equilibrium(self, p) -> bool:
        """Exact check that "everyone plays 1 w.p. p" is a Nash equilibrium.

        Interior ``p`` requires exact indifference; the boundary points
        require the favoured action to be weakly better.
        """
        p = to_fraction(p)
        if not 0 <= p <= 1:
            return False
        gap = self.indifference_gap(p)
        if p == 0:
            return gap <= 0
        if p == 1:
            return gap >= 0
        return gap == 0

    def to_strategic(self):
        """Materialize the full 2^n table (for the Fig. 2 proof path)."""
        from repro.games.strategic import StrategicGame

        return StrategicGame.from_payoff_function(
            self.action_counts, self.payoff, name=self._name
        )


def is_symmetric(a_matrix: Sequence[Sequence], b_matrix: Sequence[Sequence]) -> bool:
    """True iff the bimatrix game (A, B) is symmetric, i.e. ``B = A^T``."""
    rows = len(a_matrix)
    cols = len(a_matrix[0]) if rows else 0
    if rows != cols:
        return False
    if len(b_matrix) != rows or any(len(r) != cols for r in b_matrix):
        return False
    for i in range(rows):
        for j in range(cols):
            if to_fraction(b_matrix[i][j]) != to_fraction(a_matrix[j][i]):
                return False
    return True
