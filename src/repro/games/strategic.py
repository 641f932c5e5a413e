"""Tabular n-player strategic-form games.

:class:`StrategicGame` is the workhorse concrete game: an explicit payoff
table over the full profile space, stored exactly.  It is the input format
for the Fig. 2 proof machinery (which enumerates profiles) and the target
of every conversion (bimatrix, symmetric, congestion) when a generic
n-player view is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from repro.errors import GameError
from repro.fractions_util import to_fraction
from repro.games.base import Game, UtilityTableMixin
from repro.games.profiles import PureProfile, enumerate_profiles


class StrategicGame(Game, UtilityTableMixin):
    """A finite game given by an explicit utility table.

    The table maps every pure profile to the tuple of all players'
    payoffs.  Construction validates that the table covers the entire
    profile space exactly once, so a :class:`StrategicGame` is always a
    total function — the proof checker never has to handle missing
    entries.
    """

    def __init__(
        self,
        action_counts: Sequence[int],
        table: Mapping[PureProfile, Sequence],
        name: str = "",
    ):
        self._action_counts = self.check_action_counts(action_counts)
        self._name = name or "StrategicGame"
        n = len(self._action_counts)
        expected = set(enumerate_profiles(self._action_counts))
        converted: dict[PureProfile, tuple[Fraction, ...]] = {}
        for profile, payoffs in table.items():
            profile = tuple(profile)
            if profile not in expected:
                raise GameError(f"profile {profile} is not in the profile space")
            payoffs = tuple(to_fraction(v) for v in payoffs)
            if len(payoffs) != n:
                raise GameError(
                    f"profile {profile} has {len(payoffs)} payoffs for {n} players"
                )
            converted[profile] = payoffs
        missing = expected - set(converted)
        if missing:
            raise GameError(
                f"utility table is missing {len(missing)} profiles, e.g. {sorted(missing)[0]}"
            )
        self._table = converted

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_payoff_function(
        cls, action_counts: Sequence[int], payoff_fn, name: str = ""
    ) -> "StrategicGame":
        """Materialize a game from ``payoff_fn(player, profile)``.

        Useful for compactly-defined games (congestion, participation)
        when an explicit table is needed, e.g. to build a Fig. 2
        enumeration proof over it.
        """
        counts = cls.check_action_counts(action_counts)
        n = len(counts)
        table = {
            profile: tuple(payoff_fn(i, profile) for i in range(n))
            for profile in enumerate_profiles(counts)
        }
        return cls(counts, table, name=name)

    @classmethod
    def two_player(cls, a_matrix: Sequence[Sequence], b_matrix: Sequence[Sequence],
                   name: str = "") -> "StrategicGame":
        """Build a 2-player game from row/column payoff matrices."""
        rows = len(a_matrix)
        cols = len(a_matrix[0]) if rows else 0
        if len(b_matrix) != rows or any(len(r) != cols for r in b_matrix):
            raise GameError("payoff matrices must have identical shapes")
        table = {
            (i, j): (a_matrix[i][j], b_matrix[i][j])
            for i in range(rows)
            for j in range(cols)
        }
        return cls((rows, cols), table, name=name)

    # ------------------------------------------------------------------
    # Game interface
    # ------------------------------------------------------------------

    @property
    def num_players(self) -> int:
        return len(self._action_counts)

    @property
    def action_counts(self) -> tuple[int, ...]:
        return self._action_counts

    @property
    def name(self) -> str:
        return self._name

    def payoff(self, player: int, profile: PureProfile) -> Fraction:
        profile = tuple(profile)
        try:
            payoffs = self._table[profile]
        except KeyError:
            raise GameError(f"profile {profile} is not in the profile space") from None
        if not 0 <= player < self.num_players:
            raise GameError(f"player {player} out of range")
        return payoffs[player]

    def payoffs(self, profile: PureProfile) -> tuple[Fraction, ...]:
        profile = tuple(profile)
        try:
            return self._table[profile]
        except KeyError:
            raise GameError(f"profile {profile} is not in the profile space") from None

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------

    def table(self) -> dict[PureProfile, tuple[Fraction, ...]]:
        """A copy of the underlying utility table."""
        return dict(self._table)

    def scale_payoffs(self, factor) -> "StrategicGame":
        """Return a new game with all payoffs multiplied by ``factor``.

        Positive scaling preserves best replies and hence equilibria; the
        equilibria tests use this invariance as a property check.
        """
        factor = to_fraction(factor)
        if factor <= 0:
            raise GameError("scaling factor must be positive")
        table = {
            profile: tuple(factor * v for v in payoffs)
            for profile, payoffs in self._table.items()
        }
        return StrategicGame(self._action_counts, table, name=self._name)

    def translate_payoffs(self, player: int, offset) -> "StrategicGame":
        """Add ``offset`` to every payoff of one player (equilibrium-safe)."""
        offset = to_fraction(offset)
        table = {}
        for profile, payoffs in self._table.items():
            row = list(payoffs)
            row[player] = row[player] + offset
            table[profile] = tuple(row)
        return StrategicGame(self._action_counts, table, name=self._name)

    def __repr__(self) -> str:
        counts = "x".join(str(c) for c in self._action_counts)
        return f"StrategicGame(name={self._name!r}, actions={counts})"
