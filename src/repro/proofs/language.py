"""The statement language of Fig. 2.

The paper sketches a Coq formalization built from a handful of predicates
over strategy profiles; this module is the executable counterpart.  Each
predicate has a *decision procedure* that evaluates it against a game's
utility oracle — these are the primitive steps a proof certificate is
allowed to take, and the only way the checking kernel ever establishes a
fact.

Correspondence with Fig. 2 (line numbers from the paper):

====================  ==========================================
Fig. 2                here
====================  ==========================================
``change`` (l. 11)    :func:`repro.games.profiles.change`
``isStrat`` (l. 14)   :func:`eval_is_strat`
``eqStrat`` (l. 16)   :func:`eval_eq_strat`
``noComp``  (l. 18)   :func:`eval_no_comp`  (incomparability)
``leStrat`` (l. 20)   :func:`eval_le_strat` (``Si1 <=_u Si2``)
``isNash`` (l. 23)    :func:`eval_deviation` over all (i, s_i)
``isMaxNash`` (l.26)  leStrat/noComp against every equilibrium
====================  ==========================================
"""

from __future__ import annotations

from fractions import Fraction

from repro.games.base import Game
from repro.games.profiles import PureProfile, change, is_valid_profile


class CountingGame:
    """A utility-oracle wrapper that counts evaluations.

    The checking kernel wraps the game in one of these so that every
    certificate check reports exactly how much oracle work it did.

    For profile-space-scale certificates the kernel may ask the oracle
    to :meth:`prepare_integer_table` first: the whole utility table is
    cleared to per-player integers once
    (:func:`repro.linalg.int_exact.integer_utility_table`), after which
    every primitive comparison runs on machine ints via
    :meth:`payoff_key` instead of Fraction arithmetic.  The counters are
    unaffected — a :meth:`payoff_key` lookup costs one utility
    evaluation exactly like a :meth:`payoff` call, so the Sect. 3 cost
    story reads identically whichever arithmetic served it.
    """

    def __init__(self, game: Game):
        self._game = game
        self.utility_evaluations = 0
        self._int_table = None
        self._int_unavailable = False

    @property
    def game(self) -> Game:
        return self._game

    @property
    def action_counts(self) -> tuple[int, ...]:
        return self._game.action_counts

    @property
    def num_players(self) -> int:
        return self._game.num_players

    def prepare_integer_table(self) -> bool:
        """Clear the whole utility table to per-player integers, once.

        Worth its Θ(players · profiles) build exactly when the
        certificate itself is profile-space-scale (``allStrat`` /
        ``allNash`` / ``isMaxNash`` / dominance sweeps).  Games that
        cannot be tabulated simply keep the Fraction oracle — this is
        an arithmetic optimization, never a semantic switch.
        """
        if self._int_table is None and not self._int_unavailable:
            from repro.linalg.int_exact import integer_utility_table

            self._int_table = integer_utility_table(self._game)
            if self._int_table is None:
                self._int_unavailable = True
        return self._int_table is not None

    def payoff(self, player: int, profile: PureProfile) -> Fraction:
        self.utility_evaluations += 1
        return self._game.payoff(player, profile)

    def tabulated_is_strat(self, profile: PureProfile) -> bool | None:
        """Table-backed ``isStrat`` decision, or ``None`` when undecidable.

        The integer table's keys cover the profile space exactly, so for
        a tuple of plain ints membership *is* the bounds check.  Anything
        else — no table yet, wrong container, non-int entries (bools
        included: ``type`` is exact) — returns ``None`` and the caller
        runs the reference validation.  Lives on the oracle because the
        covers-the-space invariant is this class's to maintain.
        """
        table = self._int_table
        if (
            table is not None
            and type(profile) is tuple
            and all(type(action) is int for action in profile)
        ):
            return profile in table
        return None

    def payoff_key(self, player: int, profile: PureProfile):
        """An order-preserving payoff for *same-player* comparisons.

        Returns the player's payoff scaled by that player's common
        denominator (a machine int) when the integer table is prepared,
        the exact Fraction otherwise.  Keys of *different* players are
        on different scales and must never be compared — which mirrors
        the proof language itself: every Fig. 2 predicate compares one
        player's utilities with each other.  Counts as one utility
        evaluation.
        """
        self.utility_evaluations += 1
        table = self._int_table
        if table is not None:
            entry = table.get(tuple(profile))
            if entry is not None:
                return entry[player]
        return self._game.payoff(player, tuple(profile))


def eval_is_strat(oracle: CountingGame, profile: PureProfile) -> bool:
    """``isStrat``: the profile fits the game's strategy bounds.

    With an integerized utility table on the oracle, the decision is one
    membership probe (:meth:`CountingGame.tabulated_is_strat`) instead
    of a per-entry bounds walk; anything the table cannot decide takes
    the reference validation path, so the answer is identical either
    way.
    """
    decided = oracle.tabulated_is_strat(profile)
    if decided is not None:
        return decided
    return is_valid_profile(profile, oracle.action_counts)


def eval_eq_strat(profile_a: PureProfile, profile_b: PureProfile) -> bool:
    """``eqStrat``: componentwise equality of two profiles."""
    return tuple(profile_a) == tuple(profile_b)


def eval_deviation(
    oracle: CountingGame, profile: PureProfile, player: int, action: int
) -> bool:
    """One ``isNash`` clause: ``u_i(Si) >= u_i(change(Si, s_i, i))``.

    A same-player comparison, so it runs on the oracle's
    order-preserving :meth:`~CountingGame.payoff_key` values (machine
    ints when the utility table was integerized).
    """
    before = oracle.payoff_key(player, profile)
    after = oracle.payoff_key(player, change(tuple(profile), action, player))
    return before >= after


def eval_strict_improvement(
    oracle: CountingGame, profile: PureProfile, player: int, action: int
) -> bool:
    """The counterexample clause: ``u_i(Si) < u_i(change(Si, s_i, i))``."""
    before = oracle.payoff_key(player, profile)
    after = oracle.payoff_key(player, change(tuple(profile), action, player))
    return after > before


def eval_le_strat(
    oracle: CountingGame, profile_a: PureProfile, profile_b: PureProfile
) -> bool:
    """``leStrat``: every player weakly prefers ``profile_b`` (Si1 <=_u Si2)."""
    for player in range(oracle.num_players):
        if oracle.payoff_key(player, tuple(profile_a)) > oracle.payoff_key(
            player, tuple(profile_b)
        ):
            return False
    return True


def eval_no_comp(
    oracle: CountingGame,
    profile_a: PureProfile,
    profile_b: PureProfile,
    witness_i: int,
    witness_j: int,
) -> bool:
    """``noComp`` with explicit witnesses: ``u_i(Si1) < u_i(Si2)`` and
    ``u_j(Si2) < u_j(Si1)``."""
    n = oracle.num_players
    if not (0 <= witness_i < n and 0 <= witness_j < n):
        return False
    a = tuple(profile_a)
    b = tuple(profile_b)
    first = oracle.payoff_key(witness_i, a) < oracle.payoff_key(witness_i, b)
    second = oracle.payoff_key(witness_j, b) < oracle.payoff_key(witness_j, a)
    return first and second
