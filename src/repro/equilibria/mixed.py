"""Mixed Nash equilibria: exact checks and equilibrium values.

The support characterization ("the second Nash theorem" the paper invokes
in Lemma 1) does all the work: a mixed profile is a Nash equilibrium iff,
for every player, all supported actions attain the maximal expected
payoff against the others.  Checking this is polynomial given the profile
— which is precisely why verification can be cheap while computation is
PPAD-hard.

In the two-phase solver pipeline this module is the *certification*
side: whatever numeric backend a search ran on, its candidates pass
through :func:`certify_mixed_profile` (exact arithmetic, no epsilon)
before they are allowed out of the solver layer.

Certification runs on the **integer lattice** wherever the game supports
it: a bimatrix game's payoffs are cleared to common-denominator integers
once (:attr:`~repro.games.bimatrix.BimatrixGame.integer_lattice`, cached)
and each candidate's mixed strategies are cleared the same way, so the
Lemma-1 support comparisons reduce to machine-integer dot products —
order-preserving by construction (everything a comparison touches is
scaled by the same positive integer), hence exactly equivalent to the
Fraction check, just without per-operation gcds.  Because the lattice
is cached, every candidate of a game shares one integerization;
:func:`fraction_nash_check` keeps the seed's Fraction path as the
reference (and the fallback for games without a lattice).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from repro.fractions_util import to_fraction
from repro.games.base import Game
from repro.games.bimatrix import BimatrixGame
from repro.games.profiles import MixedProfile
from repro.equilibria.best_reply import (
    best_reply_gap,
    best_reply_gaps,
    mixed_action_payoffs,
)
from repro.linalg.int_exact import integer_table_and_scales, integerize_vector


@dataclass(frozen=True)
class MixedNashReport:
    """Outcome of an exact mixed-equilibrium check.

    ``gaps[i]`` is how much player ``i`` could gain by a best deviation
    (all zero iff the profile is an exact equilibrium); ``values[i]`` is
    player ``i``'s expected payoff (the λ_i of Sect. 4).
    """

    is_equilibrium: bool
    gaps: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    @property
    def epsilon(self) -> Fraction:
        """The smallest epsilon for which this is an epsilon-equilibrium."""
        return max(self.gaps)


def fraction_nash_check(game: Game, mixed: MixedProfile) -> bool:
    """The seed's Fraction-arithmetic Nash check (reference semantics).

    Exact and game-agnostic; :func:`is_mixed_nash` routes through the
    integer lattice instead whenever the game provides one, with this
    function as the authority the lattice path must (and, per the
    property tests, does) agree with.
    """
    for player in game.players():
        payoffs = mixed_action_payoffs(game, player, mixed)
        best = max(payoffs)
        for action in mixed.support(player):
            if payoffs[action] != best:
                return False
    return True


def _integerized_support(distribution: Sequence[Fraction]):
    """One player's mix cleared to ints: ``(nonzero (index, weight)), support``.

    Clearing by the LCM of the denominators preserves zeroness, so the
    support can be read off the integer weights directly.
    """
    weights, __ = integerize_vector(distribution)
    nonzero = tuple((j, w) for j, w in enumerate(weights) if w)
    return nonzero, tuple(j for j, __ in nonzero)


def _lattice_side_optimal(payoff_rows, nonzero_mix, support) -> bool:
    """One Lemma-1 side on the integer lattice.

    ``payoff_rows`` is one player's integerized payoff matrix (own
    actions x opponent actions), ``nonzero_mix`` the opponent's cleared
    mix.  Every quantity compared is the true expected payoff scaled by
    the same positive integer (payoff scale x mix scale), so the
    supported-actions-attain-the-max check is exactly the Fraction one.
    """
    values = [
        sum(row[j] * w for j, w in nonzero_mix) for row in payoff_rows
    ]
    best = max(values)
    return all(values[i] == best for i in support)


def _lattice_nash_check(game: BimatrixGame, mixed: MixedProfile) -> bool:
    """Both Lemma-1 sides of a bimatrix candidate on the integer lattice."""
    x, y = game._unpack(mixed)  # shared shape validation
    lattice = game.integer_lattice
    y_ints, y_support = _integerized_support(y)
    x_ints, x_support = _integerized_support(x)
    return _lattice_side_optimal(
        lattice.row_payoffs, y_ints, x_support
    ) and _lattice_side_optimal(
        lattice.column_payoffs, x_ints, y_support
    )


def lattice_action_values(game: Game, mixed: MixedProfile):
    """Per-player expected action payoffs on the integer lattice.

    Returns one ``(values, denominator)`` pair per player — ``values[a]``
    is an int with ``values[a] / denominator`` equal, exactly, to
    ``expected_action_payoff(player, a, mixed)`` — or ``None`` when the
    game has no integer utility table or the profile's shape does not
    match the game (callers fall back to the Fraction oracle).

    The denominator is the player's table scale times the *other*
    players' mix-clearing scales, all positive, so within one player the
    integer values compare exactly as the Fractions do; and because the
    denominator is carried, callers that *report* values (the n-player
    verifier) reconstruct bit-identical Fractions at the boundary.
    """
    entry = integer_table_and_scales(game)
    if entry is None:
        return None
    table, payoff_scales = entry
    num_players = game.num_players
    if mixed.num_players != num_players:
        return None
    cleared = []
    for player in game.players():
        dist = mixed.distribution(player)
        if len(dist) != game.num_actions(player):
            return None
        weights, mix_scale = integerize_vector(dist)
        cleared.append(
            (tuple((j, w) for j, w in enumerate(weights) if w), mix_scale)
        )

    out = []
    for player in game.players():
        others = [cleared[q][0] for q in range(num_players) if q != player]
        denominator = payoff_scales[player]
        for q in range(num_players):
            if q != player:
                denominator *= cleared[q][1]
        values = [0] * game.num_actions(player)
        profile = [0] * num_players
        for combo in product(*others):
            weight = 1
            slot = 0
            for q in range(num_players):
                if q == player:
                    continue
                action, w = combo[slot]
                profile[q] = action
                weight *= w
                slot += 1
            for action in range(game.num_actions(player)):
                profile[player] = action
                values[action] += weight * table[tuple(profile)][player]
        out.append((tuple(values), denominator))
    return out


def is_mixed_nash(game: Game, mixed: MixedProfile) -> bool:
    """Exact Nash check via the support characterization.

    Bimatrix games are checked on their cached integer lattice (pure
    ``int`` dot products, no Fraction arithmetic); any other game with an
    integer utility table runs the n-player lattice check
    (:func:`lattice_action_values`); only games that cannot be tabulated
    fall back to the reference :func:`fraction_nash_check`.  All paths
    decide identically — the lattices are order-preserving images of the
    payoffs.
    """
    if isinstance(game, BimatrixGame):
        return _lattice_nash_check(game, mixed)
    lattice = lattice_action_values(game, mixed)
    if lattice is None:
        return fraction_nash_check(game, mixed)
    for player, (values, __) in enumerate(lattice):
        best = max(values)
        for action in mixed.support(player):
            if values[action] != best:
                return False
    return True


def check_mixed_nash(game: Game, mixed: MixedProfile) -> MixedNashReport:
    """Full report: equilibrium flag, per-player gaps and values."""
    gaps = best_reply_gaps(game, mixed)
    values = tuple(game.expected_payoff(player, mixed) for player in game.players())
    return MixedNashReport(
        is_equilibrium=all(g == 0 for g in gaps),
        gaps=gaps,
        values=values,
    )


def certify_mixed_profile(game: Game, candidate: MixedProfile) -> MixedProfile | None:
    """The exact certification gate of the two-phase pipeline.

    Returns ``candidate`` itself when it passes the exact support
    characterization, None otherwise.  Search backends (float or exact)
    must route every candidate through this gate after rational
    reconstruction; a None sends the caller back to the exact search
    path, so no approximate profile ever reaches :mod:`repro.core`.
    """
    return candidate if is_mixed_nash(game, candidate) else None


def certify_many(
    game: Game, candidates: Sequence[MixedProfile]
) -> list[MixedProfile | None]:
    """Exact certification of each candidate, in order.

    Returns one entry per candidate — the candidate itself when it
    passes the exact Lemma-1 gate, ``None`` otherwise: exactly
    :func:`certify_mixed_profile` per element.  The integer lattice is
    cached on the game, so the first check pays the clearing and the
    rest are a few integer dot products each.  The support-enumeration
    scans certify one candidate at a time; this is a convenience for
    callers that hold a list of them.
    """
    return [certify_mixed_profile(game, candidate) for candidate in candidates]


def is_epsilon_nash(game: Game, mixed: MixedProfile, epsilon) -> bool:
    """True iff no player can gain more than ``epsilon`` by deviating."""
    epsilon = to_fraction(epsilon)
    if epsilon < 0:
        return False
    return all(
        best_reply_gap(game, player, mixed) <= epsilon for player in game.players()
    )


def equilibrium_values(game: Game, mixed: MixedProfile) -> tuple[Fraction, ...]:
    """The per-player expected payoffs λ_1, ..., λ_n at ``mixed``.

    For a 2-player equilibrium these are exactly the (λ1, λ2) the P2
    prover transmits.
    """
    return tuple(game.expected_payoff(player, mixed) for player in game.players())
