"""The correctness gate: checks of served advice that do not trust the
service's own verdict.

* :func:`exact_check` re-derives the column player's mix from the
  announced supports with its own exact elimination and asks the
  repository's exact certifier, ``is_mixed_nash``, whether the served
  row mix and that column mix form a Nash equilibrium of the published
  game.
* :func:`advice_key` is the canonical byte string of a served advice,
  without the fields that legitimately differ between two servings of
  the same payoffs (the game id and the cache state), so repeats can be
  compared byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction


def advice_key(advice: dict) -> bytes:
    """Canonical bytes of a served advice block, minus id and cache."""
    body = {k: v for k, v in advice.items() if k not in ("game_id", "cache")}
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def _solve(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Unique solution of a square system, or None when singular."""
    size = len(matrix)
    rows = [list(row) + [value] for row, value in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [value / lead for value in rows[col]]
        for r in range(size):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def indifferent_mix(payoffs, own_support, other_support, other_actions: int):
    """The mix on ``other_support`` that makes every action of
    ``own_support`` earn the same payoff under ``payoffs`` (rows indexed
    by own action), or None when that system is not square and
    non-singular."""
    if len(own_support) != len(other_support):
        return None
    k = len(other_support)
    matrix = [
        [Fraction(payoffs[i][j]) for j in other_support] + [Fraction(-1)]
        for i in own_support
    ]
    matrix.append([Fraction(1)] * k + [Fraction(0)])
    solution = _solve(matrix, [Fraction(0)] * k + [Fraction(1)])
    if solution is None or any(p < 0 for p in solution[:k]):
        return None
    mix = [Fraction(0)] * other_actions
    for index, j in enumerate(other_support):
        mix[j] = solution[index]
    return mix


def exact_check(game, advice: dict) -> bool:
    """Does the served advice for the row player (``advice`` as it
    crossed the wire: ``suggestion`` a list of ``"num/den"`` strings,
    ``proof`` the two supports) extend to an exact Nash equilibrium?"""
    from repro.equilibria.mixed import is_mixed_nash
    from repro.games.profiles import MixedProfile

    row = [Fraction(value) for value in advice["suggestion"]]
    row_support = tuple(advice["proof"]["row_support"])
    col_support = tuple(advice["proof"]["column_support"])
    if tuple(i for i, p in enumerate(row) if p != 0) != row_support:
        return False
    __, cols = game.action_counts
    column = indifferent_mix(game.row_matrix, row_support, col_support, cols)
    if column is None:
        # A degenerate game: the supports do not pin the column mix.
        # Take the exact solver's mix for these supports; the certifier
        # below still decides the served row mix on its own.
        from repro.equilibria.support_enumeration import (
            equilibrium_for_supports,
        )

        found = equilibrium_for_supports(game, row_support, col_support)
        if found is None:
            return False
        column = list(found[0].distributions[1])
    return is_mixed_nash(game, MixedProfile((tuple(row), tuple(column))))
