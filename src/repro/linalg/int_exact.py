"""Fraction-free exact kernel: integer Bareiss elimination.

:mod:`repro.linalg.exact` — the seed's reference arithmetic — runs
Gauss-Jordan directly over :class:`~fractions.Fraction`, which hides a
gcd normalization inside *every* add and multiply.  On the small dense
systems certification produces, those per-step gcds dominate the exact
path's cost.  This module removes them without touching exactness:

1. **Integerize once.**  Rational input is cleared to an integer
   lattice by LCM scaling (:func:`integerize_matrix` /
   :func:`integerize_vector`); inside the elimination everything is a
   Python ``int``.
2. **Bareiss fraction-free elimination.**  Cross-multiplication updates
   with an exact division by the previous pivot (Bareiss 1968) keep the
   intermediate entries integral *by construction* — no per-step gcd,
   and coefficient growth bounded by minor sizes instead of exploding.
3. **Fractions only at the boundary.**  Results are reconstructed as
   Fractions on the way out, so every public function here is a
   drop-in, bit-identical replacement for its :mod:`repro.linalg.exact`
   counterpart (same :data:`Matrix`/:data:`Vector` types, same values,
   same exceptions) — the property tests pin that equivalence on
   rank-deficient and degenerate systems too.

The module also supplies the two integerization services the rest of
the pipeline certifies on: :class:`IntegerLattice` (a bimatrix game's
payoffs cleared to a common-denominator integer lattice, cached on the
game) and :func:`integer_utility_table` (a finite game's whole utility
table scaled per player, the proof kernel's comparison currency).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import lcm  # repro: allow[R1] -- lcm is exact integer arithmetic; no float can leave it
from typing import Sequence

from repro.errors import LinearAlgebraError
from repro.fractions_util import fraction_matrix, fraction_vector
from repro.linalg.exact import Vector, _nullspace_from_rref

_ZERO = Fraction(0)


# ----------------------------------------------------------------------
# Integerization: clearing rationals to an integer lattice
# ----------------------------------------------------------------------


def integerize_vector(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Clear a rational vector to integers: ``(ints, scale)``.

    ``scale`` is the LCM of the denominators, so ``ints[i] / scale``
    reconstructs the input exactly and ``scale`` is the smallest
    positive integer with that property.
    """
    values = fraction_vector(values)
    scale = lcm(*(v.denominator for v in values)) if values else 1
    return (
        tuple(v.numerator * (scale // v.denominator) for v in values),
        scale,
    )


def integerize_matrix(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Clear a rational matrix to integers with one global LCM scale.

    Returns ``(int_rows, scale)`` with ``int_rows[i][j] / scale`` equal
    to the input entry.  One scale for the whole matrix — exactly what
    order-preserving payoff comparisons need: multiplying every entry
    by the same positive integer never changes which entries compare
    equal or larger.
    """
    rows = fraction_matrix(rows)
    scale = lcm(*(v.denominator for row in rows for v in row)) if rows else 1
    return (
        tuple(
            tuple(v.numerator * (scale // v.denominator) for v in row)
            for row in rows
        ),
        scale,
    )


@dataclass(frozen=True)
class IntegerLattice:
    """A bimatrix game's payoffs on the integer lattice.

    ``row_payoffs`` is ``row_scale * A`` and ``column_payoffs`` is
    ``column_scale * B^T`` (the column agent viewed through its own
    payoff rows), all entries Python ints.  Scaling is per matrix, which
    is sound for certification: the Lemma-1 support conditions only ever
    compare one player's payoffs with each other.  Built once per game
    and cached on :class:`~repro.games.bimatrix.BimatrixGame` next to
    ``payoff_fingerprint``, so every candidate of a game certifies on
    the same pre-cleared tensors.
    """

    row_payoffs: tuple[tuple[int, ...], ...]
    column_payoffs: tuple[tuple[int, ...], ...]
    row_scale: int
    column_scale: int

    @classmethod
    def from_matrices(cls, a_matrix, b_transposed) -> "IntegerLattice":
        ia, sa = integerize_matrix(a_matrix)
        ibt, sb = integerize_matrix(b_transposed)
        return cls(
            row_payoffs=ia, column_payoffs=ibt, row_scale=sa, column_scale=sb
        )


# ----------------------------------------------------------------------
# The Bareiss kernel
# ----------------------------------------------------------------------


def _exact_div(value: int, divisor: int) -> int:
    """Bareiss's exact division; raises if the theory were ever violated.

    Every division the fraction-free updates perform is provably exact
    (the intermediate entries are minors of the integer input).  The
    remainder check costs one divmod and turns a hypothetical bug into a
    loud error instead of a silently wrong "exact" answer.
    """
    quotient, remainder = divmod(value, divisor)
    if remainder:
        raise LinearAlgebraError(
            "Bareiss exact division failed (internal error)"
        )
    return quotient


def _integerize_augmented(a, b):
    """Per-row integer clearing of the augmented block ``[A | B]``.

    Returns ``(int_a, int_b, scales)`` where row ``i`` of the input
    equals ``(int_a[i], int_b[i]) / scales[i]``.  Per-row scaling keeps
    the integers smaller than one global LCM would and changes neither
    the row space nor the RREF.
    """
    int_a, int_b, scales = [], [], []
    for row, rhs_row in zip(a, b):
        scale = lcm(*(v.denominator for v in row), *(v.denominator for v in rhs_row)) \
            if (row or rhs_row) else 1
        int_a.append([v.numerator * (scale // v.denominator) for v in row])
        int_b.append([v.numerator * (scale // v.denominator) for v in rhs_row])
        scales.append(scale)
    return int_a, int_b, scales


def _bareiss_jordan(int_a, int_b, scales):
    """Fraction-free Gauss-Jordan over the integer augmented block.

    In place.  Returns ``(denominator, pivot_cols)``: on exit every
    pivot row equals ``denominator`` times its RREF row, and every
    non-pivot row equals ``scales[i] * denominator`` times the Fraction
    Gauss-Jordan state of the original row (``scales`` is permuted
    alongside the row swaps so the caller can divide the initial
    clearing back out).

    Pivot selection — first row at or below the cursor with a nonzero
    entry, leftmost column first — matches
    :func:`repro.linalg.exact.gaussian_elimination` exactly; the two
    algorithms therefore take identical row swaps and reach identical
    reduced forms.
    """
    nrows = len(int_a)
    ncols = len(int_a[0]) if int_a else 0
    denominator = 1
    pivot_cols: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = next((r for r in range(row, nrows) if int_a[r][col]), None)
        if pivot is None:
            continue
        int_a[row], int_a[pivot] = int_a[pivot], int_a[row]
        int_b[row], int_b[pivot] = int_b[pivot], int_b[row]
        scales[row], scales[pivot] = scales[pivot], scales[row]
        p = int_a[row][col]
        a_pivot_row = int_a[row]
        b_pivot_row = int_b[row]
        for r in range(nrows):
            if r == row:
                continue
            factor = int_a[r][col]
            if factor:
                a_row = int_a[r]
                b_row = int_b[r]
                int_a[r] = [
                    _exact_div(p * x - factor * y, denominator)
                    for x, y in zip(a_row, a_pivot_row)
                ]
                int_b[r] = [
                    _exact_div(p * x - factor * y, denominator)
                    for x, y in zip(b_row, b_pivot_row)
                ]
            elif p != denominator:
                # Keep every row on the uniform running denominator so
                # later exact divisions stay exact (the Bareiss
                # invariant covers scaled-but-untouched rows too).
                int_a[r] = [_exact_div(p * x, denominator) for x in int_a[r]]
                int_b[r] = [_exact_div(p * x, denominator) for x in int_b[r]]
        denominator = p
        pivot_cols.append(col)
        row += 1
    return denominator, pivot_cols


def bareiss_elimination(
    matrix: Sequence[Sequence], rhs: Sequence[Sequence] | None = None
):
    """Reduce ``matrix`` (plus optional rhs block) to RREF, fraction-free.

    Drop-in, bit-identical replacement for
    :func:`repro.linalg.exact.gaussian_elimination`: same signature,
    same ``(rref, rhs_rref, pivot_columns)`` result (RREF is canonical,
    and the carried rhs block goes through the same row operations), but
    computed on the integer lattice with a single reconstruction
    division per entry at the boundary.
    """
    a = fraction_matrix(matrix)
    nrows = len(a)
    if rhs is not None:
        b = fraction_matrix(rhs)
        if len(b) != nrows:
            raise LinearAlgebraError("rhs row count does not match matrix")
    else:
        b = tuple(() for _ in range(nrows))

    int_a, int_b, scales = _integerize_augmented(a, b)
    denominator, pivot_cols = _bareiss_jordan(int_a, int_b, scales)

    rank = len(pivot_cols)
    rref_rows = []
    rhs_rows = []
    for i in range(nrows):
        # Pivot rows carry the uniform denominator; rows below the rank
        # additionally keep their initial integer clearing.
        divisor = denominator if i < rank else denominator * scales[i]
        rref_rows.append(tuple(Fraction(x, divisor) for x in int_a[i]))
        rhs_rows.append(tuple(Fraction(x, divisor) for x in int_b[i]))
    return tuple(rref_rows), tuple(rhs_rows), tuple(pivot_cols)


def matrix_rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank, via the fraction-free kernel."""
    a = fraction_matrix(matrix)
    if not a:
        return 0
    int_a, int_b, scales = _integerize_augmented(a, tuple(() for _ in a))
    __, pivots = _bareiss_jordan(int_a, int_b, scales)
    return len(pivots)


def solve_square(matrix: Sequence[Sequence], rhs: Sequence) -> Vector:
    """Solve a square nonsingular system exactly, fraction-free.

    Bit-identical to :func:`repro.linalg.exact.solve_square` (the
    solution of a nonsingular system is unique): the rows are cleared to
    integers and solved by :func:`solve_square_integers`, and the one
    reconstruction division per unknown happens at the Fraction
    boundary.
    """
    a = fraction_matrix(matrix)
    b = fraction_vector(rhs)
    n = len(a)
    if n == 0:
        return ()
    if any(len(row) != n for row in a):
        raise LinearAlgebraError("solve_square requires a square matrix")
    if len(b) != n:
        raise LinearAlgebraError("rhs length does not match matrix")

    int_a, int_b, __ = _integerize_augmented(a, [[x] for x in b])
    numerators, det = solve_square_integers(
        [int_a[i] + int_b[i] for i in range(n)]
    )
    return tuple(Fraction(y_j, det) for y_j in numerators)


def solve_square_integers(
    augmented: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], int]:
    """Solve a square nonsingular integer system: ``(numerators, det)``.

    ``augmented`` holds the ``n >= 1`` rows ``[A | b]`` of Python ints
    (``n`` by ``n + 1``); it is not modified.  The solution is
    ``x_j = numerators[j] / det`` with ``det > 0``, so callers can keep
    comparing on integers and build Fractions only at their boundary.
    Forward Bareiss elimination to an integer echelon form, then the
    Nakos-Turner-Williams integer back-substitution — every division by
    a pivot is exact.  Raises :class:`~repro.errors.LinearAlgebraError`
    when the matrix is singular.
    """
    rows = list(augmented)
    n = len(rows)

    # Forward Bareiss: only rows below the pivot are touched.
    denominator = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise LinearAlgebraError("matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        pivot_row = rows[col]
        for r in range(col + 1, n):
            factor = rows[r][col]
            if factor:
                rows[r] = [
                    _exact_div(p * x - factor * y, denominator)
                    for x, y in zip(rows[r], pivot_row)
                ]
            elif p != denominator:
                rows[r] = [_exact_div(p * x, denominator) for x in rows[r]]
        denominator = p

    # Integer back-substitution: x_j = y_j / det with y_j integral.
    det = rows[n - 1][n - 1]
    y = [0] * n
    for j in range(n - 1, -1, -1):
        total = det * rows[j][n]
        for l in range(j + 1, n):
            total -= rows[j][l] * y[l]
        y[j] = _exact_div(total, rows[j][j])
    if det < 0:
        return tuple(-y_j for y_j in y), -det
    return tuple(y), det


def solve_linear_system(matrix: Sequence[Sequence], rhs: Sequence):
    """Solve a general system exactly, fraction-free.

    Bit-identical to :func:`repro.linalg.exact.solve_linear_system`:
    same ``(particular, basis)`` result, same
    :class:`~repro.errors.LinearAlgebraError` on inconsistent input.
    The inconsistency test runs on raw integers (a zero row's scaled rhs
    is nonzero iff the rational rhs is) and only the entries the
    particular solution and nullspace basis actually need are
    reconstructed as Fractions.
    """
    a = fraction_matrix(matrix)
    b = fraction_vector(rhs)
    nrows = len(a)
    if len(b) != nrows:
        raise LinearAlgebraError("rhs length does not match matrix")
    ncols = len(a[0]) if a else 0

    int_a, int_b, scales = _integerize_augmented(a, [[x] for x in b])
    denominator, pivot_cols = _bareiss_jordan(int_a, int_b, scales)
    rank = len(pivot_cols)

    # Inconsistency: a zero matrix row with nonzero rhs (integers
    # suffice — the boundary division never changes zeroness).
    for i in range(rank, nrows):
        if int_b[i][0] and not any(int_a[i]):
            raise LinearAlgebraError("linear system is inconsistent")

    particular = [_ZERO] * ncols
    for row_idx, col in enumerate(pivot_cols):
        particular[col] = Fraction(int_b[row_idx][0], denominator)

    pivot_set = set(pivot_cols)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [_ZERO] * ncols
        vec[free] = Fraction(1)
        for row_idx, col in enumerate(pivot_cols):
            vec[col] = Fraction(-int_a[row_idx][free], denominator)
        basis.append(tuple(vec))
    return tuple(particular), tuple(basis)


def nullspace(matrix: Sequence[Sequence]) -> tuple[Vector, ...]:
    """Exact nullspace basis, via the fraction-free kernel."""
    a = fraction_matrix(matrix)
    if not a:
        return ()
    ncols = len(a[0])
    rref, __, pivots = bareiss_elimination(a)
    return _nullspace_from_rref(rref, pivots, ncols)


# ----------------------------------------------------------------------
# Integer utility tables (the proof kernel's comparison currency)
# ----------------------------------------------------------------------

#: Profile-space cap above which :func:`integer_utility_table` declines
#: to materialize (the Fraction oracle keeps working; this only bounds
#: the *optimization's* memory, never correctness).
MAX_TABLE_PROFILES = 1 << 20

#: Per-game cache of integerized utility tables.  Weakly keyed: a table
#: lives exactly as long as its game, and re-checking certificates
#: against the same game (the E6 workload, and any authority serving
#: repeat games) pays the Θ(players · profiles) clearing once.
_TABLE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def integer_table_and_scales(game):
    """Like :func:`integer_utility_table`, plus the per-player scales.

    Returns ``(table, scales)`` where ``table[profile][p] / scales[p]``
    is player ``p``'s exact payoff — the scales let integer fast paths
    reconstruct bit-identical Fractions at the boundary (the n-player
    verifier reports exact values, not just verdicts).  ``None`` when
    the game cannot be tabulated; cached per game alongside the table.
    """
    from repro.games.profiles import enumerate_profiles, profile_space_size

    try:
        cached = _TABLE_CACHE.get(game)
    except TypeError:  # unhashable/unweakrefable game: build uncached
        cached = None
    if cached is not None:
        return cached
    try:
        counts = game.action_counts
        players = game.num_players
        if profile_space_size(counts) > MAX_TABLE_PROFILES:
            return None
        # Games with a batch accessor (one lookup per profile —
        # StrategicGame and friends) clear much faster than a
        # per-player oracle walk; both paths fetch identical Fractions.
        all_payoffs = getattr(game, "payoffs", None)
        if all_payoffs is not None:
            payoffs = {
                profile: all_payoffs(profile)
                for profile in enumerate_profiles(counts)
            }
            if any(len(row) != players for row in payoffs.values()):
                return None
        else:
            payoffs = {
                profile: [game.payoff(player, profile) for player in range(players)]
                for profile in enumerate_profiles(counts)
            }
        scales = [
            lcm(*(row[player].denominator for row in payoffs.values()))
            for player in range(players)
        ]
        table = {
            profile: tuple(
                value.numerator * (scales[player] // value.denominator)
                for player, value in enumerate(row)
            )
            for profile, row in payoffs.items()
        }
        entry = (table, tuple(scales))
    except Exception:  # noqa: BLE001 - any non-tabular game keeps the oracle
        return None
    try:
        _TABLE_CACHE[game] = entry
    except TypeError:
        pass
    return entry


def integer_utility_table(game):
    """Every player's payoffs over the whole profile space, as ints.

    Returns ``{profile: (int, ...)}`` where entry ``p`` of a profile's
    tuple is player ``p``'s payoff scaled by that *player's* common
    denominator — an order-preserving image, so every same-player
    utility comparison a proof certificate makes becomes a machine-int
    comparison.  Cross-player entries are deliberately *not* comparable
    (each player has their own scale), exactly mirroring the proof
    language, which never compares utilities across players.

    Returns ``None`` when the game cannot be tabulated (oversized
    profile space, or an oracle that rejects some profile) — callers
    fall back to the exact Fraction oracle.  Tables are cached per game
    (weakly), so a game checked repeatedly is cleared once.
    """
    entry = integer_table_and_scales(game)
    return None if entry is None else entry[0]
