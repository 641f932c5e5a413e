"""Helpers for exact rational arithmetic.

The paper types utilities as functions into the integers and builds
*checkable* proofs on top of them; any epsilon-tolerance in the checker
would undermine the "provable" part.  We therefore standardize on
:class:`fractions.Fraction` for every quantity a proof touches, and this
module centralizes the conversions between user input (ints, floats,
strings, numpy scalars) and exact rationals.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from fractions import Fraction
from typing import Iterable, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

Rational = Fraction

#: Values accepted wherever the library expects an exact number.
RationalLike = "int | Fraction | str | float | numbers.Integral"


#: Integers in ``[-SMALL_INT_LIMIT, SMALL_INT_LIMIT]`` convert to one
#: shared Fraction each, taken from ``_SMALL_INTS``.  Fractions are
#: immutable, so sharing is safe, and payoff matrices are mostly small
#: integers (the generators draw from [-10, 10]): 10,000 random 5x5
#: games hold 21 distinct payoff objects instead of 500,000, which is
#: most of what a server start builds and the collector walks.
SMALL_INT_LIMIT = 1024
_SMALL_INTS = tuple(Fraction(n) for n in range(-SMALL_INT_LIMIT, SMALL_INT_LIMIT + 1))


def to_fraction(value) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Integers, Fractions and strings convert exactly; an integer in
    ``[-SMALL_INT_LIMIT, SMALL_INT_LIMIT]`` returns its shared Fraction.
    Floats are converted via ``Fraction(value)`` (exact binary
    expansion) — callers that want a *decimal* reading of a float
    should pass a string instead.  Numpy integer and floating scalars
    are unwrapped first.

    Refused: booleans (``TypeError``), any other non-number type
    (``TypeError``), and non-finite floats — NaN, +inf and -inf,
    numpy float scalars included — with a ``ValueError`` that names
    the value.
    """
    if type(value) is int:
        if -SMALL_INT_LIMIT <= value <= SMALL_INT_LIMIT:
            return _SMALL_INTS[value + SMALL_INT_LIMIT]
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not valid payoff values")
    if isinstance(value, numbers.Integral):
        return to_fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float) or (np is not None and isinstance(value, np.floating)):
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"non-finite value {value!r} has no exact rational form")
        return Fraction(number)
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


def fraction_vector(values: Iterable) -> tuple[Fraction, ...]:
    """Convert an iterable of numbers to a tuple of Fractions.

    Already-exact input — a tuple whose entries are all Fractions — is
    returned unchanged.  Games normalize their payoffs once at
    construction, so the hot solver paths hit this fast path and skip
    re-converting (and re-allocating) the same exact data per call.
    """
    if type(values) is tuple and all(type(v) is Fraction for v in values):
        return values
    return tuple(to_fraction(v) for v in values)


def fraction_matrix(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    """Convert a 2-D iterable of numbers to a tuple-of-tuples of Fractions.

    Raises ``ValueError`` if the rows are ragged.  Like
    :func:`fraction_vector`, a tuple-of-tuples of Fractions (the form
    every game stores) passes through untouched after a shape check.
    """
    if type(rows) is tuple and all(
        type(row) is tuple and all(type(v) is Fraction for v in row)
        for row in rows
    ):
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("matrix rows have unequal lengths")
        return rows
    out = tuple(fraction_vector(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("matrix rows have unequal lengths")
    return out


def exact_fingerprint(*matrices: Iterable[Iterable], label: str = "") -> str:
    """Canonical fingerprint of exact rational matrices (SHA-256 hex).

    The key property is *exact-equality semantics*: two matrix tuples
    fingerprint identically iff every entry is the same rational number
    (``Fraction`` normalizes, so ``0.5``, ``"1/2"`` and ``Fraction(2, 4)``
    all hash as ``1/2``), and any difference in shape, entry order or
    value — however small — changes the digest.  This is the one place
    that defines how a game's payoffs are canonicalized into a cache
    key; every solve cache (the per-inventor one and the cross-run
    :class:`~repro.service.cache.SolveCache`) must key through here so
    their notions of "the same game" cannot drift apart.

    ``label`` namespaces the digest (e.g. the game class) so two
    structurally different objects with coincidentally equal matrices
    do not collide across kinds.
    """
    digest = hashlib.sha256()
    digest.update(label.encode("utf-8"))
    for matrix in matrices:
        digest.update(b"|M")
        for row in matrix:
            digest.update(b"|R")
            for value in row:
                f = to_fraction(value)
                digest.update(b"%d/%d;" % (f.numerator, f.denominator))
    return digest.hexdigest()


def is_probability_vector(values: Sequence[Fraction]) -> bool:
    """True iff all entries are in [0, 1] and they sum to exactly 1."""
    if not values:
        return False
    if any(v < 0 or v > 1 for v in values):
        return False
    return sum(values) == 1


def as_floats(values: Iterable[Fraction]):
    """Convert exact rationals to floats for reporting.

    Returns a numpy array when numpy is available, a plain list of
    floats otherwise — reporting code treats both uniformly (iteration
    and indexing), so the library's stdlib-only mode keeps working.
    """
    floats = [float(v) for v in values]
    if np is None:
        return floats
    return np.array(floats, dtype=float)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    """Exact dot product of two equal-length rational vectors.

    ``math.sumprod``-style accumulation: one running Fraction total
    (no per-term temporaries beyond the product) and zero terms are
    skipped outright — expected-payoff checks dot sparse mixed
    strategies against payoff rows, so most terms contribute exactly
    nothing and every skipped term saves a gcd-normalizing Fraction
    add.  Skipping adds of exact zeros cannot change the exact result.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    total = Fraction(0)
    for x, y in zip(a, b):
        if x and y:
            total += x * y
    return total


def mat_vec(matrix: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact matrix-vector product.

    The vector's nonzero entries are gathered once and shared across
    every row's accumulation (see :func:`dot` for why skipping exact
    zeros is free and sound).
    """
    nonzero = [(j, v) for j, v in enumerate(vec) if v]
    nvec = len(vec)
    out = []
    for row in matrix:
        if len(row) != nvec:
            raise ValueError(f"length mismatch: {len(row)} vs {nvec}")
        total = Fraction(0)
        for j, v in nonzero:
            x = row[j]
            if x:
                total += x * v
        out.append(total)
    return tuple(out)


def vec_mat(vec: Sequence[Fraction], matrix: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Exact vector-matrix product (row vector times matrix).

    Accumulates over the vector's nonzero entries only — one running
    Fraction per output column, rows with zero weight never touched.
    """
    if not matrix:
        return ()
    ncols = len(matrix[0])
    if len(vec) != len(matrix):
        raise ValueError(f"length mismatch: {len(vec)} vs {len(matrix)} rows")
    totals = [Fraction(0)] * ncols
    for v, row in zip(vec, matrix):
        if len(row) != ncols:
            raise ValueError(f"length mismatch: {len(row)} vs {ncols} columns")
        if not v:
            continue
        for j, x in enumerate(row):
            if x:
                totals[j] += v * x
    return tuple(totals)
