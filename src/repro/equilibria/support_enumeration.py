"""Support enumeration for bimatrix games — a staged candidate engine.

This is the inventor-side computation whose *hardness* motivates the
paper: finding a mixed equilibrium is PPAD-complete in general, and the
honest-but-slow way to find all of them in a bimatrix game is to try every
support pair and decide feasibility of the equilibrium conditions.

For a support pair (S1, S2) the conditions are (Lemma 1's system, both
sides):

* y is a distribution supported within S2 making all rows in S1 earn a
  common value λ1 and all rows outside S1 earn at most λ1;
* x is a distribution supported within S1 making all columns in S2 earn
  a common value λ2 and all columns outside S2 earn at most λ2.

Each side is an LP feasibility question.  The search is organized as an
explicit five-stage pipeline::

    generate  →  decide  →  screen  →  reconstruct  →  certify

**Generate** lists candidate support pairs in a fixed deterministic
order.  **Decide** settles exactly, on the game's integer lattice, every
pair with a one-action side: a pure row pins the row mix, so Lemma 1
reduces to a plain comparison (likewise for a pure column), and a pair
failing it is dropped before any LP is built.  **Screen** decides,
approximately and cheaply, which of the remaining pairs can possibly
carry an equilibrium; it runs on a configurable
:class:`~repro.linalg.backend.NumericBackend` (the vectorized numpy
backend decides a chunk's y-side Lemma-1 systems as one zero-padded
stack built by fancy-indexing the float payoff matrix, then the
survivors' x-sides as another; the stdlib float backend screens one
pair at a time, warm-starting from the previous pair's basis when only
one action changed).  **Reconstruct** re-solves surviving candidates
exactly (support-restricted, on the fraction-free integer Bareiss
kernel — bit-identical to Fraction elimination).  **Certify** passes
each wave's reconstructions through the exact Lemma-1 gate as one
:func:`~repro.equilibria.mixed.certify_many` batch — all candidates of
a wave share the game's cached integer-lattice payoffs — before
anything is returned; an inconclusive or uncertifiable screen verdict
falls back to the seed's exact LP for that pair, so no approximate
profile ever escapes and soundness is unconditional in every mode.
With the default exact backend there is no screen at all: the pairs
the decide stage keeps go straight to the exact LP, Fractions end to
end.

Screening runs chunk by chunk off a fixed schedule of chunk sizes.  An
exhaustive enumeration screens DEFAULT_CHUNK_SIZE pairs per chunk.  A
first-hit scan (:func:`find_one_equilibrium`) on the numpy backend
starts at FIRST_CHUNK_SIZE pairs and doubles up to DEFAULT_CHUNK_SIZE,
stopping after the first wave that holds a certified pair, so a game
whose answer sits early in pair order screens a few dozen pairs, not
all of them.

Determinism: support pairs are generated in a fixed order, every stage
runs in the calling process, and candidates are resolved strictly in
pair order, so the same game and policy always return the same
equilibria.  The decide stage drops only pairs no backend could answer
from, so it changes cost, never an answer.  On the numpy backend each
pair's verdict is moreover the one its systems earn when screened
alone, so not even the chunk sizes can change an answer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from repro.errors import BackendError, EquilibriumError, LinearAlgebraError
from repro.games.bimatrix import BimatrixGame
from repro.games.profiles import MixedProfile
from repro.linalg.backend import (
    INCONCLUSIVE,
    NumericBackend,
    float_matrix,
    resolve_policy,
)
from repro.linalg.int_exact import solve_linear_system
from repro.linalg.int_lp import find_feasible_point

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Support pairs screened per work chunk in an exhaustive enumeration,
#: and the width a first-hit scan's doubling schedule grows to
#: (policy-overridable).  1024 amortizes the vectorized screen's
#: per-stack overhead while bounding the memory of one stack.
DEFAULT_CHUNK_SIZE = 1024


def _feasibility_rows(
    payoff_rows: Sequence[Sequence],
    own_support: tuple[int, ...],
    other_support: tuple[int, ...],
    zero,
    one,
) -> tuple[list, list, int]:
    """The Lemma-1 one-side feasibility system over any arithmetic.

    Variables: the mix q over ``other_support``, λ = λ⁺ - λ⁻ (free), and
    one slack per off-support action of ours.  Returns (rows, rhs,
    num_vars); ``zero``/``one`` select the arithmetic (Fraction or float).
    """
    num_own = len(payoff_rows)
    off_support = tuple(i for i in range(num_own) if i not in set(own_support))
    k = len(other_support)
    num_vars = k + 2 + len(off_support)  # q..., lam_plus, lam_minus, slacks...
    lam_plus = k
    lam_minus = k + 1
    rows: list[list] = []
    rhs: list = []

    # Supported actions: payoff(i) - λ = 0.
    for i in own_support:
        row = [zero] * num_vars
        for idx, j in enumerate(other_support):
            row[idx] = payoff_rows[i][j]
        row[lam_plus] = -one
        row[lam_minus] = one
        rows.append(row)
        rhs.append(zero)

    # Off-support actions: payoff(i) + slack = λ  (i.e. payoff(i) <= λ).
    for slack_idx, i in enumerate(off_support):
        row = [zero] * num_vars
        for idx, j in enumerate(other_support):
            row[idx] = payoff_rows[i][j]
        row[lam_plus] = -one
        row[lam_minus] = one
        row[k + 2 + slack_idx] = one
        rows.append(row)
        rhs.append(zero)

    # The mix is a probability distribution over the support.
    row = [zero] * num_vars
    for idx in range(k):
        row[idx] = one
    rows.append(row)
    rhs.append(one)
    return rows, rhs, num_vars


def _exact_one_side(
    payoff_rows: Sequence[Sequence[Fraction]],
    own_support: tuple[int, ...],
    other_support: tuple[int, ...],
    num_other_actions: int,
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """The seed path: exact LP feasibility, Fractions end to end."""
    rows, rhs, __ = _feasibility_rows(
        payoff_rows, own_support, other_support, _ZERO, _ONE
    )
    k = len(other_support)
    point = find_feasible_point(rows, rhs)
    if point is None:
        return None
    full_mix = [_ZERO] * num_other_actions
    for idx, j in enumerate(other_support):
        full_mix[j] = point[idx]
    value = point[k] - point[k + 1]
    return tuple(full_mix), value


def reconstruct_one_side(
    payoff_rows: Sequence[Sequence[Fraction]],
    own_support: tuple[int, ...],
    refined_other: tuple[int, ...],
    num_other_actions: int,
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """Exact support-restricted re-solve of a float candidate.

    Solves the *linear system* "all of ``own_support`` earns a common λ
    under a mix on ``refined_other`` summing to one" exactly (on the
    fraction-free integer Bareiss kernel — bit-identical to the seed's
    Fraction elimination, minus its per-step gcds), then checks the full
    Lemma-1 side conditions (probabilities in [0, 1], every
    off-``own_support`` action earning at most λ) with exact arithmetic.
    Returns None when the system is inconsistent, underdetermined, or the
    checks fail — the caller then falls back to the exact LP.

    This is shared certification infrastructure: both the support-
    enumeration screen and the Lemke-Howson float endpoint rebuild their
    candidates through it.
    """
    if not refined_other:
        return None
    k = len(refined_other)
    # Unknowns: q over refined_other, then λ (free sign — plain system).
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in own_support:
        row = [payoff_rows[i][j] for j in refined_other]
        row.append(-_ONE)
        matrix.append(row)
        rhs.append(_ZERO)
    matrix.append([_ONE] * k + [_ZERO])
    rhs.append(_ONE)
    try:
        particular, basis = solve_linear_system(matrix, rhs)
    except LinearAlgebraError:
        return None
    if basis:
        # Underdetermined: only the exact LP can pick a vertex.
        return None
    q = particular[:k]
    value = particular[k]
    if any(p < 0 or p > 1 for p in q):
        return None
    full_mix = [_ZERO] * num_other_actions
    for idx, j in enumerate(refined_other):
        full_mix[j] = q[idx]
    own = set(own_support)
    for i in range(len(payoff_rows)):
        if i in own:
            continue
        earned = sum(
            (payoff_rows[i][j] * full_mix[j] for j in refined_other), start=_ZERO
        )
        if earned > value:
            return None
    return tuple(full_mix), value


def solve_one_side(
    payoff_rows: Sequence[Sequence[Fraction]],
    own_support: Sequence[int],
    other_support: Sequence[int],
    num_other_actions: int,
    backend: NumericBackend | None = None,
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """Find the *other* player's mix that makes ``own_support`` optimal.

    ``payoff_rows[i][j]`` is our payoff for our action i against the other
    player's action j.  Returns ``(full_mix, value)`` where ``full_mix``
    is the other player's distribution (length ``num_other_actions``) and
    ``value`` is our common supported payoff λ — or None if infeasible.
    The returned values are always exact Fractions, whatever ``backend``
    the search phase ran on.
    """
    own_support = tuple(own_support)
    other_support = tuple(other_support)
    if not own_support or not other_support:
        return None

    if backend is not None and not backend.exact:
        rows, rhs, __ = _feasibility_rows(
            float_matrix(payoff_rows), own_support, other_support, 0.0, 1.0
        )
        try:
            point = backend.find_feasible_point(rows, rhs)
        except BackendError:
            point = None
            inconclusive = True
        else:
            inconclusive = False
            if point is None:
                return None  # confidently infeasible — pruned
        if not inconclusive:
            support_tol = backend.support_tol
            refined = tuple(
                j for idx, j in enumerate(other_support)
                if point[idx] > support_tol
            )
            reconstructed = reconstruct_one_side(
                payoff_rows, own_support, refined, num_other_actions
            )
            if reconstructed is not None:
                return reconstructed
        # Inconclusive float answer or failed certification: exact path.
    return _exact_one_side(
        payoff_rows, own_support, other_support, num_other_actions
    )


def equilibrium_for_supports(
    game: BimatrixGame,
    row_support: Sequence[int],
    col_support: Sequence[int],
    backend: NumericBackend | None = None,
) -> tuple[MixedProfile, Fraction, Fraction] | None:
    """One exact equilibrium with the given supports, or None.

    Returns ``(profile, λ1, λ2)``.  The returned profile's supports may be
    *subsets* of the requested ones (a feasible point may put zero weight
    on a requested action); callers that need support-exact equilibria
    should compare :meth:`MixedProfile.supports`.  Whatever the search
    backend, the returned profile is exact (see :func:`solve_one_side`).
    """
    a = game.row_matrix
    b_cols = game.column_matrix_transposed
    n, m = game.action_counts

    # The column mix y makes the row support indifferent (uses A).
    y_solution = solve_one_side(a, row_support, col_support, m, backend=backend)
    if y_solution is None:
        return None
    # The row mix x makes the column support indifferent (uses B columns).
    x_solution = solve_one_side(
        b_cols, col_support, row_support, n, backend=backend
    )
    if x_solution is None:
        return None

    y, lambda1 = y_solution
    x, lambda2 = x_solution
    profile = MixedProfile((x, y))
    return profile, lambda1, lambda2


def support_pairs(
    n: int, m: int, equal_size_only: bool = False
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All candidate support pairs, smallest first (deterministic order)."""
    row_supports = [
        combo
        for size in range(1, n + 1)
        for combo in itertools.combinations(range(n), size)
    ]
    col_supports = [
        combo
        for size in range(1, m + 1)
        for combo in itertools.combinations(range(m), size)
    ]
    for rs in row_supports:
        for cs in col_supports:
            if equal_size_only and len(rs) != len(cs):
                continue
            yield rs, cs


# ----------------------------------------------------------------------
# Stage 2: the exact decide stage
# ----------------------------------------------------------------------


def _ties_at_max(values) -> frozenset[int]:
    """The positions of ``values`` that tie at its maximum."""
    top = max(values)
    return frozenset(idx for idx, value in enumerate(values) if value == top)


def decide_support_pairs(game: BimatrixGame, pairs):
    """Drop the pairs whose one-action side fails Lemma 1; keep order.

    A pure row i pins the row mix to i, so the columns of S2 must all
    tie at the maximum of row i of B; a pure column j pins the column
    mix, so the rows of S1 must all tie at the maximum of column j of
    A.  Both are plain comparisons, read off two tables of the game's
    integer lattice (one positive scale per matrix keeps every tie and
    every order).  A pair failing either has an infeasible Lemma-1
    system, and its pure side's :func:`reconstruct_one_side` fails the
    same comparison, so no backend could ever answer from it.
    """
    lattice = game.integer_lattice
    # Row i of B is column i of column_scale * B^T, and so on.
    best_cols = [_ties_at_max(row) for row in zip(*lattice.column_payoffs)]
    best_rows = [_ties_at_max(col) for col in zip(*lattice.row_payoffs)]
    for rs, cs in pairs:
        if len(rs) == 1 and not best_cols[rs[0]].issuperset(cs):
            continue
        if len(cs) == 1 and not best_rows[cs[0]].issuperset(rs):
            continue
        yield rs, cs


def _search_setup(game: BimatrixGame, policy):
    """Resolve the policy to a backend and the payoffs it screens on.

    The float payoffs — A, and B transposed — are converted once per
    search, into the form the backend reads (ndarrays for the numpy
    backend), and every screening chunk reads them.
    """
    n, m = game.action_counts
    backend = resolve_policy(policy).search_backend(n + m)
    if backend.exact:
        return None, None
    payoffs = (
        backend.float_payoffs(game.row_matrix),
        backend.float_payoffs(game.column_matrix_transposed),
    )
    return backend, payoffs


def _certified(game: BimatrixGame, profile: MixedProfile) -> bool:
    """The exact certification gate every search candidate passes through."""
    from repro.equilibria.mixed import certify_mixed_profile

    return certify_mixed_profile(game, profile) is not None


def _reconstruct_candidate(game: BimatrixGame, rs, cs, verdict):
    """Stage 4 for one SCREEN_CANDIDATE verdict: the exact profile, or None.

    Exact support-restricted re-solves of both Lemma-1 sides on the
    refined supports the screen suggested; ``None`` (either side
    inconsistent, underdetermined, or side-condition-violating) sends
    the pair to the authoritative exact LP.
    """
    __, refined_cols, refined_rows = verdict
    n, m = game.action_counts
    y_side = reconstruct_one_side(game.row_matrix, rs, refined_cols, m)
    if y_side is None:
        return None
    x_side = reconstruct_one_side(
        game.column_matrix_transposed, cs, refined_rows, n
    )
    if x_side is None:
        return None
    return MixedProfile((x_side[0], y_side[0]))


# ----------------------------------------------------------------------
# Stage 3: the approximate screen
# ----------------------------------------------------------------------

#: Screen verdict codes.
SCREEN_PRUNED = 0      # confidently infeasible: drop the pair
SCREEN_CANDIDATE = 1   # feasible both sides: carries refined supports
SCREEN_EXACT = 2       # inconclusive: re-decide the pair exactly


def _variable_keys(num_own: int, own_support, other_support):
    """Stable identities for one side-system's columns.

    Basis reuse across neighbouring support pairs needs to know which
    column in the *new* system corresponds to a basic column of the
    *old* one; position is meaningless across systems, so columns are
    keyed by meaning: the mix variable of an opponent action, λ⁺/λ⁻, or
    the slack of one of our off-support actions.
    """
    keys = [("q", j) for j in other_support]
    keys.append(("L", "+"))
    keys.append(("L", "-"))
    own = set(own_support)
    keys.extend(("s", i) for i in range(num_own) if i not in own)
    return keys


def _one_action_apart(prev_own, prev_other, own, other) -> bool:
    """True when at most one action was added, removed, or swapped."""
    delta = len(set(prev_own) ^ set(own)) + len(set(prev_other) ^ set(other))
    return delta <= 2


class _SideScreener:
    """Sequential one-side screening with warm-started bases.

    Used on backends without a batched screen (the stdlib float
    backend).  After each feasible pair the final simplex basis is
    remembered under the column keys of :func:`_variable_keys`; when the
    next pair is at most one action away, the old basis is remapped onto
    the new system (swapped actions substitute for each other) and tried
    as a crash basis — one small square solve instead of a full phase-1
    run.  Any miss falls back to the cold screen, so warm starts change
    cost, never verdicts' soundness.
    """

    def __init__(self, backend: NumericBackend, float_rows):
        self._backend = backend
        self._rows = float_rows
        self._num_own = len(float_rows)
        self._prev = None  # (own, other, basis_keys)

    def _warm_columns(self, own, other, keys):
        if self._prev is None:
            return None
        # Underdetermined sides (fewer indifference equations than mix
        # variables) have many feasible vertices; a warm basis may land
        # on a different one than the cold simplex, which on degenerate
        # games changes *which* exact equilibrium the pair yields.  Warm
        # starts are therefore restricted to sides whose Lemma-1 system
        # generically pins a unique mix — there, any feasible point is
        # the same point, and reuse changes cost but never answers.
        if len(own) < len(other):
            return None
        prev_own, prev_other, prev_keys = self._prev
        if not prev_keys or not _one_action_apart(prev_own, prev_other, own, other):
            return None
        # Swapped actions map onto each other, kind for kind.
        swaps = {}
        gone_q = sorted(set(prev_other) - set(other))
        new_q = sorted(set(other) - set(prev_other))
        if len(gone_q) == len(new_q):
            swaps.update(
                {("q", g): ("q", a) for g, a in zip(gone_q, new_q)}
            )
        prev_off = set(range(self._num_own)) - set(prev_own)
        off = set(range(self._num_own)) - set(own)
        gone_s = sorted(prev_off - off)
        new_s = sorted(off - prev_off)
        if len(gone_s) == len(new_s):
            swaps.update(
                {("s", g): ("s", a) for g, a in zip(gone_s, new_s)}
            )
        key_to_col = {key: col for col, key in enumerate(keys)}
        columns = []
        for key in prev_keys:
            if key not in key_to_col:
                key = swaps.get(key)
                if key is None or key not in key_to_col:
                    return None
            columns.append(key_to_col[key])
        return columns

    def screen(self, own, other):
        """Feasible point, ``None``, or :data:`INCONCLUSIVE` for one side."""
        rows, rhs, __ = _feasibility_rows(self._rows, own, other, 0.0, 1.0)
        keys = _variable_keys(self._num_own, own, other)
        warm_columns = self._warm_columns(own, other, keys)
        if warm_columns is not None:
            point = self._backend.try_basis(rows, rhs, warm_columns)
            if point is not None:
                self._prev = (own, other, [keys[c] for c in warm_columns])
                return point
        try:
            solved = self._backend.find_feasible_basis(rows, rhs)
        except BackendError:
            self._prev = None
            return INCONCLUSIVE
        if solved is None:
            self._prev = None
            return None
        point, basis_columns = solved
        self._prev = (own, other, [keys[c] for c in basis_columns])
        return point


def _refine(point, other_support, support_tol):
    """The support a screened feasible point actually stands on."""
    return tuple(
        j for idx, j in enumerate(other_support) if point[idx] > support_tol
    )


def _triage(y_point, x_point, rs, cs, support_tol):
    """Map one pair's two side-points to a screen verdict.

    Shared by the batched and scalar screens so the verdict encoding
    cannot diverge between them.  ``x_point`` may be omitted (None is
    ambiguous, so the caller passes it only when the y-side survived).
    """
    if y_point is None or x_point is None:
        return (SCREEN_PRUNED,)
    if y_point is INCONCLUSIVE or x_point is INCONCLUSIVE:
        return (SCREEN_EXACT,)
    return (
        SCREEN_CANDIDATE,
        _refine(y_point, cs, support_tol),
        _refine(x_point, rs, support_tol),
    )


def _lemma1_stack(payoff, owns, others):
    """One side's Lemma-1 systems of many support pairs, as one stack.

    System p is ``_feasibility_rows(payoff, owns[p], others[p], 0.0,
    1.0)`` with its mix columns zero-padded to the widest ``others`` and
    its slack columns to the most off-support actions, so entry ``idx``
    of its point is still the weight on ``others[p][idx]``.  The
    numpy backend's module docstring explains why this padding cannot
    change a verdict.  ``payoff`` is the backend's float ndarray and
    supports are sorted tuples, as :func:`support_pairs` yields them.
    """
    import numpy as np

    from repro.linalg.numpy_backend import SystemStack

    num_own = payoff.shape[0]
    batch = len(owns)
    own_sizes = np.fromiter(map(len, owns), dtype=np.intp, count=batch)
    other_sizes = np.fromiter(map(len, others), dtype=np.intp, count=batch)
    width = int(other_sizes.max())
    slack_width = num_own - int(own_sizes.min())

    # Row order: the supported actions, then the off-support ones.
    supported = np.zeros((batch, num_own), dtype=bool)
    supported[
        np.repeat(np.arange(batch), own_sizes),
        np.fromiter(itertools.chain.from_iterable(owns), dtype=np.intp),
    ] = True
    row_order = np.argsort(~supported, axis=1, kind="stable")
    in_mix = np.arange(width) < other_sizes[:, None]
    mix_cols = np.zeros((batch, width), dtype=np.intp)
    mix_cols[in_mix] = np.fromiter(
        itertools.chain.from_iterable(others), dtype=np.intp
    )

    a = np.zeros((batch, num_own + 1, width + 2 + slack_width))
    a[:, :num_own, :width] = np.where(
        in_mix[:, None, :],
        payoff[row_order[:, :, None], mix_cols[:, None, :]],
        0.0,
    )
    a[:, :num_own, width] = -1.0     # λ⁺
    a[:, :num_own, width + 1] = 1.0  # λ⁻
    a[:, num_own, :width] = in_mix   # the mix sums to one
    slack = np.arange(num_own) - own_sizes[:, None]
    system, row = np.nonzero(slack >= 0)
    a[system, row, width + 2 + slack[system, row]] = 1.0
    b = np.zeros((batch, num_own + 1))
    b[:, num_own] = 1.0
    sizes = (num_own + 1) + (other_sizes + 2 + num_own - own_sizes)
    return SystemStack(a, b, sizes)


def screen_support_chunk(backend, a_float, b_cols_float, pairs):
    """Screen one chunk of support pairs; returns one verdict per pair.

    ``a_float`` and ``b_cols_float`` are the payoffs as
    :func:`_search_setup` converted them.  Verdicts come back in pair
    order: ``(SCREEN_PRUNED,)``, ``(SCREEN_CANDIDATE, refined_cols,
    refined_rows)`` or ``(SCREEN_EXACT,)``.  No exact arithmetic runs
    here; that is the reconstruct and certify stages' job.

    Backends with a batched screen decide all y-sides of the chunk as
    one padded stack, then all x-sides of the survivors as another;
    scalar backends screen pair by pair with warm-started bases.
    """
    support_tol = backend.support_tol
    if backend.batched_screen:
        y_points = backend.screen_feasible(_lemma1_stack(
            a_float, [rs for rs, __ in pairs], [cs for __, cs in pairs]
        ))
        survivors = [
            idx for idx, point in enumerate(y_points)
            if point is not None and point is not INCONCLUSIVE
        ]
        x_points = {}
        if survivors:
            x_points = dict(zip(survivors, backend.screen_feasible(
                _lemma1_stack(
                    b_cols_float,
                    [pairs[idx][1] for idx in survivors],
                    [pairs[idx][0] for idx in survivors],
                )
            )))
        return [
            _triage(
                y_points[idx],
                x_points.get(idx, INCONCLUSIVE) if y_points[idx] is not None
                else None,
                rs, cs, support_tol,
            )
            for idx, (rs, cs) in enumerate(pairs)
        ]

    y_screener = _SideScreener(backend, a_float)
    x_screener = _SideScreener(backend, b_cols_float)
    verdicts = []
    for rs, cs in pairs:
        y_point = y_screener.screen(rs, cs)
        x_point = None
        if y_point is not None and y_point is not INCONCLUSIVE:
            x_point = x_screener.screen(cs, rs)
        elif y_point is INCONCLUSIVE:
            x_point = INCONCLUSIVE  # the pair is exact-bound either way
        verdicts.append(_triage(y_point, x_point, rs, cs, support_tol))
    return verdicts


# ----------------------------------------------------------------------
# Stages 4 + 5: exact reconstruction and certification
# ----------------------------------------------------------------------


def _resolve_screened_pair(game, rs, cs, verdict):
    """Turn one screen verdict into an exact result (or None).

    Everything here is Fractions: candidates reconstruct through the
    support-restricted exact re-solve and pass the Lemma-1 gate; any
    failure — and any inconclusive screen — re-decides the pair on the
    seed's exact LP.  Pruned pairs were rejected with a clear margin and
    cost nothing further.
    """
    if verdict[0] == SCREEN_PRUNED:
        return None
    if verdict[0] == SCREEN_CANDIDATE:
        profile = _reconstruct_candidate(game, rs, cs, verdict)
        if profile is not None and _certified(game, profile):
            return profile
        # Reconstruction or certification failed: the screen suggested
        # supports the exact side conditions reject.  Fall through to
        # the authoritative exact decision for this pair.
    result = equilibrium_for_supports(game, rs, cs)
    return result[0] if result is not None else None


#: Chunk size for *scalar* screening when only the first hit matters:
#: a lazy scan usually resolves within the first few pairs, so big
#: chunks would screen ~1000 pairs it never looks at.
SCALAR_FIND_CHUNK_SIZE = 16

#: The first chunk of a first-hit scan on a batched screen.  Later
#: chunks double, up to DEFAULT_CHUNK_SIZE: on random 5x5 games the
#: winning pair's median position is about 62 of 961, so most scans
#: stop after the first chunk or two, while a scan that runs long soon
#: reaches full stack width.
FIRST_CHUNK_SIZE = 64


def _chunk_sizes(backend, chunk_size, first_hit):
    """The fixed chunk-size schedule of one scan.

    A policy's ``chunk_size`` fixes every chunk; an exhaustive scan
    uses DEFAULT_CHUNK_SIZE; a first-hit scan uses
    SCALAR_FIND_CHUNK_SIZE on a scalar screen and the doubling schedule
    from FIRST_CHUNK_SIZE on a batched one.
    """
    if chunk_size:
        yield from itertools.repeat(chunk_size)
    elif not first_hit:
        yield from itertools.repeat(DEFAULT_CHUNK_SIZE)
    elif not backend.batched_screen:
        yield from itertools.repeat(SCALAR_FIND_CHUNK_SIZE)
    else:
        size = FIRST_CHUNK_SIZE
        while True:
            yield size
            size = min(2 * size, DEFAULT_CHUNK_SIZE)


def _screened_verdict_waves(backend, payoffs, pair_stream, chunk_sizes):
    """Stream screened waves ``[((rs, cs), verdict), ...]`` in pair order.

    Each wave is the next chunk of the ``chunk_sizes`` schedule, taken
    off the pair generator, so the exponential pair space is never
    materialized and memory is bounded by one chunk.  Yielding whole
    waves (rather than single pairs) lets the enumeration certify each
    wave's surviving candidates as one batch.
    """
    a_float, b_cols_float = payoffs
    while True:
        chunk = list(itertools.islice(pair_stream, next(chunk_sizes)))
        if not chunk:
            return
        yield list(zip(chunk, screen_support_chunk(
            backend, a_float, b_cols_float, chunk
        )))


def _screened_pairs(backend, payoffs, pair_stream, chunk_sizes):
    """Flattened :func:`_screened_verdict_waves` (for first-hit scans)."""
    for wave in _screened_verdict_waves(
        backend, payoffs, pair_stream, chunk_sizes
    ):
        yield from wave


def _resolve_screened_wave(game, wave, seen, out):
    """Stages 4+5 for one wave: batch-certify, then resolve in pair order.

    All of the wave's SCREEN_CANDIDATE verdicts are reconstructed first
    and certified through one :func:`~repro.equilibria.mixed.certify_many`
    batch (one integer-lattice resolution for the whole wave); pairs
    whose candidate failed either step — and every SCREEN_EXACT pair —
    are then re-decided by the authoritative exact LP, strictly in pair
    order, so results are identical to the pair-at-a-time path.
    """
    from repro.equilibria.mixed import certify_many

    candidates: list[MixedProfile] = []
    candidate_of: dict[int, int] = {}
    for idx, ((rs, cs), verdict) in enumerate(wave):
        if verdict[0] == SCREEN_CANDIDATE:
            profile = _reconstruct_candidate(game, rs, cs, verdict)
            if profile is not None:
                candidate_of[idx] = len(candidates)
                candidates.append(profile)
    certified = certify_many(game, candidates)
    for idx, ((rs, cs), verdict) in enumerate(wave):
        if verdict[0] == SCREEN_PRUNED:
            continue
        profile = None
        slot = candidate_of.get(idx)
        if slot is not None:
            profile = certified[slot]
        if profile is None:
            # Inconclusive screen, failed reconstruction, or failed
            # certification: the exact LP decides the pair.
            result = equilibrium_for_supports(game, rs, cs)
            profile = result[0] if result is not None else None
        if profile is not None and profile.distributions not in seen:
            seen.add(profile.distributions)
            out.append(profile)


def support_enumeration(
    game: BimatrixGame,
    equal_size_only: bool = False,
    policy=None,
) -> tuple[MixedProfile, ...]:
    """All equilibria found by support enumeration, deduplicated.

    With ``equal_size_only`` the search restricts to equal-cardinality
    supports — complete for non-degenerate games and much faster; the
    default scans every pair, which also picks up degenerate equilibria
    such as the Fig. 5 continuum's extreme points.

    ``policy`` selects the numeric search backend (``None``/"exact" is
    the seed behaviour; "float+certify" screens support pairs one at a
    time in float64; "numpy" screens whole stacks of pairs vectorized).

    Soundness is unconditional in every mode: nothing uncertified is
    ever returned.  *Completeness* of the approximate screens is heuristic:
    they row-equilibrate and treat only clear margins as infeasible
    (anything borderline is re-decided exactly), but a knife-edge
    support pair whose feasibility margin sits below float resolution
    can in principle be pruned.  Callers that must not miss any
    equilibrium use the exact policy.
    """
    resolved = resolve_policy(policy)
    backend, payoffs = _search_setup(game, resolved)
    n, m = game.action_counts
    seen: set[tuple] = set()
    out: list[MixedProfile] = []
    pairs = decide_support_pairs(
        game, support_pairs(n, m, equal_size_only=equal_size_only)
    )

    if backend is None:
        # The seed path: exact LP per pair, no screen, and
        # no materialization — pairs stream straight off the generator.
        for rs, cs in pairs:
            result = equilibrium_for_supports(game, rs, cs)
            if result is None:
                continue
            profile = result[0]
            if profile.distributions not in seen:
                seen.add(profile.distributions)
                out.append(profile)
        return tuple(out)

    chunk_sizes = _chunk_sizes(backend, resolved.chunk_size, first_hit=False)
    for wave in _screened_verdict_waves(backend, payoffs, pairs, chunk_sizes):
        _resolve_screened_wave(game, wave, seen, out)
    return tuple(out)


def find_one_equilibrium(game: BimatrixGame, policy=None) -> MixedProfile:
    """The first equilibrium support enumeration finds (smallest support).

    Every finite game has one (Nash 1950), so exhausting the support pairs
    without a hit indicates an internal error — or, on an approximate
    search backend, an over-aggressive screen; in that case the scan is
    repeated on the exact path before concluding anything.

    Screening is chunked and *lazy*: pairs stream off the generator one
    wave at a time and the scan stops inside the first wave containing a
    certified equilibrium, so the exponential pair space is never
    materialized.  On the numpy backend the chunks follow a fixed
    doubling schedule — FIRST_CHUNK_SIZE pairs, then twice as many, up
    to DEFAULT_CHUNK_SIZE — so an early answer costs a small stack and
    a late one soon gets full-width stacks; the stdlib float backend
    screens SCALAR_FIND_CHUNK_SIZE pairs per chunk, and a policy's
    ``chunk_size`` fixes every chunk.  Candidates are resolved strictly
    in pair order.
    """
    resolved = resolve_policy(policy)
    backend, payoffs = _search_setup(game, resolved)
    n, m = game.action_counts
    pairs = decide_support_pairs(game, support_pairs(n, m))
    if backend is None:
        for rs, cs in pairs:
            result = equilibrium_for_supports(game, rs, cs)
            if result is not None:
                return result[0]
        raise EquilibriumError(
            "support enumeration found no equilibrium; "
            "this contradicts Nash's theorem"
        )

    chunk_sizes = _chunk_sizes(backend, resolved.chunk_size, first_hit=True)
    for (rs, cs), verdict in _screened_pairs(
        backend, payoffs, pairs, chunk_sizes
    ):
        profile = _resolve_screened_pair(game, rs, cs, verdict)
        if profile is not None:
            return profile
    # The approximate screen may have pruned a knife-edge support pair;
    # the exact rescan is the authoritative answer.
    return find_one_equilibrium(game)
