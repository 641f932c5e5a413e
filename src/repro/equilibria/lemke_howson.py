"""The Lemke-Howson algorithm with exact or float-then-certify pivoting.

This is the inventor's heavyweight tool for bimatrix games: path-following
over the best-response polytopes, worst-case exponential (the problem is
PPAD-complete, as the paper stresses via [6]), but exact — every
equilibrium it returns verifies under the exact checkers, which is what
makes the advice *provable*.

Conventions (von Stengel's formulation):

* labels ``0..n-1`` belong to the row player's actions, ``n..n+m-1`` to
  the column player's;
* tableau X carries the row player's polytope ``{x >= 0, B^T x <= 1}``
  (m constraint rows); tableau Y carries ``{y >= 0, A y <= 1}``
  (n constraint rows);
* both payoff matrices are shifted to be strictly positive first (an
  equilibrium-preserving transformation);
* ties in the ratio test are broken lexicographically on whole rows,
  which terminates on degenerate games.

Two-phase pipeline: with ``policy="float+certify"`` (or "auto" on large
games) the pivoting runs in float64 — the path-following is identical,
just two orders of magnitude cheaper per pivot because no rational
coefficient growth occurs.  The float endpoint only *suggests supports*:
the candidate is reconstructed as Fractions by an exact
support-restricted re-solve and certified against the exact Lemma-1
conditions; any failure reruns the exact pivoting, so what this module
returns is exact under every policy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.errors import EquilibriumError
from repro.games.bimatrix import BimatrixGame
from repro.games.profiles import MixedProfile
from repro.linalg.backend import DEFAULT_SUPPORT_TOL, resolve_policy

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Fallback pivot tolerance for backends that do not define their own.
#: The support threshold has no module-level copy: it is the backend's
#: :attr:`~repro.linalg.backend.FloatBackend.support_tol`, one
#: documented default for every phase of the pipeline.
_FLOAT_PIVOT_TOL = 1e-9


class _Tableau:
    """One polytope's dictionary with exact or float pivoting.

    ``rows`` is a list of lists of numbers (Fractions or floats):
    decision and slack columns followed by the right-hand side.
    ``basic`` maps each row to the label of its basic variable;
    ``column_of`` maps a label to its column.  ``tol`` is the
    treat-as-zero threshold: 0 for exact arithmetic (the comparisons
    reduce to the seed's ``> 0`` / ``!= 0``), a small positive float for
    the float backend.
    """

    def __init__(self, matrix_rows: Sequence[Sequence],
                 decision_labels: Sequence[int], slack_labels: Sequence[int],
                 one=_ONE, zero=_ZERO, tol=_ZERO):
        num_rows = len(matrix_rows)
        self._one = one
        self._tol = tol
        self.column_of = {}
        for idx, label in enumerate(decision_labels):
            self.column_of[label] = idx
        for idx, label in enumerate(slack_labels):
            self.column_of[label] = len(decision_labels) + idx
        width = len(decision_labels) + len(slack_labels) + 1
        self.rows: list[list] = []
        for r, matrix_row in enumerate(matrix_rows):
            row = list(matrix_row)
            row += [one if j == r else zero for j in range(num_rows)]
            row.append(one)
            if len(row) != width:
                raise EquilibriumError("internal tableau width mismatch")
            self.rows.append(row)
        self.basic: list[int] = list(slack_labels)
        self._zero = zero

    def enter(self, label: int) -> int:
        """Pivot the variable with ``label`` into the basis.

        Returns the label of the leaving variable.  The leaving row is the
        lexicographic minimum of (row / pivot-coefficient) over rows with a
        positive pivot coefficient — the classic anti-cycling rule.
        """
        col = self.column_of[label]
        best_row = None
        best_vector = None
        for r, row in enumerate(self.rows):
            coef = row[col]
            if coef > self._tol:
                # rhs first, then the full row, all scaled by the pivot coef.
                vector = [row[-1] / coef] + [x / coef for x in row[:-1]]
                if best_vector is None or vector < best_vector:
                    best_vector = vector
                    best_row = r
        if best_row is None:
            raise EquilibriumError(
                "Lemke-Howson ray termination; payoff matrices must be positive"
            )
        leaving = self.basic[best_row]
        self._pivot(best_row, col)
        self.basic[best_row] = label
        return leaving

    def _pivot(self, row_idx: int, col_idx: int) -> None:
        inv = self._one / self.rows[row_idx][col_idx]
        self.rows[row_idx] = [x * inv for x in self.rows[row_idx]]
        pivot_row = self.rows[row_idx]
        for r, row in enumerate(self.rows):
            if r != row_idx and abs(row[col_idx]) > self._tol:
                factor = row[col_idx]
                self.rows[r] = [x - factor * y for x, y in zip(row, pivot_row)]

    def solution(self, labels: Sequence[int]) -> list:
        """Values of the variables with the given labels (0 when non-basic)."""
        values = []
        for label in labels:
            if label in self.basic:
                values.append(self.rows[self.basic.index(label)][-1])
            else:
                values.append(self._zero)
        return values


def _positive_shift(matrix: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Shift all entries so the minimum becomes 1 (equilibria unchanged)."""
    lowest = min(x for row in matrix for x in row)
    shift = _ONE - lowest
    return tuple(tuple(x + shift for x in row) for row in matrix)


def _follow_path(game: BimatrixGame, initial_label: int, use_float: bool,
                 pivot_tol: float = _FLOAT_PIVOT_TOL):
    """Run the complementary-pivoting path; returns normalized (x, y).

    Exact mode pivots over Fractions (the seed semantics, bit for bit);
    float mode pivots over float64 with ``pivot_tol`` as the zero
    threshold (taken from the search backend so all phases share one
    tolerance set).  Raises :class:`EquilibriumError` on ray termination
    or non-termination in either mode.
    """
    n, m = game.action_counts
    a = _positive_shift(game.row_matrix)
    b = _positive_shift(game.column_matrix)

    row_labels = list(range(n))
    col_labels = list(range(n, n + m))

    if use_float:
        one, zero, tol = 1.0, 0.0, pivot_tol
        bt_rows = [[float(b[i][j]) for i in range(n)] for j in range(m)]
        a_rows = [[float(a[i][j]) for j in range(m)] for i in range(n)]
    else:
        one, zero, tol = _ONE, _ZERO, _ZERO
        # Tableau X: m rows of B^T (x-columns first), slacks n..n+m-1.
        bt_rows = [[b[i][j] for i in range(n)] for j in range(m)]
        # Tableau Y: n rows of A (y-columns first), slacks 0..n-1.
        a_rows = [[a[i][j] for j in range(m)] for i in range(n)]
    tableau_x = _Tableau(bt_rows, decision_labels=row_labels,
                         slack_labels=col_labels, one=one, zero=zero, tol=tol)
    tableau_y = _Tableau(a_rows, decision_labels=col_labels,
                         slack_labels=row_labels, one=one, zero=zero, tol=tol)

    # The dropped label enters its own tableau first.
    entering = initial_label
    current = tableau_x if initial_label < n else tableau_y
    other = tableau_y if current is tableau_x else tableau_x

    # Exact pivoting is anti-cycling by the lexicographic rule, so its
    # cap only guards against internal errors.  Float pivoting has no
    # such guarantee (the rule is evaluated with tolerances): give it a
    # generous polynomial budget and treat exhaustion as a routing
    # signal back to the exact path, not a correctness bound.
    if use_float:
        max_steps = 512 + 8 * (n + m) ** 2
    else:
        max_steps = 4 ** (n + m) + 16
    for _step in range(max_steps):
        leaving = current.enter(entering)
        if leaving == initial_label:
            break
        entering = leaving
        current, other = other, current
    else:
        raise EquilibriumError("Lemke-Howson did not terminate (internal error)")

    x = tableau_x.solution(row_labels)
    y = tableau_y.solution(col_labels)
    x_total = sum(x, start=zero)
    y_total = sum(y, start=zero)
    if x_total == 0 or y_total == 0:
        raise EquilibriumError(
            "Lemke-Howson terminated at the artificial equilibrium"
        )
    x = [v / x_total for v in x]
    y = [v / y_total for v in y]
    return x, y


def _certify_float_endpoint(
    game: BimatrixGame, x: Sequence[float], y: Sequence[float],
    support_tol: float = DEFAULT_SUPPORT_TOL,
) -> MixedProfile | None:
    """Exact reconstruction + certification of a float LH endpoint.

    The float endpoint is only trusted for its *supports*: the exact
    support-restricted re-solve recovers the rational equilibrium those
    supports induce, and the exact Nash check is the gate.  Returns None
    when anything fails, so the caller reruns the exact pivoting.
    """
    from repro.equilibria.mixed import certify_mixed_profile
    from repro.equilibria.support_enumeration import reconstruct_one_side
    from repro.games.profiles import ProfileError

    n, m = game.action_counts
    row_support = tuple(i for i, v in enumerate(x) if v > support_tol)
    col_support = tuple(j for j, v in enumerate(y) if v > support_tol)
    if not row_support or not col_support:
        return None
    # Support-restricted exact re-solves (linear systems, not LPs): the
    # column mix makes the row support indifferent and vice versa.
    y_side = reconstruct_one_side(game.row_matrix, row_support, col_support, m)
    if y_side is None:
        return None
    x_side = reconstruct_one_side(
        game.column_matrix_transposed, col_support, row_support, n
    )
    if x_side is None:
        return None
    try:
        profile = MixedProfile((x_side[0], y_side[0]))
    except ProfileError:
        return None
    return certify_mixed_profile(game, profile)


def lemke_howson(
    game: BimatrixGame, initial_label: int = 0, policy=None
) -> MixedProfile:
    """Run Lemke-Howson from ``initial_label``; returns one exact equilibrium.

    ``policy`` selects the search backend: ``None``/"exact" pivots over
    Fractions (seed behaviour); "float+certify" pivots in float64 and
    certifies the endpoint exactly, falling back to exact pivoting on any
    numerical doubt.  The result is an exact equilibrium in every mode.
    """
    n, m = game.action_counts
    if not 0 <= initial_label < n + m:
        raise EquilibriumError(
            f"initial label {initial_label} out of range [0, {n + m})"
        )
    backend = resolve_policy(policy).search_backend(n + m)
    if not backend.exact:
        pivot_tol = getattr(backend, "pivot_tol", _FLOAT_PIVOT_TOL)
        support_tol = backend.support_tol
        try:
            x, y = _follow_path(
                game, initial_label, use_float=True, pivot_tol=pivot_tol
            )
        except EquilibriumError:
            pass  # fall through to the exact path
        else:
            profile = _certify_float_endpoint(game, x, y, support_tol=support_tol)
            if profile is not None:
                return profile
    x, y = _follow_path(game, initial_label, use_float=False)
    return MixedProfile((tuple(x), tuple(y)))


def lemke_howson_all(game: BimatrixGame, policy=None) -> tuple[MixedProfile, ...]:
    """Equilibria reached from every starting label, deduplicated.

    Not guaranteed to find *all* equilibria of the game (no LH variant
    is), but gives a deterministic, exact sample across the n+m paths.
    """
    seen: set[tuple] = set()
    out: list[MixedProfile] = []
    n, m = game.action_counts
    for label in range(n + m):
        try:
            profile = lemke_howson(game, label, policy=policy)
        except EquilibriumError:
            continue
        key = profile.distributions
        if key not in seen:
            seen.add(key)
            out.append(profile)
    return tuple(out)
