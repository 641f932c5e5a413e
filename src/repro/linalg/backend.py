"""Pluggable numeric backends: search fast, certify exact.

The paper's central asymmetry — *finding* an equilibrium is PPAD-hard
while *verifying* one is cheap and must be exact — maps onto a two-phase
solver pipeline:

1. **Search** runs on the backend a :class:`BackendPolicy` resolves
   to.  The :class:`ExactBackend` is the seed behaviour: no screen,
   every candidate decided on the exact LP.  The :class:`FloatBackend`
   screens feasibility systems with a float64 simplex under pivot
   tolerances, one system at a time and each cold — orders of
   magnitude faster because rational coefficient growth is the
   dominant cost of exact pivoting.  The numpy backend
   (:mod:`repro.linalg.numpy_backend`) screens the same systems as
   padded stacks.
2. **Certification** is always exact.  Every candidate a float search
   produces is reconstructed as Fractions (support-restricted exact
   re-solve) and checked against the exact Lemma-1 conditions before it
   is returned; candidates that fail are recomputed on the exact path.
   No approximate value ever escapes the solver layer.

:class:`BackendPolicy` names the four modes callers can request —
``"exact"``, ``"float+certify"``, ``"numpy"`` and ``"auto"`` — and is
what the core layer plumbs through advice packages and the audit log.
The tolerances are class constants of the float backends, not
arguments: one set of values for every search.

Float routines here are stdlib-only (plain lists of floats, no numpy).
A float backend signals an *inconclusive* solve by raising
:class:`~repro.errors.BackendError` (or by :data:`INCONCLUSIVE` in a
batch answer); pipeline callers treat that exactly like a certification
failure and fall back to the exact path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import BackendError, LinearAlgebraError

#: The backend modes the core layer can request per advice package.
MODE_EXACT = "exact"
MODE_FLOAT_CERTIFY = "float+certify"
MODE_NUMPY = "numpy"
MODE_AUTO = "auto"
BACKEND_MODES = (MODE_EXACT, MODE_FLOAT_CERTIFY, MODE_NUMPY, MODE_AUTO)

#: The action count (n + m for a bimatrix game) from which ``auto``
#: searches on a float backend.
AUTO_THRESHOLD = 10

#: The threshold below which a probability in an approximate solution
#: is read as "off the support" when solvers extract candidate supports
#: for exact reconstruction: the float backends' ``support_tol``, so
#: every phase of a pipeline run shares one threshold.
DEFAULT_SUPPORT_TOL = 1e-7

#: Sentinel a batched screen returns for a system it could not decide
#: (the list-level analogue of raising :class:`BackendError`).  Callers
#: must re-decide such systems on the exact path.
INCONCLUSIVE = type("_Inconclusive", (), {
    "__repr__": lambda self: "INCONCLUSIVE",
})()


class NumericBackend:
    """What a search reads of the backend its policy resolved to.

    An exact backend means "no screen": the search decides every
    support pair on the exact LP.  A float backend (:class:`FloatBackend`
    and its subclasses) screens batches of feasibility systems with
    :meth:`FloatBackend.screen_feasible`; its answers are suggestions
    that the exact stages reconstruct and certify.
    """

    #: Human-readable backend name, recorded in audit logs and benches.
    name: str = "abstract"
    #: The resolved policy-mode string this backend answers for (what
    #: advice packages and the audit log record).
    mode: str = "exact"
    #: True iff results need no downstream certification.
    exact: bool = True


class ExactBackend(NumericBackend):
    """The seed semantics: no screen, every pair on the exact LP."""

    name = "exact"
    mode = MODE_EXACT
    exact = True


class FloatBackend(NumericBackend):
    """float64 two-phase simplex with pivot tolerances, stdlib only.

    A phase-1 optimum above ``feastol`` rejects the system; one within
    ``(pivot_tol, feastol]`` is inconclusive, and the caller re-decides
    it exactly.  Pivoting follows Dantzig's rule, which is fast but not
    anti-cycling, so each system's pivots are capped at ``cap_base +
    cap_per_size * (rows + columns)`` of its own shape; reaching the
    cap is likewise inconclusive, never an answer.  ``support_tol`` is
    the off-support threshold every phase of a pipeline run shares.
    """

    name = "float64"
    mode = MODE_FLOAT_CERTIFY
    exact = False
    feastol = 1e-7
    pivot_tol = 1e-9
    support_tol = DEFAULT_SUPPORT_TOL
    cap_base = 64
    cap_per_size = 16

    def float_payoffs(self, matrix: Sequence[Sequence]):
        """``matrix`` converted once into the form this backend screens."""
        return float_matrix(matrix)

    def screen_feasible(self, systems: Sequence[tuple]) -> list:
        """Decide a batch of ``Ax = b, x >= 0`` feasibility systems.

        ``systems`` is a sequence of ``(rows, rhs)`` pairs, each solved
        cold and alone.  Returns one entry per system: a feasible point,
        ``None`` for confidently infeasible, or :data:`INCONCLUSIVE`
        where the numerics cannot decide (callers re-solve those
        exactly).
        """
        results = []
        for rows, rhs in systems:
            try:
                results.append(self.find_feasible_point(rows, rhs))
            except BackendError:
                results.append(INCONCLUSIVE)
        return results

    def find_feasible_point(self, a_eq: Sequence[Sequence], b_eq: Sequence):
        """A point of ``Ax = b, x >= 0``, or None when confidently
        infeasible; raises :class:`BackendError` when inconclusive."""
        a = [[float(x) for x in row] for row in a_eq]
        b = [float(x) for x in b_eq]
        nrows = len(a)
        ncols = len(a[0]) if a else 0
        if any(len(row) != ncols for row in a):
            raise LinearAlgebraError("LP constraint matrix has ragged rows")
        if len(b) != nrows:
            raise LinearAlgebraError("LP rhs length does not match constraints")
        # Row equilibration: divide each constraint by its largest
        # coefficient so the absolute tolerances below act relatively.
        # Feasibility of {Ax = b, x >= 0} is unchanged, but a system with
        # payoffs in the billions no longer swamps a 1e-7 feastol.
        for i in range(nrows):
            scale = max(max(abs(x) for x in a[i]), abs(b[i])) if a[i] else abs(b[i])
            if scale > 0.0:
                inv = 1.0 / scale
                a[i] = [x * inv for x in a[i]]
                b[i] *= inv
        for i in range(nrows):
            if b[i] < 0.0:
                a[i] = [-x for x in a[i]]
                b[i] = -b[i]
        total = ncols + nrows
        tableau = [
            a[i] + [1.0 if j == i else 0.0 for j in range(nrows)] + [b[i]]
            for i in range(nrows)
        ]
        basis = list(range(ncols, ncols + nrows))
        # Phase-1 objective row: minimize the sum of artificials.
        objective = [0.0] * ncols + [1.0] * nrows + [0.0]
        for i in range(nrows):
            for j in range(total + 1):
                objective[j] -= tableau[i][j]
        for _iteration in range(self.cap_base + self.cap_per_size * total):
            entering = None
            best = -self.pivot_tol
            for j in range(total):
                if objective[j] < best:  # Dantzig: most negative reduced cost
                    best = objective[j]
                    entering = j
            if entering is None:
                break
            leaving = None
            best_ratio = None
            for i in range(nrows):
                coef = tableau[i][entering]
                if coef > self.pivot_tol:
                    ratio = tableau[i][-1] / coef
                    if (
                        best_ratio is None
                        or ratio < best_ratio - self.pivot_tol
                        or (abs(ratio - best_ratio) <= self.pivot_tol
                            and basis[i] < basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving is None:
                raise BackendError("float phase-1 unbounded (numerical trouble)")
            self._pivot(tableau, basis, objective, leaving, entering, total)
        else:
            raise BackendError("float simplex hit its iteration cap")
        infeasibility = -objective[-1]
        if infeasibility > self.feastol:
            return None  # confidently infeasible
        if infeasibility > self.pivot_tol:
            raise BackendError("float phase-1 optimum too close to tolerance")
        x = [0.0] * total
        for i, var in enumerate(basis):
            x[var] = tableau[i][-1]
        return x[:ncols]

    @staticmethod
    def _pivot(tableau, basis, objective, row_idx, col_idx, total):
        inv = 1.0 / tableau[row_idx][col_idx]
        tableau[row_idx] = [x * inv for x in tableau[row_idx]]
        pivot_row = tableau[row_idx]
        for i in range(len(tableau)):
            if i != row_idx and tableau[i][col_idx] != 0.0:
                factor = tableau[i][col_idx]
                tableau[i] = [x - factor * y for x, y in zip(tableau[i], pivot_row)]
        factor = objective[col_idx]
        if factor != 0.0:
            for j in range(total + 1):
                objective[j] -= factor * pivot_row[j]
        basis[row_idx] = col_idx


#: Shared default instances — the backends are stateless between solves.
EXACT_BACKEND = ExactBackend()
FLOAT_BACKEND = FloatBackend()

# The numpy-vectorized backend is optional: the library must run (and
# the stdlib float path must screen) on a bare interpreter.  Importing
# it here keeps the gating in one place; everything downstream asks
# this module, never numpy itself.
try:
    from repro.linalg.numpy_backend import NumpyBackend

    NUMPY_BACKEND: NumericBackend | None = NumpyBackend()
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    NumpyBackend = None  # type: ignore[assignment]
    NUMPY_BACKEND = None


def numpy_available() -> bool:
    """True iff the vectorized numpy backend imported successfully."""
    return NUMPY_BACKEND is not None


def _best_approximate_backend() -> NumericBackend:
    """The fastest available non-exact backend (numpy if importable)."""
    return NUMPY_BACKEND if NUMPY_BACKEND is not None else FLOAT_BACKEND


@dataclass(frozen=True)
class BackendPolicy:
    """Which backend a solver run should search on.

    ``auto`` sizes the decision: small systems pivot exactly about as
    fast as they certify, so auto keeps them on the exact path and
    switches to approximate search once the action-count hint reaches
    :data:`AUTO_THRESHOLD`.  Approximate ``auto`` search prefers the
    vectorized numpy backend and falls back to the stdlib float backend
    when numpy is unavailable; ``mode="numpy"`` requested explicitly
    falls back the same way, so a policy never fails to resolve on a
    bare interpreter.
    """

    mode: str = MODE_EXACT

    def __post_init__(self):
        if self.mode not in BACKEND_MODES:
            raise LinearAlgebraError(
                f"unknown backend mode {self.mode!r}; expected one of {BACKEND_MODES}"
            )

    def search_backend(self, size_hint: int = 0) -> NumericBackend:
        """The backend candidate search should run on for this size."""
        if self.mode == MODE_EXACT:
            return EXACT_BACKEND
        if self.mode == MODE_FLOAT_CERTIFY:
            return FLOAT_BACKEND
        if self.mode == MODE_NUMPY:
            return _best_approximate_backend()
        if size_hint >= AUTO_THRESHOLD:
            return _best_approximate_backend()
        return EXACT_BACKEND


#: Canonical policy instances.
EXACT_POLICY = BackendPolicy(MODE_EXACT)
FLOAT_CERTIFY_POLICY = BackendPolicy(MODE_FLOAT_CERTIFY)
NUMPY_POLICY = BackendPolicy(MODE_NUMPY)
AUTO_POLICY = BackendPolicy(MODE_AUTO)

_POLICY_BY_MODE = {
    MODE_EXACT: EXACT_POLICY,
    MODE_FLOAT_CERTIFY: FLOAT_CERTIFY_POLICY,
    MODE_NUMPY: NUMPY_POLICY,
    MODE_AUTO: AUTO_POLICY,
}


def resolve_policy(policy) -> BackendPolicy:
    """Normalize ``None`` / mode string / policy object to a policy.

    ``None`` means the seed behaviour: everything exact.  Mode strings
    accept the four backend modes.
    """
    if policy is None:
        return EXACT_POLICY
    if isinstance(policy, BackendPolicy):
        return policy
    if isinstance(policy, str):
        try:
            return _POLICY_BY_MODE[policy]
        except KeyError:
            raise LinearAlgebraError(
                f"unknown backend mode {policy!r}; expected one of "
                f"{BACKEND_MODES}"
            ) from None
    raise LinearAlgebraError(f"cannot interpret backend policy {policy!r}")


def float_matrix(rows: Sequence[Sequence]) -> list[list[float]]:
    """Convert a rational matrix to plain float lists for the search phase."""
    return [[float(x) for x in row] for row in rows]
