"""The numpy-vectorized search backend: dense tableaus, batched screens.

This module is the vectorized float arm of the two-phase pipeline.  It
implements the same numeric contract as the stdlib
:class:`~repro.linalg.backend.FloatBackend` — answers are *suggestions*,
anything borderline is inconclusive, and certification downstream is
always exact — but stages the work for hardware:

* :meth:`NumpyBackend.solve_square` runs float64 Gaussian elimination
  with partial pivoting as whole-matrix numpy operations, guarded by a
  condition-number check (near-singular systems are inconclusive, never
  answers);
* :meth:`NumpyBackend.find_feasible_point` runs a dense-tableau phase-1
  simplex whose pivots are rank-1 ndarray updates;
* :meth:`NumpyBackend.screen_feasible` is the batched screening entry
  point the support-enumeration engine drives: it takes one
  :class:`SystemStack` — many small feasibility systems zero-padded to
  a common shape — and pivots *all of them simultaneously*, one
  entering/leaving/ratio computation per iteration for the whole
  stack, which is where the bulk-rejection speedup over one-at-a-time
  screening comes from.  Support enumeration builds each side of a
  wave's Lemma-1 systems straight into one such stack.

Padding cannot change a verdict.  A zero structural column has a
reduced cost of exactly 0 at every pivot (it starts at 0, and every
pivot row holds 0 in it), so it never enters the basis; a zero row
with a zero right-hand side keeps its artificial basic at 0 and never
leaves.  Padded columns sit after a system's own columns of the same
kind and padded rows after its own rows, so real columns and
artificials keep their relative label order, and the Dantzig entering
rule and the smallest-label ratio tie-break make the same choices —
every real entry of the tableau follows the trajectory it follows when
the system is screened alone.  Each system also keeps its own iteration
cap, computed from its own rows and columns.

Tolerance discipline mirrors the stdlib backend exactly: a phase-1
optimum above ``feastol`` is confidently infeasible; one inside
``(pivot_tol, feastol]`` is inconclusive (:data:`INCONCLUSIVE` in batch
answers, :class:`BackendError` in scalar ones); hitting the iteration
cap is likewise inconclusive.  No result of this module is ever returned
to a caller of the solver layer without exact reconstruction and the
Lemma-1 gate.

This module imports numpy unconditionally; :mod:`repro.linalg.backend`
gates the import so the rest of the library keeps working (and the
stdlib float path keeps screening) when numpy is absent.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from repro.errors import BackendError, LinearAlgebraError
from repro.linalg.backend import (
    DEFAULT_SUPPORT_TOL,
    INCONCLUSIVE,
    MODE_NUMPY,
    FloatBackend,
)

# Per-system outcomes of the batched phase-1 loop.
_INCONCLUSIVE = 0  # unbounded ray, iteration cap, or too close to call
_FEASIBLE = 1
_INFEASIBLE = 2


class SystemStack(NamedTuple):
    """Many ``Ax = b, x >= 0`` systems zero-padded to one shape.

    ``a`` is ``(batch, rows, cols)`` and ``b`` is ``(batch, rows)``;
    ``sizes[i]`` is system i's own row count plus its own column count,
    which sets its iteration cap exactly as if it were screened alone.
    Padding must follow the rules in the module docstring.
    """

    a: np.ndarray
    b: np.ndarray
    sizes: np.ndarray


def pad_systems(systems: Sequence[tuple]) -> tuple[SystemStack, list[int]]:
    """Stack ``(rows, rhs)`` systems of any shapes, zero-padded.

    Each system's rows keep their order at the top of its slot and its
    columns at the left; returns the stack and each system's own column
    count.
    """
    shapes = []
    for rows, rhs in systems:
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows) or len(rhs) != len(rows):
            raise LinearAlgebraError("screen_feasible: malformed system")
        shapes.append((len(rows), ncols))
    nrows = max((r for r, __ in shapes), default=0)
    ncols = max((c for __, c in shapes), default=0)
    a = np.zeros((len(shapes), nrows, ncols))
    b = np.zeros((len(shapes), nrows))
    for pos, ((rows, rhs), (r, c)) in enumerate(zip(systems, shapes)):
        if r and c:
            a[pos, :r, :c] = rows
        b[pos, :r] = rhs
    sizes = np.array([r + c for r, c in shapes], dtype=np.int64)
    return SystemStack(a, b, sizes), [c for __, c in shapes]


class NumpyBackend(FloatBackend):
    """Vectorized float64 search with batched feasibility screening.

    Subclasses :class:`FloatBackend` so the tolerance semantics (and the
    basis-returning scalar simplex used for warm starts) are shared; the
    square solver and the screening paths are overridden with ndarray
    implementations.  ``max_condition`` bounds the condition number a
    square solve will vouch for — anything worse is inconclusive.
    """

    name = "numpy"
    mode = MODE_NUMPY
    exact = False
    batched_screen = True

    def __init__(self, feastol: float = 1e-7, pivot_tol: float = 1e-9,
                 max_iterations: int | None = None,
                 support_tol: float = DEFAULT_SUPPORT_TOL,
                 max_condition: float = 1e12):
        super().__init__(feastol=feastol, pivot_tol=pivot_tol,
                         max_iterations=max_iterations,
                         support_tol=support_tol)
        if max_condition <= 0:
            raise LinearAlgebraError("max_condition must be positive")
        self.max_condition = float(max_condition)

    def float_payoffs(self, matrix):
        return np.array(matrix, dtype=np.float64)

    # ------------------------------------------------------------------
    # Square solves
    # ------------------------------------------------------------------

    def solve_square(self, matrix, rhs):
        try:
            a = np.asarray(
                [[float(x) for x in row] for row in matrix], dtype=np.float64
            )
        except ValueError:
            raise LinearAlgebraError("solve_square requires a square matrix") from None
        b = np.asarray([float(x) for x in rhs], dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise LinearAlgebraError("solve_square requires a square matrix")
        if b.shape != (a.shape[0],):
            raise LinearAlgebraError("rhs length does not match matrix")
        if a.size == 0:
            return []
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            raise BackendError("numpy solve: singular matrix") from None
        if not np.all(np.isfinite(x)):
            raise BackendError("numpy solve produced non-finite values")
        # Near-singular systems solve without error but cannot be
        # vouched for; the condition estimate is the analogue of the
        # stdlib backend's pivot-below-tolerance test.
        condition = np.linalg.cond(a)
        if not np.isfinite(condition) or condition > self.max_condition:
            raise BackendError("numpy solve: matrix condition beyond tolerance")
        return x.tolist()

    # ------------------------------------------------------------------
    # Scalar feasibility (a batch of one through the dense tableau)
    # ------------------------------------------------------------------

    def find_feasible_point(self, a_eq, b_eq, upper_bounds=None):
        a = [[float(x) for x in row] for row in a_eq]
        b = [float(x) for x in b_eq]
        ncols = len(a[0]) if a else 0
        if any(len(row) != ncols for row in a):
            raise LinearAlgebraError("LP constraint matrix has ragged rows")
        if len(b) != len(a):
            raise LinearAlgebraError("LP rhs length does not match constraints")
        if upper_bounds is not None:
            ubs = [float(u) for u in upper_bounds]
            if len(ubs) != ncols:
                raise LinearAlgebraError("upper bound length does not match variables")
            nslack = len(ubs)
            for row in a:
                row.extend([0.0] * nslack)
            for j, u in enumerate(ubs):
                bound_row = [0.0] * (ncols + nslack)
                bound_row[j] = 1.0
                bound_row[ncols + j] = 1.0
                a.append(bound_row)
                b.append(u)
        status, points = self._phase1_batch(pad_systems([(a, b)])[0])
        if status[0] == _INCONCLUSIVE:
            raise BackendError("numpy phase-1 inconclusive")
        if status[0] == _INFEASIBLE:
            return None
        return points[0, :ncols].tolist()

    # ------------------------------------------------------------------
    # Batched screening
    # ------------------------------------------------------------------

    def screen_feasible(self, systems) -> list:
        """Decide many ``Ax = b, x >= 0`` systems as one padded stack.

        ``systems`` is a :class:`SystemStack`, or a sequence of
        ``(rows, rhs)`` pairs of any shapes, which :func:`pad_systems`
        stacks.  Returns one entry per system, in input order: ``None``
        (confidently infeasible), :data:`INCONCLUSIVE`, or a feasible
        point as a list — over the stack's columns for a
        :class:`SystemStack`, over the system's own columns otherwise.
        """
        if isinstance(systems, SystemStack):
            stack, widths = systems, None
        else:
            stack, widths = pad_systems(systems)
        status, points = self._phase1_batch(stack)
        rows = points.tolist()
        results: list = []
        for idx, code in enumerate(status.tolist()):
            if code == _FEASIBLE:
                results.append(rows[idx] if widths is None
                               else rows[idx][:widths[idx]])
            else:
                results.append(None if code == _INFEASIBLE else INCONCLUSIVE)
        return results

    def _phase1_batch(self, stack: SystemStack):
        """Batched phase-1 simplex over a zero-padded stack.

        Returns ``(status, points)``: one outcome code per system and a
        ``(batch, cols)`` array holding each feasible system's
        structural point (zeros elsewhere).  All systems of the stack
        pivot in lockstep; finished systems are compacted out.  The
        Dantzig entering rule and the smallest-basis-label ratio
        tie-break make every trajectory deterministic and, with each
        system's own iteration cap, independent of the other systems
        in the stack — so batching cannot change answers.
        """
        a, b, sizes = stack
        batch, nrows, ncols = a.shape
        status = np.full(batch, _INCONCLUSIVE, dtype=np.int8)
        if batch == 0 or nrows == 0:
            status[:] = _FEASIBLE
            return status, np.zeros((batch, ncols))

        a = a.copy()
        b = b.copy()
        # Row equilibration, exactly as the stdlib backend: relative
        # tolerances via per-row scaling, then flip rows negative on b.
        scale = np.maximum(
            np.abs(a).max(axis=2) if ncols else 0.0, np.abs(b)
        )
        scale[scale == 0.0] = 1.0
        a /= scale[:, :, None]
        b /= scale
        flip = b < 0.0
        a[flip] = -a[flip]
        b[flip] = -b[flip]

        total = ncols + nrows
        tableau = np.concatenate(
            [
                a,
                np.broadcast_to(np.eye(nrows), (batch, nrows, nrows)).copy(),
                b[:, :, None],
            ],
            axis=2,
        )
        basis = np.tile(np.arange(ncols, ncols + nrows), (batch, 1))
        # Phase-1 objective: minimize the artificial sum.  Reduced-cost
        # row = artificial costs minus the sum of all constraint rows.
        objective = np.zeros((batch, total + 1))
        objective[:, ncols:ncols + nrows] = 1.0
        objective -= tableau.sum(axis=1)
        caps = (np.full(batch, self.max_iterations) if self.max_iterations
                else 64 + 16 * np.asarray(sizes))
        # Basic values by label, for every system that ends feasible.
        solution = np.zeros((batch, total))

        # The stack pivots in lockstep but systems finish at different
        # times; finished systems are *compacted out* of the working
        # arrays (not masked), so per-iteration cost tracks the number
        # of still-undecided systems, not the original batch size.
        origin = np.arange(batch)

        def keep_only(keep: np.ndarray) -> None:
            nonlocal tableau, objective, basis, origin, caps
            tableau = tableau[keep]
            objective = objective[keep]
            basis = basis[keep]
            origin = origin[keep]
            caps = caps[keep]

        def finalize(keep: np.ndarray) -> None:
            """Record answers for optimal systems not in ``keep``."""
            done = np.flatnonzero(~keep)
            infeasibility = -objective[done, -1]
            codes = np.where(
                infeasibility > self.feastol, _INFEASIBLE,
                np.where(infeasibility > self.pivot_tol, _INCONCLUSIVE,
                         _FEASIBLE),
            )
            status[origin[done]] = codes
            done = done[codes == _FEASIBLE]
            solution[origin[done][:, None], basis[done]] = tableau[done, :, -1]
            keep_only(keep)

        iteration = 0
        next_cap = caps.min()
        while origin.size:
            if iteration >= next_cap:
                # Systems at their own cap stay INCONCLUSIVE.
                keep_only(caps > iteration)
                if origin.size == 0:
                    break
                next_cap = caps.min()
            iteration += 1
            reduced = objective[:, :total]
            entering = reduced.argmin(axis=1)
            alive = np.arange(origin.size)
            best = reduced[alive, entering]
            still = best < -self.pivot_tol
            if not still.all():
                finalize(still)
                if origin.size == 0:
                    break
                entering = entering[still]
                alive = np.arange(origin.size)

            column = tableau[alive, :, entering]
            positive = column > self.pivot_tol
            bounded = positive.any(axis=1)
            if not bounded.all():
                keep_only(bounded)  # unbounded ray: numerical trouble, no answer
                if origin.size == 0:
                    break
                entering = entering[bounded]
                column = column[bounded]
                positive = positive[bounded]
                alive = np.arange(origin.size)

            ratios = np.divide(tableau[:, :, -1], column,
                               out=np.full_like(column, np.inf),
                               where=positive)
            best_ratio = ratios.min(axis=1)
            # Ties within pivot_tol break on the smallest basis label —
            # the deterministic anti-stalling rule of the stdlib backend.
            tied = positive & (ratios <= best_ratio[:, None] + self.pivot_tol)
            labels = np.where(tied, basis, total + 1)
            leaving = labels.argmin(axis=1)

            pivot_coef = column[alive, leaving]
            pivot_rows = tableau[alive, leaving] / pivot_coef[:, None]
            tableau -= column[:, :, None] * pivot_rows[:, None, :]
            tableau[alive, leaving] = pivot_rows
            obj_coef = objective[alive, entering]
            objective -= obj_coef[:, None] * pivot_rows
            basis[alive, leaving] = entering
        return status, solution[:, :ncols]
