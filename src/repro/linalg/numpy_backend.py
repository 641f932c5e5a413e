"""The numpy-vectorized search backend: batched screens.

This module is the vectorized float arm of the two-phase pipeline.  It
implements the same numeric contract as the stdlib
:class:`~repro.linalg.backend.FloatBackend`, whose tolerances it
shares — answers are *suggestions*, anything borderline is
inconclusive, and certification downstream is always exact — but
stages the work for hardware: :meth:`NumpyBackend.screen_feasible`,
the screening entry point the support-enumeration engine drives,
takes one :class:`SystemStack` — many small feasibility systems
zero-padded to a common shape — and pivots *all of them
simultaneously*, one entering/leaving/ratio computation per iteration
for the whole stack, which is where the bulk-rejection speedup over
one-at-a-time screening comes from.  Support enumeration builds each
side of a wave's Lemma-1 systems straight into one such stack.

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
``(pivot_tol, feastol]`` is inconclusive (:data:`INCONCLUSIVE`);
hitting the iteration cap is likewise inconclusive.  No result of this
module is ever returned to a caller of the solver layer without exact
reconstruction and the Lemma-1 gate.

This module imports numpy unconditionally; :mod:`repro.linalg.backend`
gates the import so the rest of the library keeps working (and the
stdlib float path keeps screening) when numpy is absent.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.linalg.backend import INCONCLUSIVE, MODE_NUMPY, FloatBackend

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


class NumpyBackend(FloatBackend):
    """Vectorized float64 search with batched feasibility screening.

    Subclasses :class:`FloatBackend` so the tolerance semantics are
    shared; the screen is overridden with the padded-stack phase-1.
    """

    name = "numpy"
    mode = MODE_NUMPY
    exact = False

    def float_payoffs(self, matrix):
        return np.array(matrix, dtype=np.float64)

    def screen_feasible(self, stack: SystemStack) -> list:
        """Decide a stack of ``Ax = b, x >= 0`` systems in lockstep.

        Returns one entry per system, in stack order: ``None``
        (confidently infeasible), :data:`INCONCLUSIVE`, or a feasible
        point as a list over the stack's columns.
        """
        status, points = self._phase1_batch(stack)
        rows = points.tolist()
        results: list = []
        for idx, code in enumerate(status.tolist()):
            if code == _FEASIBLE:
                results.append(rows[idx])
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
        caps = self.cap_base + self.cap_per_size * np.asarray(sizes)
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
