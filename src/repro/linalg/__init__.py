"""Rational linear algebra with pluggable numeric search backends.

The equilibrium provers and proof verifiers in this library work over
:class:`fractions.Fraction` so that "provable" means *exactly checkable*.
This package supplies the few primitives they need:

* :mod:`repro.linalg.exact` — Gaussian elimination over Fractions:
  solve, rank, nullspace and general/particular solutions of
  ``Ax = b`` (the reference semantics every faster kernel must match);
* :mod:`repro.linalg.int_exact` — the fraction-free exact kernel:
  integer Bareiss elimination after LCM clearing, bit-identical to
  :mod:`~repro.linalg.exact` but without per-step gcd normalization —
  the arithmetic all certification and proof checking runs on;
* :mod:`repro.linalg.lp` — a small exact simplex solver used for
  feasibility questions (e.g. under-determined support systems in the
  P1 verifier) — kept as the Fraction reference semantics;
* :mod:`repro.linalg.int_lp` — the fraction-free integer simplex:
  LCM integerization at the boundary, Bareiss-style exact-division
  pivoting inside, bit-identical results to :mod:`~repro.linalg.lp` —
  the LP kernel every hot path routes through;
* :mod:`repro.linalg.backend` — the two-phase "search fast, certify
  exact" seam: :class:`~repro.linalg.backend.ExactBackend` (the seed
  semantics: no screen), :class:`~repro.linalg.backend.FloatBackend`
  (a stdlib float64 screen that solves each feasibility system cold,
  under fixed tolerances) and
  :class:`~repro.linalg.backend.BackendPolicy` (``exact`` /
  ``float+certify`` / ``numpy`` / ``auto``) that the solver stack and
  the core authority plumb through;
* :mod:`repro.linalg.numpy_backend` — the optional numpy screen, which
  decides padded stacks of feasibility systems in lockstep.
"""

from repro.linalg.backend import (
    AUTO_POLICY,
    BACKEND_MODES,
    EXACT_BACKEND,
    EXACT_POLICY,
    FLOAT_BACKEND,
    FLOAT_CERTIFY_POLICY,
    INCONCLUSIVE,
    MODE_AUTO,
    MODE_EXACT,
    MODE_FLOAT_CERTIFY,
    MODE_NUMPY,
    NUMPY_BACKEND,
    NUMPY_POLICY,
    BackendPolicy,
    ExactBackend,
    FloatBackend,
    NumericBackend,
    numpy_available,
    resolve_policy,
)
from repro.linalg.exact import (
    gaussian_elimination,
    identity_matrix,
    matrix_rank,
    nullspace,
    solve_linear_system,
    solve_square,
)
from repro.linalg.int_exact import (
    IntegerLattice,
    bareiss_elimination,
    integer_utility_table,
    integerize_matrix,
    integerize_vector,
)
from repro.linalg.int_lp import LPResult, solve_lp, find_feasible_point

__all__ = [
    "AUTO_POLICY",
    "BACKEND_MODES",
    "EXACT_BACKEND",
    "EXACT_POLICY",
    "FLOAT_BACKEND",
    "FLOAT_CERTIFY_POLICY",
    "INCONCLUSIVE",
    "MODE_AUTO",
    "MODE_EXACT",
    "MODE_FLOAT_CERTIFY",
    "MODE_NUMPY",
    "NUMPY_BACKEND",
    "NUMPY_POLICY",
    "BackendPolicy",
    "ExactBackend",
    "FloatBackend",
    "NumericBackend",
    "numpy_available",
    "resolve_policy",
    "gaussian_elimination",
    "identity_matrix",
    "matrix_rank",
    "nullspace",
    "solve_linear_system",
    "solve_square",
    "IntegerLattice",
    "bareiss_elimination",
    "integer_utility_table",
    "integerize_matrix",
    "integerize_vector",
    "LPResult",
    "solve_lp",
    "find_feasible_point",
]
