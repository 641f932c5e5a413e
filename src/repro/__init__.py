"""repro — a full reproduction of "Rationality Authority for Provable
Rational Behavior" (Dolev, Panagopoulou, Rabie, Schiller, Spirakis;
PODC 2011 brief announcement, LNCS 9295 full version).

The package layers, bottom to top:

* :mod:`repro.linalg` — rational linear algebra plus the pluggable
  numeric-backend seam (see *Architecture & backends* below);
* :mod:`repro.games` — strategic-form / bimatrix / symmetric /
  participation / congestion games;
* :mod:`repro.equilibria` — best replies, pure and mixed Nash,
  support enumeration, Lemke-Howson, symmetric solvers;
* :mod:`repro.proofs` — the Fig. 2 Coq-style certificate language,
  builder and checking kernel;
* :mod:`repro.interactive` — the P1 and P2 interactive proofs with
  transcripts, privacy accounting and adversaries;
* :mod:`repro.crypto` — commitments and signature simulation;
* :mod:`repro.online` — on-line congestion games, the parallel-links
  model, the inventor's statistics and the Fig. 7 simulation;
* :mod:`repro.core` — the rationality authority itself: actors,
  advice, verifier registry, reputation, audit, sessions.

Architecture & backends
=======================

The paper's central asymmetry — *finding* an equilibrium is PPAD-hard
while *verifying* one is cheap and must be exact — is mirrored by a
two-phase solver pipeline rooted in :mod:`repro.linalg.backend`:

1. **Search** runs on the backend a policy resolves to.  The default
   :class:`~repro.linalg.backend.ExactBackend` keeps the original
   Fraction semantics bit for bit; the stdlib-only
   :class:`~repro.linalg.backend.FloatBackend` screens candidates with
   a float64 simplex under fixed pivot tolerances, each system solved
   cold, avoiding the rational coefficient growth that dominates exact
   pivoting; the optional numpy backend screens the same systems as
   padded stacks.
2. **Certification** is always exact.  Float-found candidates are
   reconstructed as Fractions by a support-restricted exact re-solve
   and must pass the exact Lemma-1 conditions
   (:func:`repro.equilibria.mixed.certify_mixed_profile`) before they
   leave the solver layer; any doubt falls back to the exact path.

Callers select a mode through
:class:`~repro.linalg.backend.BackendPolicy` — ``"exact"``,
``"float+certify"``, ``"numpy"`` or ``"auto"``, its only setting —
which the inventors in
:mod:`repro.core.actors` accept, advertise on each
:class:`~repro.core.advice.Advice`, and the session records in the
audit log.  Verification procedures stay exact in every mode: the
backend changes what the *inventor's search* costs, never what a proof
obliges.
"""

__version__ = "1.0.0"

from repro.errors import (
    AdviceRejected,
    CommitmentError,
    EquilibriumError,
    GameError,
    LinearAlgebraError,
    ProfileError,
    ProofError,
    ProofRejected,
    ProtocolError,
    ReproError,
    SignatureError,
    TranscriptError,
    VerificationFailure,
)

__all__ = [
    "__version__",
    "ReproError",
    "GameError",
    "ProfileError",
    "EquilibriumError",
    "LinearAlgebraError",
    "ProofError",
    "ProofRejected",
    "TranscriptError",
    "VerificationFailure",
    "CommitmentError",
    "SignatureError",
    "ProtocolError",
    "AdviceRejected",
]
