"""Advice objects and the solution-concept library.

"The veriﬁers may use a library for the speciﬁcation of the solution
concepts and inform the user concerning the solution concept used and
the consequences of the choice."  :data:`CONCEPT_LIBRARY` is that
library; :class:`Advice` is the inventor's deliverable — a solution
concept, a suggested strategy, and a proof payload in one of the
supported proof formats (the Sect. 1 list: detailed logic proofs,
interactive proofs, or the empty proof that delegates evaluation to the
verifier procedure).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.errors import ProtocolError
from repro.linalg.backend import MODE_EXACT, MODE_FLOAT_CERTIFY, MODE_NUMPY

#: Advice records the backend that actually ran, so "auto" (a request,
#: not a resolution) is deliberately not accepted here.
RESOLVED_BACKEND_MODES = (MODE_EXACT, MODE_FLOAT_CERTIFY, MODE_NUMPY)

#: What the cross-run solve cache did for this advice's hard step:
#: ``""`` — no cache attached; ``"hit"`` — the certified solution was
#: served straight from the cache (no search at all); ``"miss"`` — a
#: full cold search ran (and populated the cache).
CACHE_STATES = ("", "hit", "miss")


class SolutionConcept(enum.Enum):
    """The solution concepts the verifier library can speak about."""

    PURE_NASH = "pure-nash"
    MAXIMAL_PURE_NASH = "maximal-pure-nash"
    MINIMAL_PURE_NASH = "minimal-pure-nash"
    MIXED_NASH = "mixed-nash"
    SYMMETRIC_MIXED_NASH = "symmetric-mixed-nash"
    ONLINE_BEST_REPLY = "online-best-reply"
    DOMINANT_STRATEGY = "dominant-strategy"
    CORRELATED = "correlated"
    BAYES_NASH = "bayes-nash"
    SUBGAME_PERFECT = "subgame-perfect"


class ProofFormat(enum.Enum):
    """How the advice's optimality is to be established."""

    CERTIFICATE = "certificate"          # Fig. 2-style explicit proof object
    EMPTY_PROOF = "empty-proof"          # verifier evaluates directly (NTM style)
    INTERACTIVE_P1 = "interactive-p1"    # Fig. 3 support-revealing proof
    INTERACTIVE_P2 = "interactive-p2"    # Fig. 4 private proof
    INDIFFERENCE_IDENTITY = "indifference-identity"  # Eq. (5) check
    DETERMINISTIC_RECOMPUTATION = "deterministic-recomputation"  # Sect. 6 advice


@dataclass(frozen=True)
class ConceptInfo:
    """Library entry: what the concept means and what adopting it entails."""

    concept: SolutionConcept
    description: str
    consequences: str
    compatible_formats: tuple[ProofFormat, ...]


CONCEPT_LIBRARY: dict[SolutionConcept, ConceptInfo] = {
    SolutionConcept.PURE_NASH: ConceptInfo(
        concept=SolutionConcept.PURE_NASH,
        description="A pure strategy profile where no player gains by a "
        "unilateral deviation.",
        consequences="Stable against individual deviations only; may not "
        "exist, and other equilibria may pay everyone more.",
        compatible_formats=(ProofFormat.CERTIFICATE, ProofFormat.EMPTY_PROOF),
    ),
    SolutionConcept.MAXIMAL_PURE_NASH: ConceptInfo(
        concept=SolutionConcept.MAXIMAL_PURE_NASH,
        description="A pure Nash equilibrium not payoff-dominated by any "
        "other pure Nash equilibrium.",
        consequences="No other pure equilibrium is weakly better for "
        "everyone; incomparable equilibria may still exist.",
        compatible_formats=(ProofFormat.CERTIFICATE,),
    ),
    SolutionConcept.MINIMAL_PURE_NASH: ConceptInfo(
        concept=SolutionConcept.MINIMAL_PURE_NASH,
        description="A pure Nash equilibrium not payoff-dominating any "
        "other pure Nash equilibrium (footnote 1's dual notion).",
        consequences="A most-pessimistic stable point; useful as a "
        "worst-case guarantee.",
        compatible_formats=(ProofFormat.CERTIFICATE,),
    ),
    SolutionConcept.MIXED_NASH: ConceptInfo(
        concept=SolutionConcept.MIXED_NASH,
        description="A profile of independent randomizations where every "
        "supported action is a best reply.",
        consequences="Payoffs hold in expectation; realized outcomes vary. "
        "Verification can avoid revealing the other side's play (P2).",
        compatible_formats=(
            ProofFormat.INTERACTIVE_P1,
            ProofFormat.INTERACTIVE_P2,
            ProofFormat.EMPTY_PROOF,
        ),
    ),
    SolutionConcept.SYMMETRIC_MIXED_NASH: ConceptInfo(
        concept=SolutionConcept.SYMMETRIC_MIXED_NASH,
        description="Every player randomizes identically (probability p of "
        "the designated action); exists for symmetric games by Nash's theorem.",
        consequences="Multiple symmetric equilibria may exist - agents "
        "must cross-check they all received the same p.",
        compatible_formats=(ProofFormat.INDIFFERENCE_IDENTITY,),
    ),
    SolutionConcept.ONLINE_BEST_REPLY: ConceptInfo(
        concept=SolutionConcept.ONLINE_BEST_REPLY,
        description="The action that maximizes the agent's payoff given the "
        "disclosed history and the inventor's statistics.",
        consequences="Optimality is relative to the inventor's statistical "
        "model of future arrivals; the advice reveals information about "
        "the game's history.",
        compatible_formats=(ProofFormat.DETERMINISTIC_RECOMPUTATION,),
    ),
    SolutionConcept.DOMINANT_STRATEGY: ConceptInfo(
        concept=SolutionConcept.DOMINANT_STRATEGY,
        description="Every player's action is a best reply against *every* "
        "opponent profile, not just the equilibrium one.",
        consequences="The strongest advice: rational regardless of what "
        "others do; rarely exists, and verification quantifies over the "
        "whole opponent profile space.",
        compatible_formats=(ProofFormat.EMPTY_PROOF, ProofFormat.CERTIFICATE),
    ),
    SolutionConcept.CORRELATED: ConceptInfo(
        concept=SolutionConcept.CORRELATED,
        description="A distribution over pure profiles such that following "
        "the device's recommendation is optimal given the others follow it.",
        consequences="Requires the agents to accept the advised signal "
        "device; unlike Aumann's trusted mediator, the device's incentive "
        "constraints are verified, not assumed.",
        compatible_formats=(ProofFormat.EMPTY_PROOF,),
    ),
    SolutionConcept.BAYES_NASH: ConceptInfo(
        concept=SolutionConcept.BAYES_NASH,
        description="In a game of incomplete information: every type of "
        "every player plays an interim best reply under the common prior.",
        consequences="Optimality is in expectation over the other players' "
        "types; verification is polynomial in the explicit game "
        "(Tadjouddine).",
        compatible_formats=(ProofFormat.EMPTY_PROOF,),
    ),
    SolutionConcept.SUBGAME_PERFECT: ConceptInfo(
        concept=SolutionConcept.SUBGAME_PERFECT,
        description="In a sequential game: the plan is optimal in every "
        "subgame, not only on the equilibrium path (Guerin).",
        consequences="Rules out non-credible threats; verified node by "
        "node via the one-shot-deviation principle, linear in the tree.",
        compatible_formats=(ProofFormat.EMPTY_PROOF,),
    ),
}


@dataclass(frozen=True)
class Advice:
    """The inventor's deliverable for one agent.

    ``suggestion`` is concept-dependent: a pure profile (tuple of ints),
    a :class:`MixedProfile`, a symmetric probability (Fraction), or an
    action/link index for on-line advice.  ``proof`` is the format-
    dependent payload (an encoded certificate, an equilibrium for the
    interactive provers, the claimed p, or the inputs of a deterministic
    recomputation).

    ``backend`` records which numeric search mode actually produced the
    suggestion — ``"exact"``, ``"float+certify"`` or ``"numpy"``; an
    "auto" *policy* must be resolved to one of them before advising, so
    the audit trail always shows what ran.  Whatever the search mode,
    the suggestion's numbers are exact rationals —
    approximately-searching inventors certify before they advise, in
    their own process — so the proof obligations are identical in every
    mode.

    ``cache`` records what the cross-run solve cache did for the hard
    step (see :data:`CACHE_STATES`): a ``"hit"`` advice carries a
    previously certified solution and skipped the search entirely —
    the proof obligations are unchanged, which is why serving it is
    sound.  ``solve_ms`` is the inventor-measured wall time of the hard
    step in milliseconds (negative when the inventor did not measure),
    so the audit trail can price cache hits against cold solves.

    ``verify_ms`` is the session-measured wall time of the verification
    phase — every selected verifier's run plus the majority vote —
    in milliseconds (negative until a session has verified the advice;
    the advice an inventor hands over is necessarily unverified, so the
    field is populated on the *outcome's* advice).  Together with
    ``solve_ms`` it makes the paper's search-vs-verify asymmetry
    observable per consultation: the hard step's price next to the
    cheap check's.  Like ``solve_ms``, it is telemetry and stays off
    the wire summary (byte determinism).
    """

    game_id: str
    agent: int | str
    concept: SolutionConcept
    proof_format: ProofFormat
    suggestion: Any
    proof: Any
    inventor: str = ""
    backend: str = MODE_EXACT
    cache: str = ""
    solve_ms: float = -1.0
    verify_ms: float = -1.0

    def __post_init__(self):
        info = CONCEPT_LIBRARY.get(self.concept)
        if info is None:
            raise ProtocolError(f"concept {self.concept} missing from the library")
        if self.proof_format not in info.compatible_formats:
            raise ProtocolError(
                f"{self.proof_format.value} proofs cannot establish "
                f"{self.concept.value}"
            )
        if self.backend not in RESOLVED_BACKEND_MODES:
            raise ProtocolError(
                f"unknown solver backend {self.backend!r}; "
                f"expected one of {RESOLVED_BACKEND_MODES}"
            )
        if self.cache not in CACHE_STATES:
            raise ProtocolError(
                f"unknown cache state {self.cache!r}; "
                f"expected one of {CACHE_STATES}"
            )

    def concept_info(self) -> ConceptInfo:
        """The library entry the verifier shows the user."""
        return CONCEPT_LIBRARY[self.concept]


def describe_advice(advice: Advice) -> str:
    """The verifier-side notice: concept, consequences, proof format."""
    info = advice.concept_info()
    notice = (
        f"Solution concept: {info.concept.value}. {info.description} "
        f"Consequences: {info.consequences} "
        f"Proof format: {advice.proof_format.value}."
    )
    if advice.backend != MODE_EXACT:
        notice += (
            f" Solver backend: {advice.backend} (search was approximate; "
            f"the suggestion itself is exact and certified)."
        )
    if advice.cache == "hit":
        notice += (
            " Solve cache: hit (a previously certified solution for these "
            "exact payoffs was served; the proof obligations are unchanged)."
        )
    return notice
