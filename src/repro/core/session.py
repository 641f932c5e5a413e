"""The consultation session: one agent, one game, one advice, one verdict.

A session walks the Fig. 1 flow as an explicit state machine::

    CREATED -> ADVISED -> VERIFIED -> CLOSED

driving the bus (who said what to whom, in bytes), the verifier registry
(which procedures ran), the reputation store (who agreed with the
majority) and the audit log (what to blame on whom).  The rest of the
story — advice provenance, every vote, the decision and its timings —
goes into the one ``service.consultation.completed`` record the
consultation service writes from the :class:`SessionOutcome`.  Driving
a session out of order raises :class:`ProtocolError` — protocol order
is part of the framework's guarantees.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Any

from repro.core.actors import AdvicePackage, AuthorityAgent, GameInventor
from repro.core.advice import Advice, describe_advice
from repro.core.audit import AuditLog
from repro.core.bus import MessageBus
from repro.core.registry import (
    MajorityOutcome,
    VerificationContext,
    Verdict,
    VerifierRegistry,
    majority_verdict,
)
from repro.core.reputation import ReputationStore
from repro.errors import ProtocolError
from repro.games.base import Game
from repro.games.profiles import MixedProfile
from repro.interactive.p1 import P1Announcement
from repro.online.participation_online import OnlineAdvice

#: The privacy modes an agent may request advice under.
PRIVACY_MODES = ("open", "private")

_CREATED = "created"
_ADVISED = "advised"
_VERIFIED = "verified"
_CLOSED = "closed"


def advice_wire_summary(advice: Advice) -> dict[str, Any]:
    """A JSON-able summary of an advice for bus transport.

    Live prover handles never cross the bus; interactive proofs are
    summarized by format, matching the paper's model where the proof
    *interaction* happens between verifier and prover directly.
    """
    suggestion: Any = advice.suggestion
    if isinstance(suggestion, MixedProfile):
        suggestion = [list(row) for row in suggestion.distributions]
    elif isinstance(suggestion, OnlineAdvice):
        suggestion = {
            "probability": suggestion.probability,
            "expected_gain": suggestion.expected_gain,
        }
    elif isinstance(suggestion, tuple):
        suggestion = list(suggestion)
    elif isinstance(suggestion, dict):
        # A correlated device is keyed by action profiles (tuples); JSON
        # keys are strings.
        suggestion = {str(key): value for key, value in suggestion.items()}
    proof: Any = advice.proof
    if isinstance(proof, P1Announcement):
        proof = {
            "row_support": list(proof.row_support),
            "column_support": list(proof.column_support),
        }
    return {
        "game_id": advice.game_id,
        "agent": advice.agent,
        "concept": advice.concept.value,
        "proof_format": advice.proof_format.value,
        "suggestion": suggestion,
        "proof": proof,
        "backend": advice.backend,
        # cache state is protocol-relevant (a verifier may price a hit
        # differently) and deterministic; wall times (solve_ms and
        # verify_ms alike) are telemetry and deliberately NOT on the
        # wire — the bus accounts communication bytes exactly, and a
        # timing float would make the byte counts vary run to run.
        # Timings live on the Advice itself and in the audit log.
        "cache": advice.cache,
    }


@dataclass(frozen=True)
class SessionOutcome:
    """The caller-facing result of a completed session."""

    session_id: str
    advice: Advice
    majority: MajorityOutcome
    adopted: bool
    concept_notice: str


class ConsultationSession:
    """One advice round-trip through the rationality authority."""

    def __init__(
        self,
        session_id: str,
        bus: MessageBus,
        registry: VerifierRegistry,
        reputation: ReputationStore,
        audit: AuditLog,
        game_id: str,
        game: Game,
        agent: AuthorityAgent,
        rng: random.Random,
    ):
        self.session_id = session_id
        self._bus = bus
        self._registry = registry
        self._reputation = reputation
        self._audit = audit
        self._game_id = game_id
        self._game = game
        self._agent = agent
        self._rng = rng
        self._state = _CREATED
        self._package: AdvicePackage | None = None
        self._majority: MajorityOutcome | None = None
        self._verify_ms: float | None = None

    @property
    def advice(self) -> Advice | None:
        """The delivered (not yet verified) advice; None before delivery."""
        return None if self._package is None else self._package.advice

    # ------------------------------------------------------------------
    # Phase 1: advice
    # ------------------------------------------------------------------

    def request_advice(
        self, inventor: GameInventor, privacy: str = "open"
    ) -> Advice:
        self._require_state(_CREATED, "request_advice")
        if privacy not in PRIVACY_MODES:
            raise ProtocolError(f"unknown privacy mode {privacy!r}")
        self._bus.send(
            self._agent.name,
            inventor.name,
            "advice.request",
            {"game_id": self._game_id, "agent": self._agent.player_role,
             "privacy": privacy},
        )
        package = inventor.advise(
            self._game_id, self._game, self._agent.player_role, privacy
        )
        self._bus.send(
            inventor.name,
            self._agent.name,
            "advice.delivery",
            advice_wire_summary(package.advice),
        )
        self._package = package
        self._state = _ADVISED
        return package.advice

    # ------------------------------------------------------------------
    # Phase 2: verification
    # ------------------------------------------------------------------

    def verify(self) -> MajorityOutcome:
        self._require_state(_ADVISED, "verify")
        package = self._package
        assert package is not None
        advice = package.advice
        verify_started = time.perf_counter()

        supporting = self._registry.supporting(advice)
        if not supporting:
            raise ProtocolError(
                f"no registered verifier can check {advice.proof_format.value} proofs"
            )
        chosen_names = self._reputation.select_top(
            [proc.name for proc in supporting],
            min(self._agent.policy.verifier_count, len(supporting)),
        )
        verdicts = []
        for name in chosen_names:
            procedure = self._registry.get(name)
            context = VerificationContext(rng=self._rng, prover=package.prover)
            try:
                verdict = procedure.verify(self._game, advice, context)
            except Exception as exc:  # noqa: BLE001 - a crashing verifier
                # must not take the session down; it simply fails to
                # establish the proof (and the audit shows why).
                verdict = Verdict(
                    verifier=name,
                    accepted=False,
                    reason=f"verifier crashed: {type(exc).__name__}: {exc}",
                )
            self._bus.send(
                name,
                self._agent.name,
                "verification.verdict",
                {"accepted": verdict.accepted, "reason": verdict.reason},
            )
            verdicts.append(verdict)

        majority = majority_verdict(verdicts)
        # The verification phase's wall time: every selected verifier's
        # run plus the vote.  This is the cheap side of the paper's
        # asymmetry, priced next to Advice.solve_ms in the audit trail.
        self._verify_ms = (time.perf_counter() - verify_started) * 1000.0
        self._reputation.update_from_outcome(majority)
        for dissenter in majority.dissenters():
            self._audit.blame_verifier(
                self.session_id, dissenter, "voted against the trusted majority"
            )
        if not majority.accepted and advice.inventor:
            self._audit.blame_inventor(
                self.session_id,
                advice.inventor,
                f"advice failed verification: "
                f"{next((v.reason for v in verdicts if not v.accepted), 'rejected')}",
            )
        self._majority = majority
        self._state = _VERIFIED
        return majority

    # ------------------------------------------------------------------
    # Phase 3: adoption
    # ------------------------------------------------------------------

    def conclude(self) -> SessionOutcome:
        self._require_state(_VERIFIED, "conclude")
        package = self._package
        majority = self._majority
        assert package is not None and majority is not None
        adopted = majority.accepted
        self._state = _CLOSED
        # The outcome's advice carries the measured verification time —
        # the delivered advice could not (it predates verification).
        advice = package.advice
        if self._verify_ms is not None:
            advice = dataclasses.replace(advice, verify_ms=self._verify_ms)
        return SessionOutcome(
            session_id=self.session_id,
            advice=advice,
            majority=majority,
            adopted=adopted,
            concept_notice=describe_advice(advice),
        )

    # ------------------------------------------------------------------

    def _require_state(self, expected: str, operation: str) -> None:
        if self._state != expected:
            raise ProtocolError(
                f"{operation} requires session state {expected!r}, "
                f"but the session is {self._state!r}"
            )
