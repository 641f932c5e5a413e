"""Verification procedures, the verifier registry and majority voting.

"The veriﬁers are trustable service providers that proﬁt from selling
general purpose veriﬁcation procedures v() ... We note the possibility of
having several veriﬁers, such that their majority is trusted."

A :class:`VerificationProcedure` is the paper's v(): given a game, an
advice and a context (randomness, and a prover handle for interactive
formats) it returns a :class:`Verdict`.  The registry holds named
procedures; :func:`majority_verdict` aggregates several verifiers'
verdicts so a dishonest minority is out-voted.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.advice import Advice, ProofFormat, SolutionConcept
from repro.errors import ProofError, ProtocolError
from repro.fractions_util import to_fraction
from repro.games.base import Game
from repro.games.bimatrix import COLUMN, ROW, BimatrixGame
from repro.games.participation import ParticipationGame
from repro.games.profiles import MixedProfile
from repro.games.symmetric import SymmetricTwoActionGame
from repro.equilibria.mixed import is_mixed_nash
from repro.equilibria.pure import is_pure_nash
from repro.interactive.p1 import P1Announcement, P1Verifier
from repro.interactive.p2 import P2Prover, P2Verifier
from repro.online.parallel_links import verify_suggestion
from repro.online.participation_online import OnlineAdvice, verify_online_advice
from repro.proofs.certificates import (
    MaxNashCertificate,
    NashCertificate,
)
from repro.proofs.checker import ProofKernel
from repro.proofs.serialize import decode_certificate


@dataclass(frozen=True)
class Verdict:
    """One verifier's answer, with its cost accounting."""

    verifier: str
    accepted: bool
    reason: str
    cost: dict[str, int] = field(default_factory=dict)


@dataclass
class VerificationContext:
    """Everything a procedure may need beyond the game and the advice.

    ``backend`` echoes the solver mode the advice declares (see
    :class:`~repro.linalg.backend.BackendPolicy`).  It is informational:
    verification procedures are the certification side of the two-phase
    pipeline and always evaluate the proof obligations with exact
    arithmetic, whatever backend the *inventor* searched on.  Procedures
    may use it to annotate their verdicts or price their service.
    """

    rng: random.Random
    prover: Any = None  # live prover handle for interactive formats
    backend: str = "exact"
    #: Echo of the advice's solve-cache state ("", "hit", "miss")
    #: — informational: a cache hit serves a previously
    #: certified solution, and the proof obligations this procedure
    #: checks are identical either way.
    cache: str = ""


class VerificationProcedure(abc.ABC):
    """The paper's v(): a general-purpose, sellable verification procedure."""

    def __init__(self, name: str):
        self.name = name

    @abc.abstractmethod
    def supports(self, advice: Advice) -> bool:
        """Can this procedure check this advice's concept/format?"""

    @abc.abstractmethod
    def verify(self, game: Game, advice: Advice, context: VerificationContext) -> Verdict:
        """Run the check.  Must not raise on a *failing* proof — return a
        rejecting verdict so the authority can audit it."""

    def _verdict(self, accepted: bool, reason: str, **cost: int) -> Verdict:
        return Verdict(verifier=self.name, accepted=accepted, reason=reason, cost=cost)


class CertificateProcedure(VerificationProcedure):
    """Checks Fig. 2 certificates with the proof kernel (Sect. 3)."""

    _CONCEPTS = {
        SolutionConcept.PURE_NASH,
        SolutionConcept.MAXIMAL_PURE_NASH,
        SolutionConcept.MINIMAL_PURE_NASH,
        SolutionConcept.DOMINANT_STRATEGY,
    }

    def supports(self, advice: Advice) -> bool:
        return (
            advice.proof_format is ProofFormat.CERTIFICATE
            and advice.concept in self._CONCEPTS
        )

    def verify(self, game, advice, context) -> Verdict:
        try:
            cert = (
                decode_certificate(advice.proof)
                if isinstance(advice.proof, dict)
                else advice.proof
            )
        except ProofError as exc:
            return self._verdict(False, f"malformed certificate: {exc}")
        from repro.proofs.certificates import DominanceCertificate

        suggestion = tuple(advice.suggestion)
        if isinstance(cert, NashCertificate):
            if advice.concept is not SolutionConcept.PURE_NASH:
                return self._verdict(False, "plain Nash certificate cannot "
                                            "establish maximality")
            if cert.profile != suggestion:
                return self._verdict(False, "certificate is for a different profile")
        elif isinstance(cert, DominanceCertificate):
            if advice.concept is not SolutionConcept.DOMINANT_STRATEGY:
                return self._verdict(False, "dominance certificate does not match "
                                            "the advertised concept")
            if cert.profile != suggestion:
                return self._verdict(False, "certificate is for a different profile")
        elif isinstance(cert, MaxNashCertificate):
            if cert.candidate != suggestion:
                return self._verdict(False, "certificate is for a different candidate")
            wants_minimal = advice.concept is SolutionConcept.MINIMAL_PURE_NASH
            if cert.minimal != wants_minimal:
                return self._verdict(False, "certificate direction does not match "
                                            "the advertised concept")
        else:
            return self._verdict(False, "unsupported certificate type for this advice")
        result = ProofKernel(game).check(cert)
        return self._verdict(
            result.accepted,
            result.reason,
            utility_evaluations=result.utility_evaluations,
            statements_checked=result.statements_checked,
        )


class EmptyProofProcedure(VerificationProcedure):
    """The NTM-style empty proof: evaluate the suggestion directly."""

    def supports(self, advice: Advice) -> bool:
        return advice.proof_format is ProofFormat.EMPTY_PROOF and advice.concept in (
            SolutionConcept.PURE_NASH,
            SolutionConcept.MIXED_NASH,
        )

    def verify(self, game, advice, context) -> Verdict:
        if advice.concept is SolutionConcept.PURE_NASH:
            profile = tuple(advice.suggestion)
            accepted = is_pure_nash(game, profile)
            return self._verdict(
                accepted,
                "pure Nash verified by evaluation" if accepted
                else "a profitable deviation exists",
            )
        mixed = advice.suggestion
        if not isinstance(mixed, MixedProfile):
            return self._verdict(False, "suggestion is not a mixed profile")
        accepted = is_mixed_nash(game, mixed)
        return self._verdict(
            accepted,
            "mixed Nash verified by evaluation" if accepted
            else "a supported action is not a best reply",
        )


class P1Procedure(VerificationProcedure):
    """Runs the Fig. 3 verification for the advised agent (both sides if
    the advice addresses the authority rather than one agent)."""

    def supports(self, advice: Advice) -> bool:
        return advice.proof_format is ProofFormat.INTERACTIVE_P1

    def verify(self, game, advice, context) -> Verdict:
        if not isinstance(game, BimatrixGame):
            return self._verdict(False, "P1 applies to bimatrix games")
        proof = advice.proof
        if isinstance(proof, P1Announcement):
            supports = (proof.row_support, proof.column_support)
        else:
            try:
                supports = (proof["row_support"], proof["column_support"])
            except (TypeError, KeyError) as exc:
                return self._verdict(False, f"malformed P1 announcement: {exc}")
        if not all(_is_support(support) for support in supports):
            return self._verdict(
                False,
                "malformed P1 announcement: a support is not a strictly "
                "increasing sequence of action indices",
            )
        advised = advice.agent
        if advised != "both" and not (
            type(advised) is int and advised in (ROW, COLUMN)
        ):
            return self._verdict(
                False,
                f"malformed P1 announcement: agent {advised!r} is not 0, 1 or 'both'",
            )
        announcement = P1Announcement(
            row_support=tuple(supports[0]), column_support=tuple(supports[1])
        )
        agents = (ROW, COLUMN) if advised == "both" else (advised,)
        solves = 0
        for agent in agents:
            report = P1Verifier(game, agent).verify(announcement)
            solves += report.linear_solves + report.lp_fallbacks
            if not report.accepted:
                return self._verdict(False, f"agent {agent}: {report.reason}",
                                     linear_solves=solves)
        return self._verdict(True, "P1 supports verified", linear_solves=solves)


def _is_support(support) -> bool:
    """A strictly increasing sequence of ints (bools are not ints here):
    what a bit-vector decodes to."""
    return (
        type(support) in (list, tuple)
        and all(type(i) is int for i in support)
        and all(a < b for a, b in zip(support, support[1:]))
    )


class P2Procedure(VerificationProcedure):
    """Runs the Fig. 4 private verification against a live prover handle."""

    def __init__(self, name: str, required_conclusive: int = 1):
        super().__init__(name)
        self._required = required_conclusive

    def supports(self, advice: Advice) -> bool:
        return advice.proof_format is ProofFormat.INTERACTIVE_P2

    def verify(self, game, advice, context) -> Verdict:
        if not isinstance(game, BimatrixGame):
            return self._verdict(False, "P2 applies to bimatrix games")
        prover = context.prover
        if not isinstance(prover, P2Prover):
            return self._verdict(False, "P2 needs a live prover handle")
        agent = int(advice.agent)
        verifier = P2Verifier(
            game, agent, rng=context.rng, required_conclusive=self._required
        )
        report = verifier.verify(prover)
        return self._verdict(
            report.accepted,
            report.reason,
            rounds=report.rounds,
            conclusive_rounds=report.conclusive_rounds,
        )


class IndifferenceProcedure(VerificationProcedure):
    """Eq. (5): checks an advised symmetric probability p (Sect. 5)."""

    def supports(self, advice: Advice) -> bool:
        return advice.proof_format is ProofFormat.INDIFFERENCE_IDENTITY

    def verify(self, game, advice, context) -> Verdict:
        if not isinstance(game, SymmetricTwoActionGame):
            return self._verdict(False, "indifference checks need a symmetric "
                                        "two-action game")
        try:
            p = to_fraction(advice.suggestion)
        except TypeError:
            return self._verdict(False, "suggestion is not a probability")
        if isinstance(game, ParticipationGame):
            accepted = game.verify_equilibrium(p)
        else:
            accepted = game.is_symmetric_equilibrium(p)
        return self._verdict(
            accepted,
            f"indifference identity holds at p={p}" if accepted
            else f"indifference identity fails at p={p}",
        )


class OnlineLinkProcedure(VerificationProcedure):
    """Sect. 6: recompute the inventor's deterministic link suggestion."""

    def supports(self, advice: Advice) -> bool:
        return (
            advice.proof_format is ProofFormat.DETERMINISTIC_RECOMPUTATION
            and isinstance(advice.proof, dict)
            and advice.proof.get("kind") == "parallel-links"
        )

    def verify(self, game, advice, context) -> Verdict:
        proof = advice.proof
        try:
            ok = verify_suggestion(
                loads=list(proof["loads"]),
                own_load=proof["own_load"],
                expected_load=proof["expected_load"],
                future_count=int(proof["future_count"]),
                suggested=int(advice.suggestion),
            )
        except (TypeError, KeyError) as exc:
            return self._verdict(False, f"malformed recomputation inputs: {exc}")
        return self._verdict(
            ok,
            "suggestion matches the recomputed LPT assignment" if ok
            else "suggestion differs from the recomputed LPT assignment",
        )


class OnlineParticipationProcedure(VerificationProcedure):
    """Sect. 5 on-line: check the last firm's advice against its history."""

    def supports(self, advice: Advice) -> bool:
        return (
            advice.proof_format is ProofFormat.DETERMINISTIC_RECOMPUTATION
            and isinstance(advice.proof, dict)
            and advice.proof.get("kind") == "participation-online"
        )

    def verify(self, game, advice, context) -> Verdict:
        if not isinstance(game, ParticipationGame):
            return self._verdict(False, "on-line participation advice needs a "
                                        "participation game")
        if not isinstance(advice.suggestion, OnlineAdvice):
            return self._verdict(False, "suggestion is not an OnlineAdvice")
        try:
            prior = int(advice.proof["prior_participants"])
        except (TypeError, KeyError) as exc:
            return self._verdict(False, f"malformed history disclosure: {exc}")
        ok = verify_online_advice(game, prior, advice.suggestion)
        return self._verdict(
            ok,
            "advice is the best reply to the disclosed history" if ok
            else "advice is not a best reply to the disclosed history "
                 "(a flipped p would cause a loss)",
        )


class DominanceProcedure(VerificationProcedure):
    """Checks a dominant-strategy equilibrium by direct evaluation.

    The most expensive library entry: each player's action is compared
    against every alternative at *every* opponent profile (the
    complexity contrast Tadjouddine's NP-completeness result is about,
    here made concrete on explicit games).
    """

    def supports(self, advice: Advice) -> bool:
        return (
            advice.concept is SolutionConcept.DOMINANT_STRATEGY
            and advice.proof_format is ProofFormat.EMPTY_PROOF
        )

    def verify(self, game, advice, context) -> Verdict:
        from repro.equilibria.dominance import is_dominant_action

        try:
            profile = game.validate_profile(tuple(advice.suggestion))
        except Exception as exc:  # noqa: BLE001
            return self._verdict(False, f"malformed suggestion: {exc}")
        strict = bool(
            isinstance(advice.proof, dict) and advice.proof.get("strict", False)
        )
        for player in game.players():
            if not is_dominant_action(game, player, profile[player], strict=strict):
                return self._verdict(
                    False,
                    f"player {player}'s action {profile[player]} is not "
                    f"{'strictly ' if strict else ''}dominant",
                )
        return self._verdict(True, "dominant-strategy equilibrium verified")


class CorrelatedProcedure(VerificationProcedure):
    """Checks a correlated device's obedience constraints, exactly."""

    def supports(self, advice: Advice) -> bool:
        return (
            advice.concept is SolutionConcept.CORRELATED
            and advice.proof_format is ProofFormat.EMPTY_PROOF
        )

    def verify(self, game, advice, context) -> Verdict:
        from repro.errors import EquilibriumError, GameError
        from repro.equilibria.correlated import is_correlated_equilibrium

        suggestion = advice.suggestion
        if not isinstance(suggestion, dict):
            return self._verdict(False, "suggestion is not a profile distribution")
        try:
            dist = {tuple(k): to_fraction(v) for k, v in suggestion.items()}
            accepted = is_correlated_equilibrium(game, dist)
        except (EquilibriumError, GameError, TypeError) as exc:
            return self._verdict(False, f"malformed distribution: {exc}")
        return self._verdict(
            accepted,
            "obedience constraints hold" if accepted
            else "a recommendation admits a profitable deviation",
        )


class BayesNashProcedure(VerificationProcedure):
    """Checks a Bayes-Nash strategy profile on a Bayesian game."""

    def supports(self, advice: Advice) -> bool:
        return (
            advice.concept is SolutionConcept.BAYES_NASH
            and advice.proof_format is ProofFormat.EMPTY_PROOF
        )

    def verify(self, game, advice, context) -> Verdict:
        from repro.errors import GameError as _GameError
        from repro.games.bayesian import BayesianGame, is_bayes_nash

        if not isinstance(game, BayesianGame):
            return self._verdict(False, "Bayes-Nash advice needs a Bayesian game")
        try:
            strategies = tuple(tuple(s) for s in advice.suggestion)
            accepted = is_bayes_nash(game, strategies)
        except (_GameError, TypeError) as exc:
            return self._verdict(False, f"malformed strategy profile: {exc}")
        return self._verdict(
            accepted,
            "every type plays an interim best reply" if accepted
            else "some type has a profitable interim deviation",
        )


class SubgamePerfectProcedure(VerificationProcedure):
    """Checks subgame perfection via the one-shot-deviation principle."""

    def supports(self, advice: Advice) -> bool:
        return (
            advice.concept is SolutionConcept.SUBGAME_PERFECT
            and advice.proof_format is ProofFormat.EMPTY_PROOF
        )

    def verify(self, game, advice, context) -> Verdict:
        from repro.errors import GameError as _GameError
        from repro.games.extensive import ExtensiveGame, is_subgame_perfect

        if not isinstance(game, ExtensiveGame):
            return self._verdict(False, "subgame perfection needs an "
                                        "extensive-form game")
        suggestion = advice.suggestion
        if not isinstance(suggestion, dict):
            return self._verdict(False, "suggestion is not a node-action map")
        try:
            accepted = is_subgame_perfect(game, suggestion)
        except _GameError as exc:
            return self._verdict(False, f"malformed strategy: {exc}")
        return self._verdict(
            accepted,
            "optimal in every subgame" if accepted
            else "a one-shot deviation improves some subgame "
                 "(a non-credible threat)",
        )


class ByzantineProcedure(VerificationProcedure):
    """A dishonest verifier: inverts a wrapped procedure's verdicts.

    Used in tests and benches to show the majority out-voting a bad
    verifier and the reputation system punishing it.
    """

    def __init__(self, name: str, inner: VerificationProcedure):
        super().__init__(name)
        self._inner = inner

    def supports(self, advice: Advice) -> bool:
        return self._inner.supports(advice)

    def verify(self, game, advice, context) -> Verdict:
        verdict = self._inner.verify(game, advice, context)
        return self._verdict(
            not verdict.accepted,
            f"[byzantine inversion of: {verdict.reason}]",
            **verdict.cost,
        )


# ----------------------------------------------------------------------
# Registry and majority
# ----------------------------------------------------------------------


def standard_procedures() -> tuple[VerificationProcedure, ...]:
    """One of each honest procedure, under conventional vendor names."""
    return (
        CertificateProcedure("kernel-check"),
        EmptyProofProcedure("direct-evaluation"),
        P1Procedure("p1-supports"),
        P2Procedure("p2-private"),
        IndifferenceProcedure("eq5-indifference"),
        OnlineLinkProcedure("lpt-recompute"),
        OnlineParticipationProcedure("history-best-reply"),
        DominanceProcedure("dominance-sweep"),
        CorrelatedProcedure("obedience-check"),
        BayesNashProcedure("interim-best-reply"),
        SubgamePerfectProcedure("one-shot-deviation"),
    )


class VerifierRegistry:
    """Named verification procedures available to agents."""

    def __init__(self):
        self._procedures: dict[str, VerificationProcedure] = {}

    def add(self, procedure: VerificationProcedure) -> None:
        if procedure.name in self._procedures:
            raise ProtocolError(f"verifier {procedure.name!r} already registered")
        self._procedures[procedure.name] = procedure

    def get(self, name: str) -> VerificationProcedure:
        try:
            return self._procedures[name]
        except KeyError:
            raise ProtocolError(f"unknown verifier {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(self._procedures)

    def supporting(self, advice: Advice) -> tuple[VerificationProcedure, ...]:
        """All registered procedures able to check this advice."""
        return tuple(
            proc for proc in self._procedures.values() if proc.supports(advice)
        )


@dataclass(frozen=True)
class MajorityOutcome:
    """Aggregated verdicts: the trusted majority's decision."""

    accepted: bool
    verdicts: tuple[Verdict, ...]
    accept_votes: int
    reject_votes: int

    @property
    def unanimous(self) -> bool:
        return self.accept_votes == 0 or self.reject_votes == 0

    def dissenters(self) -> tuple[str, ...]:
        """Verifiers that voted against the majority."""
        return tuple(
            v.verifier for v in self.verdicts if v.accepted != self.accepted
        )


def majority_verdict(verdicts: Sequence[Verdict]) -> MajorityOutcome:
    """Strict-majority aggregation; ties reject (fail-safe)."""
    if not verdicts:
        raise ProtocolError("majority voting needs at least one verdict")
    accept = sum(1 for v in verdicts if v.accepted)
    reject = len(verdicts) - accept
    return MajorityOutcome(
        accepted=accept > reject,
        verdicts=tuple(verdicts),
        accept_votes=accept,
        reject_votes=reject,
    )
