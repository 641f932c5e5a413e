"""Exception hierarchy for the rationality-authority reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch the whole library with a single ``except`` clause while
still being able to distinguish the failure domains that matter to the
paper's protocol: malformed games, failed proof checks, broken interactive
transcripts, and protocol/authority violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GameError(ReproError):
    """A game definition or profile is malformed (wrong sizes, bad indices)."""


class ProfileError(GameError):
    """A strategy profile does not fit the game it is used with."""


class EquilibriumError(ReproError):
    """Equilibrium computation failed (no equilibrium found, bad support)."""


class LinearAlgebraError(ReproError):
    """Exact linear algebra failed (singular system, inconsistent system)."""


class BackendError(LinearAlgebraError):
    """A numeric search backend could not reach a trustworthy answer.

    Raised by approximate (float) backends when a solve is inconclusive —
    an iteration cap, a near-singular pivot, a result too close to a
    tolerance boundary.  Never raised by the exact backend.  Callers in
    the two-phase pipeline catch this and fall back to the exact path, so
    the error is a routing signal, not a failure of the library.
    """


class ProofError(ReproError):
    """A formal proof certificate is structurally invalid."""


class ProofRejected(ProofError):
    """A proof certificate was well-formed but failed verification.

    This is the checker's *sound rejection*: the claim is not established.
    The ``reason`` attribute carries a human-readable account of the first
    failing step, which the authority's audit log records verbatim.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class TranscriptError(ReproError):
    """An interactive-proof transcript was malformed or out of order."""


class VerificationFailure(ReproError):
    """An interactive verifier detected a cheating prover."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class CommitmentError(ReproError):
    """A cryptographic commitment failed to open correctly."""


class SignatureError(ReproError):
    """A signature did not verify against the registered key."""


class ProtocolError(ReproError):
    """A rationality-authority session was driven out of protocol order."""


class AdmissionError(ProtocolError):
    """The consultation service refused an admission.

    Raised by :meth:`~repro.service.service.AuthorityService.submit` and
    ``submit_many`` when the admission would take the pending queue past
    its configured high-water mark.  The shed load is recorded in the
    audit log (``service.admission.backpressure``), so refusing work is
    an accountable act, not a silent drop."""


class DeadlineExceeded(ReproError):
    """A consultation ran past its caller-supplied deadline.

    The typed *outcome* of an expired submission: the drain resolves the
    consultation's future with this exception — at admission-queue exit
    when the deadline lapsed while queued, or after abandoning a solve
    that outran its budget — audits ``service.deadline.exceeded`` and
    moves on to the next submission, so one wedged (or adversarially
    expensive) game can never head-of-line-block the pump for everyone
    else.  The HTTP front-end maps it to **504** plus a ``Retry-After``
    hint.  ``deadline_ms`` carries the budget that was exceeded.
    """

    def __init__(self, message: str, deadline_ms: float | None = None):
        super().__init__(message)
        self.deadline_ms = deadline_ms


class FaultInjected(ReproError):
    """The default error thrown by an armed fault-injection plan.

    Deliberately a :class:`ReproError` subclass so chaos tests can
    assert "every future resolved to advice or a *typed* error" with
    one catch, and deliberately its own leaf so production code never
    handles it specially by accident — resilience paths must react to
    the *native* failure dialects (``OSError``,
    :class:`PersistenceError`, ``RuntimeError``, ``SystemExit``), which
    a :class:`~repro.service.faults.FaultSpec` can also speak.
    """


class PersistenceError(ReproError):
    """A persisted solve-cache document could not be trusted or decoded.

    Raised for truncated/bit-flipped files (digest mismatch), stale or
    unknown schema versions and malformed entries.  The solve cache
    turns this into a *clean-miss* empty load plus a
    ``cache.load.rejected`` audit record — rejection never degrades
    soundness, only warmth.
    """


class AdviceRejected(ReproError):
    """An agent rejected the inventor's advice after verification."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
