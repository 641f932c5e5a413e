"""The framework's parties: game inventors and agents.

"The game inventor ... may possibly gain revenues from the game.  We
consider game inventors that create games for which they could predict
the best-reply and prove their feasibility and optimality to the
players/agents."  Inventors here hold the heavyweight solvers
(:mod:`repro.equilibria`) and emit :class:`~repro.core.advice.Advice`
with the matching proof payloads.  An inventor whose search is cacheable
by exact payoffs (:class:`BimatrixInventor`) solves through the solve
cache its authority hands it at registration.  Dishonest variants model
the paper's conflicted inventor.

Agents carry only an identity, a (private) player role and a verifier-
selection policy; their preferences never leave their process — the
session hands them advice and verdicts, not the other way around.
"""

from __future__ import annotations

import abc
import random
import time
from dataclasses import dataclass
from typing import Any, NamedTuple

from repro.core.advice import Advice, ProofFormat, SolutionConcept
from repro.errors import EquilibriumError, ProtocolError
from repro.games.base import Game
from repro.linalg.backend import BackendPolicy, resolve_policy
from repro.games.bimatrix import BimatrixGame
from repro.games.participation import ParticipationGame
from repro.games.profiles import MixedProfile
from repro.equilibria.lemke_howson import lemke_howson
from repro.equilibria.pure import maximal_pure_nash, pure_nash_equilibria
from repro.equilibria.support_enumeration import find_one_equilibrium
from repro.equilibria.symmetric import participation_equilibrium, symmetric_equilibria
from repro.interactive.p1 import P1Prover
from repro.interactive.p2 import P2Prover
from repro.proofs.builder import build_max_nash_certificate, build_nash_certificate
from repro.proofs.serialize import encode_certificate


@dataclass(frozen=True)
class AdvicePackage:
    """What an inventor hands the session: the advice and, for interactive
    formats, a live prover handle the verifier can query."""

    advice: Advice
    prover: Any = None


class Solved(NamedTuple):
    """One :meth:`BimatrixInventor.solve`: the certified profile and how
    this call got it (cache state, see
    :data:`~repro.core.advice.CACHE_STATES`, and wall time in ms)."""

    profile: MixedProfile
    cache: str
    solve_ms: float


class GameInventor(abc.ABC):
    """Base inventor: owns games and answers advice requests."""

    def __init__(self, name: str):
        self.name = name

    @abc.abstractmethod
    def advise(self, game_id: str, game: Game, agent, privacy: str) -> AdvicePackage:
        """Produce advice for ``agent`` (an index or "both").

        ``privacy`` is "open" or "private"; inventors that support private
        verification switch to P2-style disclosure when asked.
        """

    def attach_solve_cache(self, cache) -> None:
        """Hand this inventor its authority's solve cache.

        No-op by default: only inventors whose hard step is cacheable
        by exact payoff fingerprint (see :meth:`BimatrixInventor
        .attach_solve_cache`) opt in.  The authority calls this once,
        when it registers the inventor.
        """


class PureNashInventor(GameInventor):
    """Advises a (maximal) pure Nash equilibrium with a Fig. 2 certificate."""

    def __init__(self, name: str, maximal: bool = True, explicit: bool = True):
        super().__init__(name)
        self._maximal = maximal
        self._explicit = explicit

    def advise(self, game_id, game, agent, privacy) -> AdvicePackage:
        if self._maximal:
            candidates = maximal_pure_nash(game)
            concept = SolutionConcept.MAXIMAL_PURE_NASH
        else:
            candidates = pure_nash_equilibria(game)
            concept = SolutionConcept.PURE_NASH
        if not candidates:
            raise EquilibriumError(f"{game_id} has no pure Nash equilibrium")
        profile = candidates[0]
        if self._maximal:
            cert = build_max_nash_certificate(game, profile, explicit=self._explicit)
        else:
            cert = build_nash_certificate(game, profile, explicit=self._explicit)
        advice = Advice(
            game_id=game_id,
            agent=agent,
            concept=concept,
            proof_format=ProofFormat.CERTIFICATE,
            suggestion=profile,
            proof=encode_certificate(cert),
            inventor=self.name,
        )
        return AdvicePackage(advice=advice)


class BimatrixInventor(GameInventor):
    """Computes a mixed equilibrium (the PPAD-hard step) and proves it
    interactively: P1 when privacy is "open", P2 when "private".

    ``backend`` selects the numeric search policy for the hard step
    (``"exact"``, ``"float+certify"``, ``"numpy"`` or ``"auto"``; also
    accepts a
    :class:`~repro.linalg.backend.BackendPolicy`).  The solvers certify
    approximately-found candidates exactly before returning, so in every
    mode the advice is an exact, certified equilibrium carrying the same
    proof obligations — only the inventor's search cost changes.  On
    degenerate games with multiple equilibria an approximate search may
    settle on a *different* (equally exact) equilibrium than the exact
    search would, which is why the mode that actually ran is recorded
    on the advice for the audit log.

    Registered with an authority, the inventor solves through the
    authority's :class:`~repro.service.cache.SolveCache`
    (:meth:`attach_solve_cache`): solves are then keyed by the game's
    canonical payoff fingerprint, so an exact repeat (same payoff
    bytes, any game id) serves the previously certified profile without
    searching; anything else is a cold search, so the answer depends
    only on the game and the policy, never on what the cache saw
    before.  Without a cache the inventor keeps no solver state between
    calls, and every advice searches.
    """

    def __init__(self, name: str, method: str = "lemke-howson",
                 commitment_mode: bool = False, rng: random.Random | None = None,
                 backend: str | BackendPolicy | None = None):
        super().__init__(name)
        if method not in ("lemke-howson", "support-enumeration"):
            raise ProtocolError(f"unknown solve method {method!r}")
        self._method = method
        self._commitments = commitment_mode
        self._rng = rng or random.Random(0)
        self._policy = resolve_policy(backend)
        self._solve_cache = None

    @property
    def backend_mode(self) -> str:
        """The search mode this inventor was configured with."""
        return self._policy.mode

    def effective_backend(self, game: BimatrixGame) -> str:
        """The mode the policy actually resolves to for this game.

        This — not the requested mode — is what the advice records: an
        "auto" policy that stayed exact on a small game must not be
        audited as an approximate search.
        """
        n, m = game.action_counts
        return self._policy.search_backend(n + m).mode

    def attach_solve_cache(self, cache) -> None:
        """Solve through ``cache`` from now on (replacing any earlier one)."""
        self._solve_cache = cache

    def solve(self, game: BimatrixGame) -> Solved:
        """The inventor's expensive step, with this call's provenance.

        With a cross-run cache attached, an exact payoff repeat is
        served from it (``cache="hit"``) and a cold search is stored
        into it (``"miss"``); without one every call searches
        (``""``).  ``solve_ms`` is this call's own wall time.
        """
        started = time.perf_counter()
        cache = self._solve_cache
        fingerprint = None
        if cache is not None:
            fingerprint = getattr(game, "payoff_fingerprint", None)
        if fingerprint is not None:
            mode = self.effective_backend(game)
            cached = cache.lookup_profile(
                fingerprint, self._method, mode, game=game
            )
            if cached is not None:
                return Solved(
                    cached, "hit", (time.perf_counter() - started) * 1000.0
                )
        if self._method == "lemke-howson":
            profile = lemke_howson(game, 0, policy=self._policy)
        else:
            profile = find_one_equilibrium(game, policy=self._policy)
        if fingerprint is not None:
            cache.store_profile(fingerprint, self._method, mode, profile)
            cache.note_solved()
        return Solved(
            profile, "" if fingerprint is None else "miss",
            (time.perf_counter() - started) * 1000.0,
        )

    def advise(self, game_id, game, agent, privacy) -> AdvicePackage:
        if not isinstance(game, BimatrixGame):
            raise ProtocolError("BimatrixInventor advises bimatrix games only")
        equilibrium, cache_state, solve_ms = self.solve(game)
        if privacy == "private":
            if agent == "both":
                raise ProtocolError("private advice addresses a single agent")
            agent_index = int(agent)
            prover = P2Prover(
                game, equilibrium, agent_index,
                use_commitments=self._commitments, rng=self._rng,
            )
            advice = Advice(
                game_id=game_id,
                agent=agent,
                concept=SolutionConcept.MIXED_NASH,
                proof_format=ProofFormat.INTERACTIVE_P2,
                suggestion=equilibrium.distribution(agent_index),
                proof=None,
                inventor=self.name,
                backend=self.effective_backend(game),
                cache=cache_state,
                solve_ms=solve_ms,
            )
            return AdvicePackage(advice=advice, prover=prover)
        announcement = P1Prover(game, equilibrium).announce()
        suggestion: Any
        if agent == "both":
            suggestion = equilibrium
        else:
            suggestion = equilibrium.distribution(int(agent))
        advice = Advice(
            game_id=game_id,
            agent=agent,
            concept=SolutionConcept.MIXED_NASH,
            proof_format=ProofFormat.INTERACTIVE_P1,
            suggestion=suggestion,
            proof={
                "row_support": list(announcement.row_support),
                "column_support": list(announcement.column_support),
            },
            inventor=self.name,
            backend=self.effective_backend(game),
            cache=cache_state,
            solve_ms=solve_ms,
        )
        return AdvicePackage(advice=advice)


class ParticipationInventor(GameInventor):
    """Sect. 5: computes the symmetric equilibrium p and advises it to all.

    ``backend`` selects the root-scan policy (the advised p is an exact
    rational in every mode — only the grid scan that brackets it runs in
    float under "float+certify"/"auto").
    """

    def __init__(self, name: str, prefer: str = "small",
                 backend: str | BackendPolicy | None = None):
        super().__init__(name)
        self._prefer = prefer
        self._policy = resolve_policy(backend)

    @property
    def backend_mode(self) -> str:
        """The search mode this inventor was configured with."""
        return self._policy.mode

    def effective_backend(self, game: ParticipationGame) -> str:
        """The mode the policy resolves to for this game (see
        :meth:`BimatrixInventor.effective_backend`)."""
        return self._policy.search_backend(game.num_players).mode

    def advise(self, game_id, game, agent, privacy) -> AdvicePackage:
        if not isinstance(game, ParticipationGame):
            raise ProtocolError("ParticipationInventor advises participation games")
        p = participation_equilibrium(
            game, prefer=self._prefer, policy=self._policy
        )
        advice = Advice(
            game_id=game_id,
            agent=agent,
            concept=SolutionConcept.SYMMETRIC_MIXED_NASH,
            proof_format=ProofFormat.INDIFFERENCE_IDENTITY,
            suggestion=p,
            proof={"identity": "eq5", "p": f"{p.numerator}/{p.denominator}"},
            inventor=self.name,
            backend=self.effective_backend(game),
        )
        return AdvicePackage(advice=advice)


class TwoFacedParticipationInventor(ParticipationInventor):
    """The multi-equilibrium cheat of Sect. 5.

    "The existence of multiple equilibria would allow a dishonest prover
    to send different probabilities to the players, with each probability
    corresponding to a different symmetric equilibrium."  Each advised p
    passes Eq. (5) individually — only the agents' cross-check catches
    the inconsistency.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self._flip = 0

    def advise(self, game_id, game, agent, privacy) -> AdvicePackage:
        if not isinstance(game, ParticipationGame):
            raise ProtocolError("ParticipationInventor advises participation games")
        roots = [
            p for p in symmetric_equilibria(game, policy=self._policy) if 0 < p < 1
        ]
        if len(roots) < 2:
            return super().advise(game_id, game, agent, privacy)
        p = roots[self._flip % len(roots)]
        self._flip += 1
        advice = Advice(
            game_id=game_id,
            agent=agent,
            concept=SolutionConcept.SYMMETRIC_MIXED_NASH,
            proof_format=ProofFormat.INDIFFERENCE_IDENTITY,
            suggestion=p,
            proof={"identity": "eq5", "p": f"{p.numerator}/{p.denominator}"},
            inventor=self.name,
            backend=self.effective_backend(game),
        )
        return AdvicePackage(advice=advice)


class CorrelatedInventor(GameInventor):
    """Advises a correlated device (welfare-maximal, from the exact LP).

    The Aumann contrast made executable: the device is *advised and
    verified*, not trusted — the agents check the obedience constraints
    themselves through the registry.
    """

    def advise(self, game_id, game, agent, privacy) -> AdvicePackage:
        from repro.core.advice import SolutionConcept as _SC
        from repro.equilibria.correlated import correlated_equilibrium_lp

        advice = Advice(
            game_id=game_id,
            agent=agent,
            concept=_SC.CORRELATED,
            proof_format=ProofFormat.EMPTY_PROOF,
            suggestion=correlated_equilibrium_lp(game),
            proof=None,
            inventor=self.name,
        )
        return AdvicePackage(advice=advice)


class ExtensiveFormInventor(GameInventor):
    """Advises the backward-induction plan of a sequential game."""

    def advise(self, game_id, game, agent, privacy) -> AdvicePackage:
        from repro.core.advice import SolutionConcept as _SC
        from repro.games.extensive import ExtensiveGame, backward_induction

        if not isinstance(game, ExtensiveGame):
            raise ProtocolError("ExtensiveFormInventor advises extensive-form games")
        strategy, __ = backward_induction(game)
        advice = Advice(
            game_id=game_id,
            agent=agent,
            concept=_SC.SUBGAME_PERFECT,
            proof_format=ProofFormat.EMPTY_PROOF,
            suggestion=strategy,
            proof=None,
            inventor=self.name,
        )
        return AdvicePackage(advice=advice)


class MisadvisingInventor(GameInventor):
    """Wraps an honest inventor and corrupts the suggestion.

    The proof payload is left untouched, so the corruption is exactly the
    kind a proof check must catch: a suggestion that no longer matches
    (or no longer satisfies) its own proof.
    """

    def __init__(self, name: str, inner: GameInventor, corrupt):
        super().__init__(name)
        self._inner = inner
        self._corrupt = corrupt

    def attach_solve_cache(self, cache) -> None:
        """The wrapped inventor does the solving, so it gets the cache."""
        self._inner.attach_solve_cache(cache)

    def advise(self, game_id, game, agent, privacy) -> AdvicePackage:
        import dataclasses

        package = self._inner.advise(game_id, game, agent, privacy)
        # replace() keeps every honest field (present and future) intact;
        # only the suggestion is corrupted and the blame redirected here.
        corrupted = dataclasses.replace(
            package.advice,
            suggestion=self._corrupt(package.advice.suggestion),
            inventor=self.name,
        )
        return AdvicePackage(advice=corrupted, prover=package.prover)


@dataclass
class AgentPolicy:
    """How an agent selects verifiers and reacts to verdicts."""

    verifier_count: int = 3
    adopt_on_majority: bool = True


@dataclass
class AuthorityAgent:
    """A registered agent: public identity, private role, selection policy."""

    name: str
    player_role: int | str = 0
    policy: AgentPolicy = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.policy is None:
            self.policy = AgentPolicy()
