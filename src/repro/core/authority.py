"""The rationality authority facade.

Owns the shared infrastructure of Fig. 1 — the bus, the verifier
registry, the reputation store, the audit log — plus the published games
and registered parties, and exposes the one-call consultation flow:

    authority = RationalityAuthority(seed=...)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=ROW))
    authority.publish_game(inventor.name, "g1", game)
    outcome = authority.consult("jane", "g1", privacy="private")

It also hosts the cross-check of Sect. 5 ("the players can cross-check
that the prover has sent the same probability p to each of them") and
the statistics audit hook of footnote 3.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from repro.core.actors import AuthorityAgent, GameInventor
from repro.core.advice import Advice
from repro.core.audit import AuditLog
from repro.core.audit_events import (
    EVENT_CROSS_CHECK,
    EVENT_GAME_PUBLISHED,
    EVENT_STATISTICS_AUDIT,
)
from repro.core.bus import MessageBus
from repro.core.registry import VerificationProcedure, VerifierRegistry
from repro.core.reputation import ReputationStore
from repro.core.session import ConsultationSession, SessionOutcome
from repro.crypto.signatures import KeyRegistry
from repro.errors import ProtocolError
from repro.games.base import Game
from repro.online.inventor_stats import SignedStatistic, audit_statistics
from repro.rng import make_rng


@dataclass(frozen=True)
class CrossCheckOutcome:
    """Result of the Sect. 5 same-p-for-everyone check."""

    consistent: bool
    probabilities: tuple[Fraction, ...]
    inventors: tuple[str, ...]


class RationalityAuthority:
    """The infrastructure tying inventors, agents and verifiers together."""

    AUTHORITY_NAME = "rationality-authority"

    def __init__(self, seed: int = 0):
        self._seed = seed
        self.bus = MessageBus()
        self.registry = VerifierRegistry()
        self.reputation = ReputationStore()
        self.audit = AuditLog()
        self.keys = KeyRegistry()
        self._games: dict[str, Game] = {}
        self._game_owner: dict[str, str] = {}
        self._inventors: dict[str, GameInventor] = {}
        self._agents: dict[str, AuthorityAgent] = {}
        self._session_counter = 0
        self._service = None  # lazily created AuthorityService
        self._service_lock = threading.Lock()
        self.bus.register(self.AUTHORITY_NAME)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register_inventor(self, inventor: GameInventor) -> None:
        if inventor.name in self._inventors:
            raise ProtocolError(f"inventor {inventor.name!r} already registered")
        self._inventors[inventor.name] = inventor
        self.bus.register(inventor.name)
        if not self.keys.is_registered(inventor.name):
            self.keys.register(inventor.name, rng=make_rng(self._seed, inventor.name))

    def register_agent(self, agent: AuthorityAgent) -> None:
        if agent.name in self._agents:
            raise ProtocolError(f"agent {agent.name!r} already registered")
        self._agents[agent.name] = agent
        self.bus.register(agent.name)

    def register_verifier(self, procedure: VerificationProcedure) -> None:
        self.registry.add(procedure)
        self.bus.register(procedure.name)
        self.reputation.ensure(procedure.name)

    def register_verifiers(self, procedures: Sequence[VerificationProcedure]) -> None:
        for procedure in procedures:
            self.register_verifier(procedure)

    # ------------------------------------------------------------------
    # Games
    # ------------------------------------------------------------------

    def publish_game(self, inventor_name: str, game_id: str, game: Game) -> None:
        if inventor_name not in self._inventors:
            raise ProtocolError(f"unknown inventor {inventor_name!r}")
        if game_id in self._games:
            raise ProtocolError(f"game {game_id!r} already published")
        self._games[game_id] = game
        self._game_owner[game_id] = inventor_name
        description = game.describe()
        self.bus.send(
            inventor_name,
            self.AUTHORITY_NAME,
            "game.publish",
            {"game_id": game_id, "description": description},
        )
        self.audit.record(
            "-", inventor_name, EVENT_GAME_PUBLISHED,
            game_id=game_id, description=description,
        )

    def game(self, game_id: str) -> Game:
        try:
            return self._games[game_id]
        except KeyError:
            raise ProtocolError(f"unknown game {game_id!r}") from None

    def inventor_of(self, game_id: str) -> GameInventor:
        self.game(game_id)
        return self._inventors[self._game_owner[game_id]]

    @property
    def inventors(self) -> tuple[GameInventor, ...]:
        """Every registered inventor (the service attaches caches here)."""
        return tuple(self._inventors.values())

    def agent(self, name: str) -> AuthorityAgent:
        try:
            return self._agents[name]
        except KeyError:
            raise ProtocolError(f"unknown agent {name!r}") from None

    # ------------------------------------------------------------------
    # Consultation
    # ------------------------------------------------------------------

    def open_session(self, agent_name: str, game_id: str) -> ConsultationSession:
        agent = self.agent(agent_name)
        game = self.game(game_id)
        self._session_counter += 1
        session_id = f"session-{self._session_counter:04d}"
        rng = make_rng(self._seed, session_id)
        return ConsultationSession(
            session_id=session_id,
            bus=self.bus,
            registry=self.registry,
            reputation=self.reputation,
            audit=self.audit,
            game_id=game_id,
            game=game,
            agent=agent,
            rng=rng,
        )

    @property
    def service(self):
        """The future-based consultation surface over this authority.

        Created lazily (one
        :class:`~repro.service.service.AuthorityService` per authority,
        with a fresh cross-run
        :class:`~repro.service.cache.SolveCache` attached to every
        cacheable inventor).  Hosts that want different service
        parameters — a shared cache, a high-water mark —
        construct their own ``AuthorityService(authority, ...)``
        instead; the synchronous :meth:`consult` shim always uses this
        default instance.  Several games are several ``submit`` calls:
        each returns its future at once, and the first ``result()``
        drains them all.
        """
        with self._service_lock:
            if self._service is None:
                from repro.service.service import AuthorityService

                self._service = AuthorityService(self)
        return self._service

    def consult(
        self, agent_name: str, game_id: str, privacy: str = "open"
    ) -> SessionOutcome:
        """The full flow: request, verify with the majority, conclude.

        This is a thin synchronous shim over the consultation service:
        ``self.service.submit(...).result()``.  Hosts that want
        futures or a per-request deadline use :attr:`service`
        directly.
        """
        return self.service.submit(agent_name, game_id, privacy=privacy).result()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the consultation service, if one was started.

        The service's queue drains and a path-bound cache is saved (see
        :meth:`~repro.service.service.AuthorityService.close`).  Hosts
        should ``close()`` the authority — or use it as a context
        manager — when consultations are done.  Closing is idempotent,
        never final: the authority stays usable afterwards.
        """
        if self._service is not None:
            self._service.close()

    def __enter__(self) -> "RationalityAuthority":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Sect. 5 cross-check and footnote-3 statistics audit
    # ------------------------------------------------------------------

    def cross_check_symmetric(self, advices: Sequence[Advice]) -> CrossCheckOutcome:
        """Check that every agent was advised the *same* probability p.

        Individually valid advices can still be mutually inconsistent
        when the game has several symmetric equilibria; the cross-check
        is the agents' only defence, and a failed one blames the
        inventor(s).
        """
        if not advices:
            raise ProtocolError("cross-check needs at least one advice")
        probabilities = tuple(Fraction(a.suggestion) for a in advices)
        inventors = tuple(sorted({a.inventor for a in advices if a.inventor}))
        consistent = len(set(probabilities)) == 1
        session_id = f"cross-check-{advices[0].game_id}"
        self.audit.record(
            session_id, self.AUTHORITY_NAME, EVENT_CROSS_CHECK,
            consistent=consistent,
            probabilities=[str(p) for p in probabilities],
        )
        if not consistent:
            for name in inventors:
                self.audit.blame_inventor(
                    session_id, name,
                    "sent different equilibrium probabilities to different agents",
                )
        return CrossCheckOutcome(
            consistent=consistent, probabilities=probabilities, inventors=inventors
        )

    def audit_published_statistics(
        self,
        inventor_name: str,
        records: Sequence[SignedStatistic],
        observed_loads: Sequence[float],
    ):
        """Footnote 3: hold the inventor responsible for its published stats."""
        findings = audit_statistics(self.keys, records, observed_loads)
        self.audit.record(
            f"stats-audit-{inventor_name}", inventor_name, EVENT_STATISTICS_AUDIT,
            findings=len(findings),
        )
        if findings:
            self.audit.blame_inventor(
                f"stats-audit-{inventor_name}", inventor_name,
                f"published statistics failed audit in {len(findings)} round(s)",
            )
        return findings
