"""The audit log: accountability for inventors, verifiers and agents.

The paper's discussion section (the Ron/Norton anecdote) makes auditing a
first-class feature: the rationality authority "produces a check-able
proof for the optimality of the suggestion ... and may be used (after
auditing Norton's actions) to blame Norton for not using the rationality
authority results to act rationally."  Likewise "actions of dishonest
game inventors, agents, and veriﬁers ... can be reported to a reputation
system that audits their actions."

The log is append-only with a logical clock; records carry an actor, an
event tag and free-form details.  Blame queries summarize who misbehaved
and how often.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any

# Event tags live in the machine-checked registry (audit_events.py);
# the blame helpers below consume these three.
from repro.core.audit_events import (
    EVENT_AGENT_BLAMED,
    EVENT_INVENTOR_BLAMED,
    EVENT_VERIFIER_BLAMED,
)

#: How many of the newest records the log keeps in memory.
AUDIT_WINDOW = 4096

_BLAME_EVENTS = frozenset(
    {EVENT_INVENTOR_BLAMED, EVENT_VERIFIER_BLAMED, EVENT_AGENT_BLAMED}
)


@dataclass(frozen=True, slots=True)
class AuditRecord:
    """One append-only audit entry."""

    clock: int
    session_id: str
    actor: str
    event: str
    details: dict[str, Any] = field(default_factory=dict)


class AuditLog:
    """Append-only audit trail with blame queries.

    Appends are serialized by a lock so the log stays consistent when
    the consultation service runs verifiers concurrently; the logical
    clock remains strictly increasing and gap-free in every mode.

    Memory keeps the newest :data:`AUDIT_WINDOW` records, which the
    record queries read; the clock and :meth:`blame_counts` are running
    counters over the log's whole lifetime.
    """

    def __init__(self):
        self._records: deque[AuditRecord] = deque(maxlen=AUDIT_WINDOW)
        self._clock = 0
        self._blame_counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def record(self, session_id: str, actor: str, event: str, **details) -> AuditRecord:
        with self._lock:
            self._clock += 1
            entry = AuditRecord(
                clock=self._clock,
                session_id=session_id,
                actor=actor,
                event=event,
                details=details,  # the call's own fresh kwargs dict
            )
            self._records.append(entry)
            if event in _BLAME_EVENTS:
                self._blame_counts[actor] = self._blame_counts.get(actor, 0) + 1
        return entry

    # ------------------------------------------------------------------
    # Blame helpers
    # ------------------------------------------------------------------

    def blame_inventor(self, session_id: str, inventor: str, reason: str) -> AuditRecord:
        """A rejected proof marks the inventor for blame."""
        return self.record(
            session_id, inventor, EVENT_INVENTOR_BLAMED, reason=reason
        )

    def blame_verifier(self, session_id: str, verifier: str, reason: str) -> AuditRecord:
        """A dissenting verifier (out-voted by the majority) is noted."""
        return self.record(
            session_id, verifier, EVENT_VERIFIER_BLAMED, reason=reason
        )

    def blame_agent(self, session_id: str, agent: str, reason: str) -> AuditRecord:
        """The Norton case: an agent ignored verified rational advice."""
        return self.record(session_id, agent, EVENT_AGENT_BLAMED, reason=reason)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def records(self) -> tuple[AuditRecord, ...]:
        """The window, oldest first, copied under the lock: iterating a
        deque that another thread appends to raises ``RuntimeError``."""
        with self._lock:
            return tuple(self._records)

    def events_for(self, actor: str) -> tuple[AuditRecord, ...]:
        return tuple(r for r in self.records if r.actor == actor)

    def events_of(self, event: str) -> tuple[AuditRecord, ...]:
        return tuple(r for r in self.records if r.event == event)

    def session(self, session_id: str) -> tuple[AuditRecord, ...]:
        return tuple(r for r in self.records if r.session_id == session_id)

    def blame_counts(self) -> dict[str, int]:
        """How many times each actor has been blamed, any blame kind,
        over the log's whole lifetime."""
        with self._lock:
            return dict(self._blame_counts)
