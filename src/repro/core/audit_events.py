"""The audit-event registry: every event name, in one place, documented.

The audit log is the accountability spine of the whole system — the
paper's discussion section makes "report ... to a reputation system that
audits their actions" a first-class feature — which means the *names* of
audit events are part of the public contract: tests assert on them,
operators filter ``GET /audit?event=`` by them, and the blame queries
aggregate over them.  Scattering those names as string literals across
nine PRs' worth of modules made typos undetectable (a misspelled event
silently records under a name nobody queries).

This module is the single source of truth.  Each event is declared once
as an ``EVENT_*`` constant and registered in :data:`REGISTRY` with a
one-line description of when it fires.  The static linter
(``python -m repro.devtools.lint``, rule R3) machine-checks the rest of
the tree against it: ``record(...)`` call sites must use these constants
(never raw literals), and every constant must be registered and
documented here.

Adding an event is a three-line change in this file: define the
constant, add the REGISTRY entry, and the linter keeps everyone honest
from then on.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Consultation protocol (the paper's gamesman/inventor/verifier loop)
# ----------------------------------------------------------------------
EVENT_GAME_PUBLISHED = "game.published"
EVENT_CROSS_CHECK = "advice.cross-check"

# ----------------------------------------------------------------------
# Blame and statistics (the Ron/Norton accountability trail)
# ----------------------------------------------------------------------
EVENT_INVENTOR_BLAMED = "blame.inventor"
EVENT_VERIFIER_BLAMED = "blame.verifier"
EVENT_AGENT_BLAMED = "blame.agent"
EVENT_RULE_VIOLATION = "gameauthority.violation"
EVENT_STATISTICS_AUDIT = "statistics.audit"

# ----------------------------------------------------------------------
# Service core (admission, drain, deadlines)
# ----------------------------------------------------------------------
EVENT_SERVICE_COMPLETED = "service.consultation.completed"
EVENT_CALLBACK_FAILED = "service.callback.failed"
EVENT_BACKPRESSURE = "service.admission.backpressure"
EVENT_DEADLINE_EXCEEDED = "service.deadline.exceeded"

# ----------------------------------------------------------------------
# Persistent cache (warm state on disk)
# ----------------------------------------------------------------------
EVENT_CACHE_LOADED = "cache.load.completed"
EVENT_CACHE_LOAD_REJECTED = "cache.load.rejected"
EVENT_CACHE_SAVED = "cache.saved"

# ----------------------------------------------------------------------
# HTTP server (front-end lifecycle and durability)
# ----------------------------------------------------------------------
EVENT_SERVER_STARTED = "server.started"
EVENT_SERVER_SHUTDOWN = "server.shutdown.completed"
EVENT_SERVER_PUMP_FAILED = "server.pump.failed"
EVENT_DURABILITY_DEGRADED = "server.durability.degraded"


#: The machine-checked catalogue: event name -> when it fires.  The
#: linter's R3 rule requires every ``EVENT_*`` constant in this module
#: to appear here with a non-empty description, and every audit-log
#: ``record(...)`` call site in ``src/`` to spell its event via one of
#: these constants.
REGISTRY: dict[str, str] = {
    EVENT_GAME_PUBLISHED:
        "An inventor registered a game with the authority.",
    EVENT_CROSS_CHECK:
        "A second-opinion consultation compared two inventors' advice.",
    EVENT_INVENTOR_BLAMED:
        "A rejected proof marked the inventor for blame.",
    EVENT_VERIFIER_BLAMED:
        "A dissenting verifier was out-voted by the majority.",
    EVENT_AGENT_BLAMED:
        "The Norton case: an agent ignored verified rational advice.",
    EVENT_RULE_VIOLATION:
        "The game authority caught a rule violation in play.",
    EVENT_STATISTICS_AUDIT:
        "A statistical audit of an inventor's advice stream ran.",
    EVENT_SERVICE_COMPLETED:
        "A consultation's future resolved; the one record of it, with "
        "the agent as actor: game_id, privacy, the advice's inventor, "
        "concept, proof_format, backend, cache and solve_ms, votes as "
        "(verifier, accepted, reason), accepted, verify_ms, adopted, "
        "queue_depth and latency_ms — or failed and error_type.",
    EVENT_CALLBACK_FAILED:
        "A future's done-callback raised; surfaced instead of swallowed.",
    EVENT_BACKPRESSURE:
        "An admission was shed at the high-water mark.",
    EVENT_DEADLINE_EXCEEDED:
        "A consultation's wall-clock budget lapsed; the solve was "
        "abandoned.",
    EVENT_CACHE_LOADED:
        "A service with a state directory recovered its journal: "
        "entries (what the cache then holds) and the load report as "
        "journal_path, journal_accepted, journal_reason, "
        "journal_profiles, journal_frames and journal_rejected.",
    EVENT_CACHE_LOAD_REJECTED:
        "A cache file or journal frame failed a tamper/lattice check.",
    EVENT_CACHE_SAVED:
        "A service's close() compacted its journal: path and entries.",
    EVENT_SERVER_STARTED:
        "The HTTP front-end bound its port and started serving.",
    EVENT_SERVER_SHUTDOWN:
        "A graceful shutdown drained, flushed, and compacted the "
        "journal.",
    EVENT_SERVER_PUMP_FAILED:
        "One background pump iteration failed (counted, backed off).",
    EVENT_DURABILITY_DEGRADED:
        "A journal append failed, so the persister compacted at once "
        "and stays degraded until an append lands (kind degraded, once "
        "per episode), or a compaction failed (kind snapshot-failed).",
}


def is_registered(event: str) -> bool:
    """Whether ``event`` is a known, documented audit event name."""
    return event in REGISTRY


def describe(event: str) -> str:
    """The one-line description of a registered event name."""
    return REGISTRY[event]

