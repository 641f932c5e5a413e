"""Wire shapes for the HTTP front-end: exact JSON, no live objects.

The HTTP boundary follows the same canonicalization discipline as the
on-disk formats (:mod:`repro.service.persistence`) and the bus wire
summaries (:func:`repro.core.session.advice_wire_summary`): every exact
rational crosses the wire as a ``"num/den"`` string, never as a float —
a client that stores a response and replays it after a server restart
can compare advice byte for byte.  Live objects (provers, games,
futures) never cross; what the client gets is the advice summary, the
majority tally and the telemetry scalars.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Any

from repro.core.session import SessionOutcome, advice_wire_summary
from repro.service.futures import ConsultationFuture
from repro.service.persistence import encode_fraction


def jsonable(value: Any) -> Any:
    """Recursively coerce a value into exact, JSON-serializable shapes.

    Fractions become canonical ``"num/den"`` strings; tuples become
    lists; enums their values; anything else unknown degrades to
    ``repr`` — the wire prefers a lossy-but-faithful string over a
    lossy float or a crash.  Ints, floats (telemetry only), bools,
    strings and None pass through.
    """
    if isinstance(value, Fraction):
        return encode_fraction(value)
    if isinstance(value, enum.Enum):
        return jsonable(value.value)
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def exact_default(value: Any) -> Any:
    """``json.dumps`` hook for response bodies: a Fraction becomes its
    canonical ``"num/den"`` string and an enum its value, as
    :func:`jsonable` would make them; anything else JSON lacks is a
    ``TypeError``."""
    if isinstance(value, Fraction):
        return encode_fraction(value)
    if isinstance(value, enum.Enum):
        return value.value
    raise TypeError(f"cannot encode {type(value).__name__} in a response")


def outcome_payload(future: ConsultationFuture,
                    outcome: SessionOutcome) -> dict[str, Any]:
    """One resolved consultation → its response body.

    The advice block is the bus wire summary; its Fractions are left
    for the body's one ``json.dumps`` (with :func:`exact_default`) to
    write as ``"num/den"`` strings.  The ``latency_ms`` is the future's
    end-to-end (admission → resolution) service latency, which over
    HTTP sits inside the request's own wall time.
    """
    return {
        "future_id": future_id(future),
        "state": "resolved",
        "session_id": outcome.session_id,
        "agent": future.agent,
        "game_id": future.game_id,
        "advice": advice_wire_summary(outcome.advice),
        "inventor": outcome.advice.inventor,
        "majority": {
            "accepted": outcome.majority.accepted,
            "accept_votes": outcome.majority.accept_votes,
            "reject_votes": outcome.majority.reject_votes,
        },
        "adopted": outcome.adopted,
        "concept_notice": outcome.concept_notice,
        "latency_ms": future.latency_ms,
        "queue_depth": future.queue_depth,
    }


def future_id(future: ConsultationFuture) -> str:
    """The wire name of a consultation (``future_id`` in its body)."""
    return f"f{future.submission_id}"


def failure_payload(future: ConsultationFuture,
                    exc: BaseException) -> dict[str, Any]:
    """The body for a consultation whose session raised.

    ``error_type`` carries the exception class name alone so clients
    can switch on the typed outcome (``DeadlineExceeded``,
    ``ProofRejected``, ...) without parsing the message; a future that
    carried a deadline also reports it.
    """
    payload = {
        "future_id": future_id(future),
        "state": "failed",
        "agent": future.agent,
        "game_id": future.game_id,
        "error": f"{type(exc).__name__}: {exc}",
        "error_type": type(exc).__name__,
    }
    if future.deadline_ms is not None:
        payload["deadline_ms"] = future.deadline_ms
    return payload


def error_payload(message: str, **extra: Any) -> dict[str, Any]:
    """A uniform error body: ``{"error": ..., ...hints}``."""
    body = {"error": message}
    body.update(extra)
    return body


def audit_payload(records, event: str | None = None,
                  since: int | None = None,
                  limit: int | None = None) -> dict[str, Any]:
    """The audit window → the ``GET /audit`` body (filtered, capped).

    ``records`` is the log's window, oldest first.  ``since`` is an
    exclusive logical-clock lower bound, so a client can tail the log
    incrementally (``?since=<last seen clock>``); ``oldest_clock`` (null
    for an empty window) tells it whether records it never saw have
    already left the window.  ``limit`` (non-negative) keeps the
    *latest* matching records; ``total`` counts every match.
    """
    matching = [
        record for record in records
        if (event is None or record.event == event)
        and (since is None or record.clock > since)
    ]
    total = len(matching)
    if limit is not None:
        matching = matching[max(0, total - limit):]
    return {
        "oldest_clock": records[0].clock if records else None,
        "total": total,
        "returned": len(matching),
        "records": [
            {
                "clock": record.clock,
                "session_id": record.session_id,
                "actor": record.actor,
                "event": record.event,
                "details": jsonable(record.details),
            }
            for record in matching
        ],
    }
