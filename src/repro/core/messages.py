"""Messages on the authority's bus.

Every inter-party communication in the framework — game publication,
advice requests, advice, verdicts — is an explicit :class:`Message` with
a canonical byte size, so experiments can account the framework's
communication overhead exactly (experiment E10).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from repro.errors import ProtocolError


def _exact(value: Any) -> str:
    """``json.dumps`` hook: a Fraction crosses as ``"p/q"``; nothing
    else that JSON lacks may cross the bus."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise TypeError(f"cannot encode {type(value).__name__} on the bus")


@dataclass(frozen=True, slots=True)
class Message:
    """One bus message.

    ``kind`` is a dotted protocol tag (e.g. ``"advice.request"``);
    ``payload`` must be JSON with string keys, plus exact Fractions.
    """

    sender: str
    recipient: str
    kind: str
    payload: Any
    sequence: int = 0

    def canonical_payload(self) -> str:
        try:
            return json.dumps(
                self.payload, sort_keys=True, separators=(",", ":"),
                default=_exact,
            )
        except Exception as exc:  # noqa: BLE001 - normalize to protocol error
            raise ProtocolError(f"unencodable payload in {self.kind}: {exc}") from exc

    def size_bytes(self) -> int:
        """Canonical payload size — what the bus charges."""
        return len(self.canonical_payload().encode("utf-8"))
