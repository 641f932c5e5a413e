"""The message bus: the distributed-system substrate of Fig. 1.

The inventor, the agents and the verifiers are separate parties; they
interact only by sending messages.  The bus is deterministic and
in-process but enforces the separation: parties must be registered,
messages are logged in order, and per-party byte counters expose the
communication cost of every protocol built on top.  The log keeps the
newest :data:`BUS_WINDOW` messages; the byte counters cover every one.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from typing import Callable, Iterable

from repro.core.messages import Message
from repro.errors import ProtocolError

#: Optional delivery hook: called with each delivered message.
DeliveryHook = Callable[[Message], None]

#: How many of the newest messages the log keeps in memory.
BUS_WINDOW = 4096


class MessageBus:
    """In-process, ordered, byte-accounted message delivery."""

    def __init__(self):
        self._endpoints: dict[str, DeliveryHook | None] = {}
        self._log: deque[Message] = deque(maxlen=BUS_WINDOW)
        self._bytes_sent: dict[str, int] = defaultdict(int)
        self._bytes_received: dict[str, int] = defaultdict(int)
        self._total_bytes = 0
        self._sequence = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, name: str, hook: DeliveryHook | None = None) -> None:
        """Register a party; ``hook`` (if any) observes its inbound messages."""
        if name in self._endpoints:
            raise ProtocolError(f"endpoint {name!r} already registered")
        self._endpoints[name] = hook

    def is_registered(self, name: str) -> bool:
        return name in self._endpoints

    def endpoints(self) -> tuple[str, ...]:
        return tuple(self._endpoints)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, sender: str, recipient: str, kind: str, payload) -> Message:
        """Send one message; returns the sequenced, logged message."""
        if sender not in self._endpoints:
            raise ProtocolError(f"unknown sender {sender!r}")
        if recipient not in self._endpoints:
            raise ProtocolError(f"unknown recipient {recipient!r}")
        # Sequencing, logging and byte accounting are one atomic step so
        # concurrent verification sessions keep the log gap-free.
        with self._lock:
            self._sequence += 1
            message = Message(
                sender=sender,
                recipient=recipient,
                kind=kind,
                payload=payload,
                sequence=self._sequence,
            )
            size = message.size_bytes()  # raises ProtocolError on bad payloads
            self._log.append(message)
            self._bytes_sent[sender] += size
            self._bytes_received[recipient] += size
            self._total_bytes += size
        hook = self._endpoints[recipient]
        if hook is not None:
            hook(message)
        return message

    # ------------------------------------------------------------------
    # Accounting and inspection
    # ------------------------------------------------------------------

    @property
    def log(self) -> tuple[Message, ...]:
        """The window, oldest first, copied under the lock: iterating a
        deque that another thread appends to raises ``RuntimeError``."""
        with self._lock:
            return tuple(self._log)

    def messages_between(self, sender: str, recipient: str) -> tuple[Message, ...]:
        return tuple(
            m for m in self.log if m.sender == sender and m.recipient == recipient
        )

    def messages_of_kind(self, kind: str) -> tuple[Message, ...]:
        return tuple(m for m in self.log if m.kind == kind)

    def bytes_sent(self, name: str) -> int:
        return self._bytes_sent[name]

    def bytes_received(self, name: str) -> int:
        return self._bytes_received[name]

    def total_bytes(self) -> int:
        """Bytes of every message the bus has carried."""
        return self._total_bytes

    def conversation(self, parties: Iterable[str]) -> tuple[Message, ...]:
        """Messages in the window whose sender and recipient are both in
        ``parties``."""
        party_set = set(parties)
        return tuple(
            m
            for m in self.log
            if m.sender in party_set and m.recipient in party_set
        )
