"""Bounded audit and bus windows: flat memory, exact lifetime figures.

An always-on authority writes audit records and bus messages without
end.  Both logs keep only their newest entries (``AUDIT_WINDOW``,
``BUS_WINDOW``), while every figure that covers a whole lifetime — the
audit clock, the blame counts, the byte counters — is a running
counter.  These tests pin both halves: memory stops growing once the
windows are full, and each lifetime figure equals an unbounded
reference the test keeps itself.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import sys
import threading
import tracemalloc

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit import AUDIT_WINDOW, AuditLog
from repro.core.audit_events import (
    EVENT_AGENT_BLAMED,
    EVENT_GAME_PUBLISHED,
    EVENT_INVENTOR_BLAMED,
    EVENT_VERIFIER_BLAMED,
)
from repro.core.authority import RationalityAuthority
from repro.core.bus import BUS_WINDOW, MessageBus
from repro.core.registry import standard_procedures
from repro.games.generators import random_bimatrix
from repro.server import ThreadedServer
from repro.server.wire import audit_payload
from repro.service import AuthorityService

BLAME_EVENTS = (EVENT_INVENTOR_BLAMED, EVENT_VERIFIER_BLAMED,
                EVENT_AGENT_BLAMED)

#: Games consulted round-robin by the soaks; one consult_many batch.
GAMES = 16

#: Consultations that turn both windows over once.  The bus window is
#: the slower one: a consultation sends 3 messages but writes at least
#: 6 audit records.
TURNOVER = math.ceil(BUS_WINDOW / 3 / GAMES) * GAMES

#: Retained bytes allowed per consultation once the windows are full.
#: With unbounded logs a warm consultation retained about 4.3 KB.
RETAINED_BOUND = 64


def _authority() -> RationalityAuthority:
    authority = RationalityAuthority(seed=31)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(
        BimatrixInventor("inv", method="support-enumeration")
    )
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for i in range(GAMES):
        authority.publish_game(
            "inv", f"g{i}", random_bimatrix(2, 2, seed=9100 + i)
        )
    return authority


def _game_ids() -> list[str]:
    return [f"g{i}" for i in range(GAMES)]


def _soak(consult_batch, audit: AuditLog, bus: MessageBus) -> int:
    """Turn both windows over once, then measure the traced growth of
    three more windows' worth of consultations (bytes)."""
    consult_batch()  # cold solves land in the cache
    tracemalloc.start()
    try:
        for _ in range(TURNOVER // GAMES):
            consult_batch()
        assert audit.records[0].clock > 1 and bus.log[0].sequence > 1
        clock, sequence = audit.records[-1].clock, bus.log[-1].sequence
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in range(3 * TURNOVER // GAMES):
            consult_batch()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    # Each window turned over at least three more times.
    assert audit.records[-1].clock - clock >= 3 * AUDIT_WINDOW
    assert bus.log[-1].sequence - sequence >= 3 * BUS_WINDOW
    return grown


class TestAuditWindow:
    def test_lifetime_figures_stay_exact_past_the_window(self):
        log = AuditLog()
        written = []  # the unbounded reference
        for i in range(AUDIT_WINDOW + 1500):
            if i % 97 == 0:
                entry = log.blame_verifier(f"s{i}", f"v{i % 5}", "dissent")
            elif i % 89 == 0:
                entry = log.blame_agent(f"s{i}", f"a{i % 3}", "ignored")
            elif i % 83 == 0:
                entry = log.blame_inventor(f"s{i}", "inv", "bad proof")
            else:
                entry = log.record(f"s{i % 13}", f"actor{i % 7}",
                                   EVENT_GAME_PUBLISHED, index=i)
            written.append(entry)
        # The clock is gap-free over every record ever written.
        assert [r.clock for r in written] == list(range(1, len(written) + 1))
        # The window holds exactly the newest records, in order.
        window = tuple(written[-AUDIT_WINDOW:])
        assert log.records == window
        # Blame counts cover the whole lifetime, evicted records included.
        expected: dict[str, int] = {}
        for record in written:
            if record.event in BLAME_EVENTS:
                expected[record.actor] = expected.get(record.actor, 0) + 1
        assert log.blame_counts() == expected
        in_window = sum(1 for r in window if r.event in BLAME_EVENTS)
        assert in_window < sum(expected.values())
        # The record queries read the window.
        assert log.events_of(EVENT_VERIFIER_BLAMED) == tuple(
            r for r in window if r.event == EVENT_VERIFIER_BLAMED
        )
        assert log.events_for("actor3") == tuple(
            r for r in window if r.actor == "actor3"
        )
        assert log.session("s5") == tuple(
            r for r in window if r.session_id == "s5"
        )

    def test_blame_counts_are_a_copy(self):
        log = AuditLog()
        log.blame_agent("s1", "norton", "ignored advice")
        counts = log.blame_counts()
        counts["norton"] = 99
        assert log.blame_counts() == {"norton": 1}


class TestBusWindow:
    def test_byte_counters_stay_exact_past_the_window(self):
        bus = MessageBus()
        for name in ("a", "b", "c"):
            bus.register(name)
        routes = (("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"))
        sent = []  # the unbounded reference
        for i in range(BUS_WINDOW + 1500):
            sender, recipient = routes[i % len(routes)]
            sent.append(bus.send(sender, recipient, f"kind{i % 3}",
                                 {"index": i, "pad": "x" * (i % 17)}))
        assert [m.sequence for m in sent] == list(range(1, len(sent) + 1))
        window = tuple(sent[-BUS_WINDOW:])
        assert bus.log == window
        assert bus.total_bytes() == sum(m.size_bytes() for m in sent)
        for name in ("a", "b", "c"):
            assert bus.bytes_sent(name) == sum(
                m.size_bytes() for m in sent if m.sender == name
            )
            assert bus.bytes_received(name) == sum(
                m.size_bytes() for m in sent if m.recipient == name
            )
        assert bus.messages_of_kind("kind1") == tuple(
            m for m in window if m.kind == "kind1"
        )
        assert bus.messages_between("a", "c") == tuple(
            m for m in window if (m.sender, m.recipient) == ("a", "c")
        )
        assert bus.conversation(["a", "b"]) == tuple(
            m for m in window if {m.sender, m.recipient} <= {"a", "b"}
        )


class TestWindowConcurrency:
    def test_readers_never_see_a_mutating_window(self):
        """Iterating a deque while another thread appends raises
        ``RuntimeError``; the queries copy the window under the lock."""
        log = AuditLog()
        bus = MessageBus()
        bus.register("a")
        bus.register("b")
        stop = threading.Event()
        errors: list[BaseException] = []

        def read() -> None:
            try:
                while not stop.is_set():
                    log.events_of(EVENT_GAME_PUBLISHED)
                    log.events_for("writer")
                    bus.messages_of_kind("tick")
                    bus.conversation(["a", "b"])
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=read) for _ in range(3)]
        try:
            for reader in readers:
                reader.start()
            for i in range(2 * AUDIT_WINDOW):
                log.record("s", "writer", EVENT_GAME_PUBLISHED, index=i)
                bus.send("a", "b", "tick", {"index": i})
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert errors == []
        assert log.records[-1].clock == 2 * AUDIT_WINDOW
        assert bus.log[-1].sequence == 2 * AUDIT_WINDOW


class TestFlatMemory:
    def test_in_process_consultations_retain_no_memory(self):
        authority = _authority()
        service = AuthorityService(authority)

        def consult_batch() -> None:
            futures = service.submit_many("jane", _game_ids())
            service.drain()
            assert all(f.result().majority.accepted for f in futures)

        grown = _soak(consult_batch, authority.audit, authority.bus)
        assert grown < 3 * TURNOVER * RETAINED_BOUND, grown
        service.close()
        authority.close()

    def test_http_consultations_retain_no_memory(self):
        authority = _authority()
        service = AuthorityService(authority)
        with ThreadedServer(service) as threaded:
            conn = http.client.HTTPConnection(
                "127.0.0.1", threaded.port, timeout=60
            )
            body = json.dumps({"agent": "jane", "game_ids": _game_ids()})

            def consult_batch() -> None:
                conn.request("POST", "/consult_many", body=body)
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                assert resp.status == 200 and payload["count"] == GAMES

            try:
                grown = _soak(consult_batch, authority.audit, authority.bus)
            finally:
                conn.close()
        assert grown < 3 * TURNOVER * RETAINED_BOUND, grown
        authority.close()


class TestAuditEndpointWindow:
    def test_oldest_clock_is_null_for_an_empty_window(self):
        body = audit_payload(())
        assert body["oldest_clock"] is None
        assert body["total"] == body["returned"] == 0

    def test_since_below_the_window_shows_the_gap(self):
        authority = _authority()
        service = AuthorityService(authority)
        with ThreadedServer(service) as threaded:
            conn = http.client.HTTPConnection(
                "127.0.0.1", threaded.port, timeout=60
            )

            def get_audit(query: str) -> dict:
                conn.request("GET", f"/audit?{query}")
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                assert resp.status == 200
                return payload

            try:
                # Nothing evicted yet: the window starts at clock 1.
                body = get_audit("limit=0")
                assert body["oldest_clock"] == 1
                last_seen = authority.audit.records[-1].clock
                for i in range(AUDIT_WINDOW + 100):
                    authority.audit.record(
                        "-", "inv", EVENT_GAME_PUBLISHED, index=i
                    )
                newest = authority.audit.records[-1].clock
                body = get_audit(f"since={last_seen}")
            finally:
                conn.close()
        # A client tailing from last_seen missed the records between
        # it and the window's oldest clock.
        oldest = body["oldest_clock"]
        assert oldest > last_seen + 1
        assert oldest == newest - AUDIT_WINDOW + 1
        assert body["total"] == body["returned"] == AUDIT_WINDOW
        clocks = [record["clock"] for record in body["records"]]
        assert clocks == list(range(oldest, newest + 1))
        authority.close()
