"""The HTTP front-end: endpoints, backpressure codes, graceful stop.

Everything here drives a real socket — :class:`ThreadedServer` binds an
ephemeral port on localhost and the tests speak actual HTTP/1.1 through
``http.client`` — but stays in-process so the suite can also reach the
server's service and audit log directly for assertions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import http.client
import logging
import os
import pathlib
import re
import socket
import threading
import time

import pytest

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import (
    EVENT_BACKPRESSURE,
    EVENT_SERVER_SHUTDOWN,
    EVENT_SERVER_STARTED,
    EVENT_SERVICE_COMPLETED,
)
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.server import ThreadedServer, WriteBehindPersister, state_path
from repro.server.__main__ import DEFAULT_AGENT, build_demo_authority, parse_args
from repro.server.app import MAX_BODY_BYTES, SHUTDOWN_GRACE_S
from repro.service import AuthorityService, SolveCache, faults
from repro.service.persistence import read_state_file

GAMES = 6


def build_authority(games: int = GAMES) -> RationalityAuthority:
    authority = RationalityAuthority(seed=19)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(
        BimatrixInventor("inv", method="support-enumeration", backend="auto")
    )
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for i in range(games):
        base = random_bimatrix(3, 3, seed=8200 + i)
        authority.publish_game(
            "inv", f"g{i}", BimatrixGame(base.row_matrix, base.column_matrix)
        )
    return authority


class Client:
    """A minimal keep-alive JSON client over http.client."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=60
        )

    def request(self, method: str, path: str, body=None):
        payload = None if body is None else json.dumps(body)
        self.conn.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json"},
        )
        resp = self.conn.getresponse()
        data = json.loads(resp.read())
        return resp.status, data, dict(resp.getheaders())

    def close(self):
        self.conn.close()


def raw_consult(game_id: str) -> bytes:
    """The bytes of one keep-alive ``POST /consult`` of ``game_id``."""
    body = json.dumps({"agent": "jane", "game_id": game_id}).encode()
    return b"POST /consult HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (
        len(body), body,
    )


@pytest.fixture()
def server():
    service = AuthorityService(build_authority())
    with ThreadedServer(service) as threaded:
        yield threaded
    service.authority.close()


@pytest.fixture()
def client(server):
    c = Client(server.port)
    yield c
    c.close()


class TestEndpoints:
    def test_healthz_and_index(self, client):
        status, body, _ = client.request("GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert body["ready"] is True
        status, body, _ = client.request("GET", "/")
        assert status == 200 and "POST /consult" in body["endpoints"]
        assert "GET /readyz" in body["endpoints"]

    def test_readyz_reports_ready_when_serving(self, client, server):
        status, body, _ = client.request("GET", "/readyz")
        assert status == 200 and body["ready"] is True
        # Liveness and readiness split: flipping readiness off turns
        # /readyz into a 503 with a retry hint while /healthz stays 200.
        server.server._ready = False
        try:
            status, body, headers = client.request("GET", "/readyz")
            assert status == 503 and body["ready"] is False
            assert headers.get("Retry-After") == "2"
            status, body, _ = client.request("GET", "/healthz")
            assert status == 200
        finally:
            server.server._ready = True

    def test_consult_wait_returns_exact_advice(self, client):
        status, body, _ = client.request(
            "POST", "/consult", {"agent": "jane", "game_id": "g0"}
        )
        assert status == 200
        assert body["state"] == "resolved"
        assert body["majority"]["accepted"] is True
        assert body["adopted"] is True
        # Exact wire discipline: every probability is a num/den string.
        assert body["advice"]["suggestion"]
        for prob in body["advice"]["suggestion"]:
            assert isinstance(prob, str) and "/" in prob
        assert body["latency_ms"] >= 0

    @pytest.mark.parametrize("extra", [
        {"mode": "future"}, {"timeout": 0}, {"mode": "nope"},
    ], ids=["mode-future", "timeout-0", "mode-unknown"])
    def test_a_consult_always_answers_with_its_outcome(self, client, extra):
        # One request, one answer: fields of the retired poll flow are
        # ignored like any other unknown field.
        status, body, _ = client.request(
            "POST", "/consult", {"agent": "jane", "game_id": "g1", **extra}
        )
        assert status == 200 and body["state"] == "resolved"
        assert body["game_id"] == "g1" and body["majority"]["accepted"]
        assert body["future_id"].startswith("f") and body["latency_ms"] >= 0

    @pytest.mark.parametrize("method, path", [
        ("POST", "/consult_many"), ("GET", "/futures/f1"),
        ("GET", "/futures/f1?wait=1"), ("POST", "/admin/flush"),
    ], ids=["consult-many", "futures", "futures-wait", "admin-flush"])
    def test_retired_routes_are_404(self, client, server, method, path):
        body = {"agent": "jane", "game_ids": ["g0"]} \
            if path == "/consult_many" else None
        status, reply, _ = client.request(method, path, body)
        assert status == 404 and "no route" in reply["error"]
        service = server.server._service
        assert (service.pending_count, service.completed_count) == (0, 0)

    def test_readme_table_names_the_served_routes(self, client):
        # The README's endpoint table and the index list the same
        # routes, and each of them is routed: not a 404, not a 405.
        readme = pathlib.Path(__file__).parent.parent / "README.md"
        table = readme.read_text(encoding="utf-8").split(
            "| Method & path", 1
        )[1].split("\n\n", 1)[0]
        documented = re.findall(r"^\| `([A-Z]+ /[^`]*)`", table, re.M)
        status, index, _ = client.request("GET", "/")
        assert status == 200
        assert sorted(documented) == sorted(index["endpoints"])
        for route in documented:
            method, path = route.split(" ", 1)
            body = {"agent": "jane", "game_id": "g0"} \
                if method == "POST" else None
            status, _, _ = client.request(method, path, body)
            assert status not in (404, 405), route

    def test_audit_endpoint_filters_and_tails(self, client):
        client.request("POST", "/consult", {"agent": "jane", "game_id": "g0"})
        status, body, _ = client.request(
            "GET", f"/audit?event={EVENT_SERVER_STARTED}"
        )
        assert status == 200 and body["returned"] == 1
        record = body["records"][0]
        assert record["event"] == EVENT_SERVER_STARTED
        # since= is an exclusive logical-clock bound: tailing past the
        # last clock returns nothing.
        status, body, _ = client.request(
            "GET", f"/audit?since={record['clock']}&event={EVENT_SERVER_STARTED}"
        )
        assert body["returned"] == 0
        status, body, _ = client.request("GET", "/audit?limit=2")
        assert body["returned"] == 2 and body["total"] >= 2
        # limit=0 returns no records but still counts the matches.
        status, body, _ = client.request("GET", "/audit?limit=0")
        assert status == 200
        assert body["returned"] == 0 and body["records"] == []
        assert body["total"] >= 2
        status, body, _ = client.request("GET", "/audit?limit=-1")
        assert status == 400 and "limit" in body["error"]
        # Nothing has left the window yet: it starts at clock 1.
        status, body, _ = client.request("GET", "/audit")
        assert body["oldest_clock"] == 1

    def test_stats_shape(self, client):
        client.request("POST", "/consult", {"agent": "jane", "game_id": "g2"})
        status, body, _ = client.request("GET", "/stats")
        assert status == 200
        assert body["service"]["completed"] >= 1
        assert set(body["server"]) == {
            "host", "port", "requests", "open_connections", "uptime_s",
            "closing",
        }
        assert body["server"]["requests"] >= 1
        assert "hits" in body["cache"]
        assert body["persistence"] is None  # no persister in this fixture
        # The supervision/degradation block is always present.
        failures = body["failures"]
        assert failures["deadlines_exceeded"] == 0
        assert failures["pump_failures"] == {}
        # The cyclic collector's pressure, per generation.
        collector = body["gc"]
        assert len(collector["generations"]) == len(gc.get_stats())
        for generation in collector["generations"]:
            assert {"collections", "collected", "uncollectable"} <= set(
                generation
            )
        assert collector["frozen"] >= 0


class TestCycleFreeConsultations:
    def test_warm_consults_leave_no_work_for_the_cyclic_collector(self):
        # Each consultation's outcome, advice and verdicts must die by
        # reference count once the server drops its future; whatever
        # is left for gc.collect() counts against this bound.
        requests = 300
        service = AuthorityService(build_authority())
        with ThreadedServer(service) as threaded:
            client = Client(threaded.port)
            try:
                for i in range(GAMES):
                    client.request(
                        "POST", "/consult",
                        {"agent": "jane", "game_id": f"g{i}"},
                    )
                gc.collect()
                gc.disable()
                try:
                    for i in range(requests):
                        status, _, _ = client.request(
                            "POST", "/consult",
                            {"agent": "jane", "game_id": f"g{i % GAMES}"},
                        )
                        assert status == 200
                    found = gc.collect()
                finally:
                    gc.enable()
            finally:
                client.close()
        service.authority.close()
        assert found < requests


class TestErrorMapping:
    def test_unknown_agent_and_game_are_404(self, client):
        status, body, _ = client.request(
            "POST", "/consult", {"agent": "nobody", "game_id": "g0"}
        )
        assert status == 404 and "nobody" in body["error"]
        status, body, _ = client.request(
            "POST", "/consult", {"agent": "jane", "game_id": "missing"}
        )
        assert status == 404 and "missing" in body["error"]

    def test_malformed_requests_are_400(self, client):
        status, body, _ = client.request("POST", "/consult", {"agent": 7})
        assert status == 400 and "agent" in body["error"]
        status, body, _ = client.request(
            "POST", "/consult", {"agent": "jane", "game_id": ["g0"]}
        )
        assert status == 400 and "game_id" in body["error"]
        status, body, _ = client.request("POST", "/consult", ["jane", "g0"])
        assert status == 400 and "JSON object" in body["error"]
        # A batch body is not a consultation.
        status, body, _ = client.request(
            "POST", "/consult", {"agent": "jane", "game_ids": ["g0", "g1"]}
        )
        assert status == 400 and "game_id" in body["error"]

    @pytest.mark.parametrize(
        "privacy", [5, "secret", None, ["open"]],
        ids=["int", "unknown-mode", "null", "list"],
    )
    def test_a_bad_privacy_is_400_before_admission(
        self, client, server, privacy
    ):
        service = server.server._service
        events = [record.event for record in service.authority.audit.records]
        body = {"agent": "jane", "game_id": "g0", "privacy": privacy}
        status, reply, _ = client.request("POST", "/consult", body)
        assert status == 400 and "privacy" in reply["error"]
        # Nothing was queued, no session opened and no record written.
        assert (service.pending_count, service.completed_count) == (0, 0)
        assert [
            record.event for record in service.authority.audit.records
        ] == events

    @pytest.mark.parametrize(
        "token", ["NaN", "Infinity", "-Infinity", "1e13"],
        ids=["nan", "inf", "-inf", "past-timeout-max"],
    )
    def test_unusable_deadline_is_400_with_strict_json(self, client, token):
        # json.loads accepts NaN and Infinity; the server must refuse
        # them, and its error body must not echo them back.
        client.conn.request(
            "POST", "/consult",
            body='{"agent": "jane", "game_id": "g0", "deadline_ms": %s}'
            % token,
        )
        resp = client.conn.getresponse()
        raw = resp.read()
        assert resp.status == 400

        def refuse(constant):
            raise ValueError(f"non-JSON constant {constant}")

        body = json.loads(raw, parse_constant=refuse)
        assert "deadline_ms" in body["error"]

    def test_bad_json_body_is_400(self, client):
        client.conn.request("POST", "/consult", body="{not json")
        resp = client.conn.getresponse()
        assert resp.status == 400
        resp.read()

    def test_unknown_route_404_wrong_method_405(self, client):
        status, _, _ = client.request("GET", "/nope")
        assert status == 404
        status, _, headers = client.request("GET", "/consult")
        assert status == 405 and headers.get("Allow") == "POST"

    def test_admin_snapshot_without_persister_is_400(self, client):
        status, body, _ = client.request("POST", "/admin/snapshot")
        assert status == 400 and "persister" in body["error"]

    def test_a_body_past_the_limit_is_413_and_one_at_it_is_read(
        self, server
    ):
        # Refused on the declared length, before any body byte is read.
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=60)
        try:
            conn.putrequest("POST", "/consult")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 413
            assert resp.getheader("Connection") == "close"
            assert "too large" in json.loads(resp.read())["error"]
        finally:
            conn.close()
        client = Client(server.port)
        try:
            body = json.dumps({"agent": "jane", "game_id": "g0"})
            client.conn.request(
                "POST", "/consult",
                body=body.ljust(MAX_BODY_BYTES).encode("ascii"),
            )
            resp = client.conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["state"] == "resolved"
        finally:
            client.close()


class TestPump:
    def test_each_pump_drain_takes_one_submission(self):
        # Each drain ends at a flush point, so a crash loses the
        # journal frame of at most one answered consultation.
        service = AuthorityService(build_authority())
        queued = [service.submit("jane", f"g{i}") for i in range(GAMES - 1)]
        drained = []
        service.add_drain_listener(
            lambda summary: drained.append(summary["submissions"])
        )
        with ThreadedServer(service) as threaded:
            client = Client(threaded.port)
            try:
                status, body, _ = client.request(
                    "POST", "/consult",
                    {"agent": "jane", "game_id": f"g{GAMES - 1}"},
                )
                assert status == 200 and body["queue_depth"] == GAMES - 1
            finally:
                client.close()
        assert all(future.done() for future in queued)
        assert drained == [1] * GAMES
        service.authority.close()


class TestConcurrentClients:
    def test_each_keep_alive_client_gets_its_own_answer(self):
        # Requests in flight on several connections at once: each
        # answer belongs to the request that asked for it.
        rounds = 5
        service = AuthorityService(build_authority())
        with ThreadedServer(service) as threaded:
            clients = [Client(threaded.port) for __ in range(GAMES)]
            start = threading.Barrier(GAMES)
            answers: dict[int, list] = {i: [] for i in range(GAMES)}

            def consult(index: int) -> None:
                start.wait(10)
                for __ in range(rounds):
                    answers[index].append(clients[index].request(
                        "POST", "/consult",
                        {"agent": "jane", "game_id": f"g{index}"},
                    ))

            threads = [threading.Thread(target=consult, args=(i,))
                       for i in range(GAMES)]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
            finally:
                for client in clients:
                    client.close()
        assert not any(thread.is_alive() for thread in threads)
        suggestions = {}
        for index, replies in answers.items():
            assert len(replies) == rounds
            for status, body, headers in replies:
                assert status == 200 and body["game_id"] == f"g{index}"
                assert headers.get("Connection") == "keep-alive"
                suggestions.setdefault(index, body["advice"]["suggestion"])
                assert body["advice"]["suggestion"] == suggestions[index]
            ids = [body["future_id"] for __, body, __ in replies]
            assert len(set(ids)) == rounds
        assert service.completed_count == GAMES * rounds
        assert service.cache.stats.misses == GAMES
        service.authority.close()


    def test_pipelined_requests_are_answered_in_order(self, server):
        # A connection holds at most one consultation: the server reads
        # the second pipelined request only once the first is answered,
        # so the second is admitted behind an empty queue.
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=60) as sock:
            sock.sendall(raw_consult("g0") + raw_consult("g1"))
            reader = sock.makefile("rb")
            bodies = []
            for __ in range(2):
                assert reader.readline().startswith(b"HTTP/1.1 200 ")
                length = None
                while (line := reader.readline()) != b"\r\n":
                    name, __, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                bodies.append(json.loads(reader.read(length)))
            reader.close()
        assert [b["game_id"] for b in bodies] == ["g0", "g1"]
        assert [b["queue_depth"] for b in bodies] == [0, 0]


class TestHangUps:
    def test_a_client_that_hangs_up_does_not_cost_its_consultation(
        self, caplog
    ):
        # The handler learns of the hang-up only when it writes the
        # answer; the consultation still resolves, is recorded and
        # warms the cache, and the server goes on serving.
        service = AuthorityService(build_authority())
        with ThreadedServer(service) as threaded:
            with faults.armed("solve:hang:30@1") as plan:
                sock = socket.create_connection(
                    ("127.0.0.1", threaded.port), timeout=60
                )
                sock.sendall(raw_consult("g0"))
                waited = time.monotonic() + 30
                while not plan.fired and time.monotonic() < waited:
                    time.sleep(0.01)
                assert plan.fired  # the solve is wedged: in flight
                sock.close()
            # Disarming released the hang.
            waited = time.monotonic() + 30
            while service.completed_count < 1 and time.monotonic() < waited:
                time.sleep(0.01)
            client = Client(threaded.port)
            try:
                with caplog.at_level(logging.ERROR, logger="asyncio"):
                    status, reply, _ = client.request(
                        "POST", "/consult", {"agent": "jane", "game_id": "g0"}
                    )
            finally:
                client.close()
        assert status == 200 and reply["advice"]["cache"] == "hit"
        assert not [r for r in caplog.records if r.name == "asyncio"]
        completed = service.authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert [r.details.get("failed") for r in completed] == [None, None]
        service.authority.close()


class TestBackpressure:
    def test_a_consult_past_high_water_is_429(self):
        # Two submissions fill the queue before the pump is woken, so
        # the next admission finds the mark reached.
        service = AuthorityService(build_authority(), max_pending=2)
        queued = [service.submit("jane", f"g{i}") for i in range(2)]
        with ThreadedServer(service) as threaded:
            client = Client(threaded.port)
            try:
                status, body, headers = client.request(
                    "POST", "/consult", {"agent": "jane", "game_id": "g2"}
                )
                assert status == 429
                assert headers.get("Retry-After") == "1"
                assert body["retry_after_s"] == 1.0
                assert body["pending"] == 2
                assert "high-water" in body["error"]
                # The refusal is audited as service backpressure.
                status, audit, _ = client.request(
                    "GET", f"/audit?event={EVENT_BACKPRESSURE}"
                )
                assert audit["returned"] == 1
                # Once the queue drains, admissions go through again.
                service.drain()
                assert all(future.done() for future in queued)
                status, body, _ = client.request(
                    "POST", "/consult", {"agent": "jane", "game_id": "g2"}
                )
                assert status == 200 and body["queue_depth"] == 0
            finally:
                client.close()
        service.authority.close()


#: SHA-256 of the 504 body of a /consult whose solve outran its 300 ms
#: deadline (first submission, agent jane, game g0), and of the 500
#: body of one whose solve raised.  Neither carries a timing.
DEADLINED_BODY_DIGEST = (
    "3348a009f1cb1807048363f6ed3752f390f395e372c906036620ac98b22e592e"
)
FAILED_BODY_DIGEST = (
    "610b53939e0dbb6fc3f693c248d9508e10fb9ba3ad8435d59514a19fe9925f74"
)


class TestFailureBodies:
    @pytest.mark.parametrize("plan, deadline_ms, status, digest", [
        ("solve:hang:30@1", 300, 504, DEADLINED_BODY_DIGEST),
        ("solve:raise@1", None, 500, FAILED_BODY_DIGEST),
    ], ids=["deadline-504", "raise-500"])
    def test_failure_bodies_are_pinned(self, plan, deadline_ms, status,
                                       digest):
        service = AuthorityService(build_authority())
        body = {"agent": "jane", "game_id": "g0"}
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        with faults.armed(plan):
            with ThreadedServer(service) as threaded:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", threaded.port, timeout=60
                )
                try:
                    conn.request("POST", "/consult", body=json.dumps(body))
                    resp = conn.getresponse()
                    raw = resp.read()
                finally:
                    conn.close()
        assert resp.status == status
        assert resp.getheader("Retry-After") == (
            "1" if status == 504 else None
        )
        assert hashlib.sha256(raw).hexdigest() == digest, raw
        service.authority.close()


class TestGracefulShutdown:
    def test_stop_flushes_snapshots_and_audits(self, tmp_path):
        journal = state_path(tmp_path / "state")
        cache = SolveCache()
        authority = build_authority()
        service = AuthorityService(authority, solve_cache=cache)
        persister = WriteBehindPersister(cache, journal)
        threaded = ThreadedServer(service, persister=persister).start()
        client = Client(threaded.port)
        status, body, _ = client.request(
            "POST", "/consult", {"agent": "jane", "game_id": "g0"}
        )
        assert status == 200
        client.close()
        threaded.stop()
        # The final compaction left one file whose header covers every
        # entry.
        assert os.listdir(tmp_path / "state") == ["journal.jsonl"]
        with open(journal, "rb") as handle:
            header = json.loads(handle.readline())
        assert header["frames"] == len(cache) >= 1
        assert read_state_file(journal)[1].frames == len(cache)
        shutdown = authority.audit.events_of(EVENT_SERVER_SHUTDOWN)
        assert len(shutdown) == 1
        assert shutdown[0].details["completed"] == 1
        assert shutdown[0].details["snapshot_entries"] >= 1
        authority.close()

    @pytest.mark.parametrize(
        "pending", [b"", b"GET /heal"], ids=["idle", "half-sent-request"]
    )
    def test_stop_hangs_up_an_idle_keep_alive_client(self, caplog, pending):
        """A keep-alive client parked between requests, or partway into
        sending its next one, must not hold the shutdown for the whole
        grace window."""
        service = AuthorityService(build_authority())
        threaded = ThreadedServer(service).start()
        client = Client(threaded.port)
        status, _, headers = client.request(
            "POST", "/consult", {"agent": "jane", "game_id": "g0"}
        )
        assert status == 200 and headers.get("Connection") == "keep-alive"
        client.conn.sock.sendall(pending)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            started = time.monotonic()
            threaded.stop()
            elapsed = time.monotonic() - started
        assert elapsed < SHUTDOWN_GRACE_S / 5
        assert not [r for r in caplog.records if r.name == "asyncio"]
        shutdown = service.authority.audit.events_of(EVENT_SERVER_SHUTDOWN)
        assert len(shutdown) == 1
        # The server hung up on the idle connection.
        with pytest.raises((http.client.HTTPException, ConnectionError)):
            client.request("GET", "/healthz")
        client.close()
        service.authority.close()

    def test_stop_still_lets_an_in_flight_request_answer(self):
        """The grace window still covers a handler whose consultation
        resolves during the shutdown drain; its answer closes the
        connection."""
        service = AuthorityService(build_authority())
        threaded = ThreadedServer(service).start()
        client = Client(threaded.port)
        replies = []
        caller = threading.Thread(target=lambda: replies.append(
            client.request(
                "POST", "/consult", {"agent": "jane", "game_id": "g0"}
            )
        ))
        with faults.armed("solve:hang:1@1") as plan:
            caller.start()
            waited = time.monotonic() + 30
            while not plan.fired and time.monotonic() < waited:
                time.sleep(0.01)
            assert plan.fired  # the solve is wedged: the request is in flight
            threaded.stop()
            caller.join(timeout=30)
        assert not caller.is_alive()
        status, body, headers = replies[0]
        assert status == 200 and body["state"] == "resolved"
        assert headers.get("Connection") == "close"
        client.close()
        service.authority.close()

    def test_admin_snapshot_with_persister(self, tmp_path):
        journal = state_path(tmp_path / "state")
        cache = SolveCache()
        authority = build_authority()
        service = AuthorityService(authority, solve_cache=cache)
        persister = WriteBehindPersister(cache, journal)
        with ThreadedServer(service, persister=persister) as threaded:
            client = Client(threaded.port)
            try:
                client.request(
                    "POST", "/consult", {"agent": "jane", "game_id": "g3"}
                )
                status, body, _ = client.request("POST", "/admin/snapshot")
                assert status == 200 and body["entries"] >= 1
                assert body["persistence"]["snapshots"] >= 1
                with open(journal, "rb") as handle:
                    header = json.loads(handle.readline())
                assert header["frames"] == body["entries"]
            finally:
                client.close()
        authority.close()


#: SHA-256 of the CLI demo world's cold-then-warm stream (16 games of
#: size 4, seed 6100): the served /consult bodies less their wall-clock
#: ``latency_ms``, and the journal file that stream leaves behind.
DEMO_STREAM_BODIES_DIGEST = (
    "f3a9575a5c38c27ef1e7952eea337f57e0cf89e2f09dbd799c896b425f2dd1e4"
)
DEMO_STREAM_JOURNAL_DIGEST = (
    "6739c3b4f03f8cea13819a2b6c3e32793e27cbc7154478f753c627df2489c81a"
)


class TestDemoWorld:
    """``python -m repro.server``'s world: its flags and what it serves."""

    @pytest.mark.parametrize("flags", [
        ["--games", "-3"], ["--games", "-1"], ["--size", "0"], ["--size", "-2"],
    ])
    def test_out_of_range_flags_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            parse_args(flags)
        assert exit_info.value.code == 2
        assert flags[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--flush-every-drains", "1"], ["--flush-interval", "5"],
        ["--long-poll-timeout", "30"], ["--poll-interval", "0.25"],
    ], ids=[
        "flush-every-drains", "flush-interval", "long-poll-timeout",
        "poll-interval",
    ])
    def test_retired_flags_are_usage_errors(self, flags, capsys):
        # The flush cadence and the timer period are module constants,
        # and there is no long-poll cap: no flag sets any of them.
        with pytest.raises(SystemExit) as exit_info:
            parse_args(["--state-dir", "state", *flags])
        assert exit_info.value.code == 2
        assert (
            f"unrecognized arguments: {' '.join(flags)}"
            in capsys.readouterr().err
        )

    def test_smallest_world_is_accepted(self):
        args = parse_args(["--games", "0", "--size", "1"])
        assert (args.games, args.size) == (0, 1)

    def test_publishes_the_generated_games(self):
        authority = build_demo_authority(3, 4, 6100)
        try:
            for i in range(3):
                drawn = random_bimatrix(4, 4, seed=6100 + i)
                published = authority.game(f"g{i}")
                assert published.row_matrix == drawn.row_matrix
                assert published.column_matrix == drawn.column_matrix
                assert published.payoff_fingerprint == drawn.payoff_fingerprint
        finally:
            authority.close()

    def test_cold_then_warm_stream_is_pinned(self, tmp_path):
        journal = state_path(tmp_path / "state")
        authority = build_demo_authority(16, 4, 6100)
        cache = SolveCache()
        service = AuthorityService(authority, solve_cache=cache)
        persister = WriteBehindPersister(cache, journal)
        bodies = hashlib.sha256()
        with ThreadedServer(service, persister=persister) as threaded:
            client = Client(threaded.port)
            try:
                for i in range(16):
                    for expected in ("miss", "hit"):
                        status, body, _ = client.request("POST", "/consult", {
                            "agent": DEFAULT_AGENT, "game_id": f"g{i}",
                            "wait": True,
                        })
                        assert status == 200
                        assert body["advice"]["cache"] == expected
                        body.pop("latency_ms")
                        bodies.update(json.dumps(body, sort_keys=True).encode())
            finally:
                client.close()
        authority.close()
        with open(journal, "rb") as handle:
            journal_digest = hashlib.sha256(handle.read()).hexdigest()
        assert (bodies.hexdigest(), journal_digest) == (
            DEMO_STREAM_BODIES_DIGEST, DEMO_STREAM_JOURNAL_DIGEST,
        )
