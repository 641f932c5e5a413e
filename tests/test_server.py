"""The HTTP front-end: endpoints, backpressure codes, graceful stop.

Everything here drives a real socket — :class:`ThreadedServer` binds an
ephemeral port on localhost and the tests speak actual HTTP/1.1 through
``http.client`` — but stays in-process so the suite can also reach the
server's service and audit log directly for assertions.
"""

from __future__ import annotations

import gc
import json
import http.client
import logging
import os
import threading
import time

import pytest

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import (
    EVENT_BACKPRESSURE,
    EVENT_SERVER_SHUTDOWN,
    EVENT_SERVER_STARTED,
)
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.server import ThreadedServer, WriteBehindPersister, state_paths
from repro.service import AuthorityService, SolveCache, faults

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

    def test_future_mode_then_long_poll(self, client):
        status, body, _ = client.request(
            "POST", "/consult",
            {"agent": "jane", "game_id": "g1", "mode": "future"},
        )
        assert status == 202 and body["state"] == "pending"
        poll = body["poll"]
        status, body, _ = client.request("GET", f"{poll}?wait=30")
        assert status == 200 and body["state"] == "resolved"
        # Delivered futures leave the registry: a second poll is a 404.
        status, body, _ = client.request("GET", poll)
        assert status == 404

    def test_consult_many_wait(self, client, server):
        game_ids = [f"g{i}" for i in range(GAMES)]
        status, body, _ = client.request(
            "POST", "/consult_many",
            {"agent": "jane", "game_ids": game_ids},
        )
        assert status == 200 and body["count"] == GAMES
        assert all(r["state"] == "resolved" for r in body["results"])
        assert [r["game_id"] for r in body["results"]] == game_ids

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
        assert status == 400
        status, body, _ = client.request(
            "POST", "/consult_many", {"agent": "jane", "game_ids": []}
        )
        assert status == 400
        status, body, _ = client.request(
            "POST", "/consult",
            {"agent": "jane", "game_id": "g0", "mode": "nope"},
        )
        assert status == 400

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

    def test_unknown_future_is_404(self, client):
        status, body, _ = client.request("GET", "/futures/f999")
        assert status == 404 and body["future_id"] == "f999"

    def test_admin_snapshot_without_persister_is_400(self, client):
        status, body, _ = client.request("POST", "/admin/snapshot")
        assert status == 400 and "persister" in body["error"]


class TestBackpressure:
    def test_atomic_batch_over_high_water_is_429(self):
        service = AuthorityService(build_authority(), max_pending=2)
        with ThreadedServer(service) as threaded:
            client = Client(threaded.port)
            try:
                status, body, headers = client.request(
                    "POST", "/consult_many",
                    {"agent": "jane",
                     "game_ids": [f"g{i}" for i in range(GAMES)]},
                )
                assert status == 429
                assert headers.get("Retry-After") == "1"
                assert body["retry_after_s"] == 1.0
                assert "high-water" in body["error"]
                # The refusal is audited as service backpressure.
                status, audit, _ = client.request(
                    "GET", f"/audit?event={EVENT_BACKPRESSURE}"
                )
                assert audit["returned"] == 1
                # Small requests still go through afterwards.
                status, body, _ = client.request(
                    "POST", "/consult", {"agent": "jane", "game_id": "g0"}
                )
                assert status == 200
            finally:
                client.close()
        service.authority.close()


class TestGracefulShutdown:
    def test_stop_flushes_snapshots_and_audits(self, tmp_path):
        snapshot, journal = state_paths(tmp_path / "state")
        cache = SolveCache(path=snapshot)
        authority = build_authority()
        service = AuthorityService(authority, solve_cache=cache)
        persister = WriteBehindPersister(
            cache, journal, flush_every_drains=1,
            snapshot_every_drains=None, snapshot_interval=None,
        )
        threaded = ThreadedServer(service, persister=persister).start()
        client = Client(threaded.port)
        status, body, _ = client.request(
            "POST", "/consult", {"agent": "jane", "game_id": "g0"}
        )
        assert status == 200
        client.close()
        threaded.stop()
        # The final snapshot landed and subsumed the journal.
        assert os.path.exists(snapshot)
        assert os.path.getsize(journal) == 0
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
        grace = 10.0
        service = AuthorityService(build_authority())
        threaded = ThreadedServer(service, shutdown_grace=grace).start()
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
        assert elapsed < grace / 5
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
        snapshot, journal = state_paths(tmp_path / "state")
        cache = SolveCache(path=snapshot)
        authority = build_authority()
        service = AuthorityService(authority, solve_cache=cache)
        persister = WriteBehindPersister(
            cache, journal, snapshot_every_drains=None,
            snapshot_interval=None,
        )
        with ThreadedServer(service, persister=persister) as threaded:
            client = Client(threaded.port)
            try:
                client.request(
                    "POST", "/consult", {"agent": "jane", "game_id": "g3"}
                )
                status, body, _ = client.request("POST", "/admin/snapshot")
                assert status == 200 and body["entries"] >= 1
                assert body["persistence"]["snapshots"] >= 1
                assert os.path.exists(snapshot)
            finally:
                client.close()
        authority.close()
