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
from repro.server import ThreadedServer, WriteBehindPersister, state_path
from repro.server.__main__ import DEFAULT_AGENT, build_demo_authority, parse_args
from repro.server.app import (
    MAX_BODY_BYTES,
    MAX_FUTURES,
    SHUTDOWN_GRACE_S,
    AuthorityHTTPServer,
)
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
        "privacy", [5, "secret", None, ["open"]],
        ids=["int", "unknown-mode", "null", "list"],
    )
    @pytest.mark.parametrize("path", ["/consult", "/consult_many"])
    def test_a_bad_privacy_is_400_before_admission(
        self, client, server, path, privacy
    ):
        service = server.server._service
        events = [record.event for record in service.authority.audit.records]
        body = {"agent": "jane", "privacy": privacy}
        if path == "/consult":
            body["game_id"] = "g0"
        else:
            body["game_ids"] = ["g0", "g1"]
        status, reply, _ = client.request("POST", path, body)
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

    def test_unknown_future_is_404(self, client):
        status, body, _ = client.request("GET", "/futures/f999")
        assert status == 404 and body["future_id"] == "f999"

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
    def test_each_pump_drain_takes_one_admission_batch(self):
        # Each drain ends at a flush point, so a crash loses the
        # journal frames of at most one batch.
        service = AuthorityService(build_authority())
        queued = [service.submit("jane", f"g{i}") for i in range(3)]
        batch = service.submit_many("jane", ["g3", "g4"])
        drained = []
        service.add_drain_listener(
            lambda summary: drained.append(summary["submissions"])
        )
        with ThreadedServer(service) as threaded:
            client = Client(threaded.port)
            try:
                status, _, _ = client.request(
                    "POST", "/consult", {"agent": "jane", "game_id": "g5"}
                )
                assert status == 200
            finally:
                client.close()
        assert all(f.done() for f in (*queued, *batch))
        assert drained == [1, 1, 1, 2, 1]
        service.authority.close()


class _Tracked:
    """A stand-in for a consultation future in the poll registry."""

    def __init__(self, submission_id: int, resolved: bool):
        self.submission_id = submission_id
        self.resolved = resolved

    def done(self) -> bool:
        return self.resolved


class TestFutureRegistry:
    def test_registry_drops_resolved_futures_past_the_bound(self):
        authority = build_authority()
        server = AuthorityHTTPServer(AuthorityService(authority))
        for index in range(MAX_FUTURES):
            server._futures[f"f{index}"] = _Tracked(
                index, resolved=index % 2 == 0
            )
        server._make_room(1)
        # Only the oldest resolved future made room for the new one.
        assert len(server._futures) == MAX_FUTURES - 1
        assert "f0" not in server._futures
        assert "f2" in server._futures
        # A batch of three needs two more slots: the next two resolved.
        server._make_room(3)
        assert len(server._futures) == MAX_FUTURES - 3
        assert not {"f2", "f4"} & set(server._futures)
        assert "f6" in server._futures
        authority.close()

    def test_unresolved_futures_are_never_dropped(self):
        # A registry full of unresolved futures refuses new work with a
        # 429 before the service sees it, and admits again once one of
        # them has resolved.
        service = AuthorityService(build_authority())
        with ThreadedServer(service) as threaded:
            registry = threaded.server._futures
            tracked = [_Tracked(-1 - index, resolved=False)
                       for index in range(MAX_FUTURES)]
            for stand_in in tracked:
                registry[f"f{stand_in.submission_id}"] = stand_in
            client = Client(threaded.port)
            try:
                for path, body in (
                    ("/consult", {"agent": "jane", "game_id": "g0"}),
                    ("/consult_many",
                     {"agent": "jane", "game_ids": ["g0", "g1"]}),
                ):
                    status, body, headers = client.request("POST", path, body)
                    assert status == 429
                    assert headers.get("Retry-After") == "1"
                    assert "poll registry" in body["error"]
                assert service.pending_count == 0
                assert service.completed_count == 0
                assert len(registry) == MAX_FUTURES
                tracked[0].resolved = True
                status, body, _ = client.request(
                    "POST", "/consult", {"agent": "jane", "game_id": "g0"}
                )
                assert status == 200
                # One slot is free again, and the batch needs two.
                status, body, _ = client.request(
                    "POST", "/consult_many",
                    {"agent": "jane", "game_ids": ["g0", "g1"]},
                )
                assert status == 429
                tracked[1].resolved = tracked[2].resolved = True
                status, body, _ = client.request(
                    "POST", "/consult_many",
                    {"agent": "jane", "game_ids": ["g0", "g1"]},
                )
                assert status == 200
                # Only as many resolved stand-ins went as the batch
                # needed, and every unresolved one is still pollable.
                assert len(registry) == MAX_FUTURES - 2
                assert all(f"f{stand_in.submission_id}" in registry
                           for stand_in in tracked[2:])
            finally:
                client.close()
        service.authority.close()


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
        # The flush cadence, the long-poll cap and the timer period are
        # module constants: no flag sets them.
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
