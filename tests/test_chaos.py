"""Seeded chaos soak: the service under a hostile fault plan.

The invariants under test are the issue's acceptance bar: every
submitted future *resolves* (advice or a typed error — never a hang),
the service keeps serving after each injected failure, warm advice
replays bit-identically across a restart, and a wedged solve turns
into a 504 within its deadline plus one drain interval while later
requests sail through.
"""

from __future__ import annotations

import http.client
import json
import time

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import (
    EVENT_DEADLINE_EXCEEDED,
    EVENT_DURABILITY_DEGRADED,
)
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.errors import ReproError
from repro.games.generators import random_bimatrix
from repro.server import ThreadedServer
from repro.server import app as app_module
from repro.service import AuthorityService, faults
from repro.service.journal import state_path
from repro.service.persistence import read_state_file

GAMES = 6


class Client:
    """A minimal keep-alive JSON client over http.client."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

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

# Fires across three injection points on exact call indices; every
# run of the soak sees the identical failure schedule.
HOSTILE_PLAN = (
    "seed=11;"
    " solve:raise@4x2;"
    " verify.conclude:raise:runtime@3x2;"
    " solve:hang:10@11"
)


def _authority(games: int = GAMES, seed: int = 23) -> RationalityAuthority:
    authority = RationalityAuthority(seed=seed)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(
        BimatrixInventor("inv", method="support-enumeration")
    )
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for i in range(games):
        authority.publish_game(
            "inv", f"g{i}", random_bimatrix(3, 3, seed=8400 + i)
        )
    return authority


class TestServiceSoak:
    def test_every_future_resolves_and_service_outlives_faults(self):
        """36 mixed cold/repeat consultations under HOSTILE_PLAN: no
        future may hang, failures must be typed, service must keep
        accepting work afterwards."""
        authority = _authority()
        service = AuthorityService(authority)
        futures = []
        with faults.armed(HOSTILE_PLAN) as plan:
            for i in range(36):
                game = f"g{i % GAMES}"  # every game consulted 6x: warm load
                # The hang at solve-call 11 is only survivable with a
                # budget.
                futures.append(
                    service.submit("jane", game, deadline_ms=1500)
                )
                if i % 4 == 3:
                    service.drain()
            service.drain()
            assert plan.fired  # the plan actually bit
        succeeded = failed = 0
        for future in futures:
            assert future.done(), "a future was left hanging"
            exc = future.exception(timeout=0)
            if exc is None:
                assert future.result(timeout=0).majority.accepted
                succeeded += 1
            else:
                # Typed outcomes only: ReproError covers FaultInjected,
                # DeadlineExceeded, ...; the injected RuntimeError
                # surfaces as itself but still resolves the future.
                assert isinstance(exc, (ReproError, RuntimeError))
                failed += 1
        assert failed >= 3  # raise@4x2 + runtime@3x2 at minimum
        assert succeeded >= 25  # the service kept answering throughout
        # Disarmed again: the next consultation is clean.
        assert service.submit("jane", "g0").result().majority.accepted
        service.close()
        authority.close()


class TestHTTPChaos:
    def test_wedged_solve_is_a_prompt_504_and_server_moves_on(self):
        """The acceptance scenario over the wire: first solve hangs 30s,
        the request carried deadline_ms=300 — expect a 504 with
        Retry-After well inside the hang, then clean 200s."""
        service = AuthorityService(_authority())
        with faults.armed("solve:hang:30@1"):
            with ThreadedServer(service) as threaded:
                client = Client(threaded.port)
                try:
                    started = time.monotonic()
                    status, body, headers = client.request(
                        "POST", "/consult",
                        {"agent": "jane", "game_id": "g0",
                         "deadline_ms": 300},
                    )
                    elapsed = time.monotonic() - started
                    assert status == 504
                    assert headers.get("Retry-After") == "1"
                    assert body["error_type"] == "DeadlineExceeded"
                    assert body["deadline_ms"] == 300
                    # deadline (0.3s) + one drain interval, with CI slack;
                    # far inside the 30s the solve is wedged for.
                    assert elapsed < 10.0
                    status, body, _ = client.request(
                        "POST", "/consult",
                        {"agent": "jane", "game_id": "g1"},
                    )
                    assert status == 200 and body["state"] == "resolved"
                    status, body, _ = client.request("GET", "/stats")
                    assert status == 200
                    assert body["failures"]["deadlines_exceeded"] == 1
                finally:
                    client.close()
        records = service.authority.audit.events_of(EVENT_DEADLINE_EXCEEDED)
        assert len(records) == 1
        service.authority.close()

    def test_bad_deadline_is_rejected(self):
        service = AuthorityService(_authority(games=1))
        with ThreadedServer(service) as threaded:
            client = Client(threaded.port)
            try:
                status, body, _ = client.request(
                    "POST", "/consult",
                    {"agent": "jane", "game_id": "g0", "deadline_ms": 0},
                )
                assert status == 400
                assert "deadline_ms" in body["error"]
            finally:
                client.close()
        service.authority.close()

    def test_journal_faults_compact_and_keep_serving(self, tmp_path):
        """Every journal append raises: each failure compacts at once,
        the persister stays degraded (audited, visible in /stats) and
        consultations keep succeeding."""
        journal = state_path(tmp_path / "state")
        authority = _authority()
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        cache, persister = service.cache, service.persister
        with faults.armed("journal.append:raise:oserror@1x*"):
            with ThreadedServer(service) as threaded:
                client = Client(threaded.port)
                try:
                    status, _, _ = client.request(
                        "POST", "/consult",
                        {"agent": "jane", "game_id": "g0"},
                    )
                    assert status == 200
                    deadline = time.monotonic() + 30.0
                    degraded = False
                    while time.monotonic() < deadline and not degraded:
                        status, body, _ = client.request("GET", "/stats")
                        degraded = body["failures"]["durability_degraded"]
                        if not degraded:
                            time.sleep(0.05)
                    assert degraded, "persister never entered degraded mode"
                    # Still serving, every frame through a compaction.
                    status, body, _ = client.request(
                        "POST", "/consult",
                        {"agent": "jane", "game_id": "g1"},
                    )
                    assert status == 200
                finally:
                    client.close()
        assert persister.degraded
        assert persister.flush_failures >= 1
        assert authority.audit.events_of(EVENT_DURABILITY_DEGRADED)
        # The shutdown compaction wrote the frames the journal refused.
        assert len(read_state_file(journal)[0].profiles) == len(cache) >= 2
        authority.close()

    def test_the_idle_timer_flushes_an_abandoned_solve(
        self, tmp_path, monkeypatch
    ):
        """A deadlined solve that outlives its 504 stores its profile
        after its drain flushed; the server's timer appends it with no
        further request."""
        monkeypatch.setattr(app_module, "FLUSH_INTERVAL_S", 0.05)
        authority = _authority()
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        journal = state_path(tmp_path / "state")
        with faults.armed("solve:hang:0.5@1"):
            with ThreadedServer(service) as threaded:
                client = Client(threaded.port)
                try:
                    status, body, _ = client.request(
                        "POST", "/consult",
                        {"agent": "jane", "game_id": "g0",
                         "deadline_ms": 100},
                    )
                    assert status == 504
                    assert body["error_type"] == "DeadlineExceeded"
                    deadline = time.monotonic() + 30.0
                    while not service.persister.frames_flushed:
                        assert time.monotonic() < deadline, "never flushed"
                        time.sleep(0.02)
                    assert read_state_file(journal)[1].frames == 1
                    assert service.persister.snapshots == 0
                    assert service.completed_count == 1
                finally:
                    client.close()
        authority.close()


class TestRestartReplay:
    def test_warm_advice_is_bit_identical_after_faulty_run(self, tmp_path):
        """Consult every game under a (recoverable) fault storm, restart
        onto the persisted state, and require byte-identical advice plus
        at least one warm hit."""
        game_ids = [f"g{i}" for i in range(GAMES)]

        def consult_all(client):
            advice = {}
            for game in game_ids:
                for _ in range(4):  # retries ride out injected faults
                    status, body, _ = client.request(
                        "POST", "/consult",
                        {"agent": "jane", "game_id": game},
                    )
                    if status == 200:
                        # The advice itself must replay exactly; the
                        # "cache" field is provenance (miss/hit)
                        # and legitimately differs across runs.
                        wire = dict(body["advice"])
                        wire.pop("cache", None)
                        advice[game] = json.dumps(wire, sort_keys=True)
                        break
                assert game in advice, f"{game} never answered"
            return advice

        authority = _authority()
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        with faults.armed("seed=7; solve:raise@2; verify.conclude:raise@5"):
            with ThreadedServer(service) as threaded:
                client = Client(threaded.port)
                try:
                    first = consult_all(client)
                finally:
                    client.close()
        authority.close()

        # Cold process, same state directory, no faults.
        authority = _authority()
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        with ThreadedServer(service) as threaded:
            client = Client(threaded.port)
            try:
                second = consult_all(client)
                status, body, _ = client.request("GET", "/stats")
                # Loaded entries re-served through the Lemma-1 gate
                # count as exact hits: the restart really was warm.
                assert body["cache"]["hits"] >= 1
            finally:
                client.close()
        authority.close()
        assert first == second  # exact wire: byte-for-byte replay
