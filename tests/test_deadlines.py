"""Per-request deadlines: typed expiry, abandonment, moving on.

The acceptance property from the issue: a deliberately wedged solve
resolves to :class:`DeadlineExceeded` within ``deadline_ms`` plus one
drain interval — and the *next* request still completes, because the
drain abandoned the wedged solve instead of waiting it out.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.core import actors
from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import EVENT_DEADLINE_EXCEEDED
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.errors import DeadlineExceeded, FaultInjected, ProtocolError
from repro.games.generators import random_bimatrix
from repro.server import ThreadedServer
from repro.service import AuthorityService, faults
from repro.service.service import MAX_ABANDONED_SOLVES, MAX_DEADLINE_MS


def _authority(games=3, seed=9):
    inventor = BimatrixInventor("inv", method="support-enumeration")
    authority = RationalityAuthority(seed=seed)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for i in range(games):
        authority.publish_game(
            "inv", f"g{i}", random_bimatrix(3, 3, seed=8600 + i)
        )
    return authority


class TestDeadlineValidation:
    def test_submit_deadline_must_be_positive(self):
        authority = _authority()
        service = authority.service
        with pytest.raises(ProtocolError):
            service.submit("jane", "g0", deadline_ms=-5)
        with pytest.raises(ProtocolError):
            service.submit("jane", "g0", deadline_ms=0)
        assert service.pending_count == 0
        authority.close()

    @pytest.mark.parametrize(
        "deadline_ms",
        [float("nan"), float("inf"), float("-inf"), MAX_DEADLINE_MS * 2],
        ids=["nan", "inf", "-inf", "past-timeout-max"],
    )
    def test_unusable_deadline_rejected(self, deadline_ms):
        # NaN would expire the submission at once; infinity and
        # anything past threading.TIMEOUT_MAX overflow the timed wait.
        authority = _authority()
        with pytest.raises(ProtocolError):
            authority.service.submit("jane", "g0", deadline_ms=deadline_ms)
        assert authority.service.pending_count == 0
        # Nothing was numbered for the refused submission.
        assert authority.service.submit("jane", "g1").submission_id == 1
        authority.close()

    def test_longest_deadline_is_accepted(self):
        authority = _authority()
        future = authority.service.submit(
            "jane", "g0", deadline_ms=MAX_DEADLINE_MS
        )
        assert future.result().majority.accepted
        authority.close()


class TestDeadlineOutcomes:
    def test_no_deadline_path_is_untouched(self):
        authority = _authority()
        outcome = authority.service.submit("jane", "g0").result()
        assert outcome.majority.accepted
        assert authority.service.submit("jane", "g0").deadline_ms is None
        authority.close()

    def test_generous_deadline_still_succeeds(self):
        authority = _authority()
        future = authority.service.submit("jane", "g0", deadline_ms=60_000)
        assert future.deadline_ms == 60_000
        assert future.result().majority.accepted
        authority.close()

    def test_wedged_solve_resolves_typed_and_service_moves_on(self):
        """The acceptance scenario: hang the first solve for 30s under a
        300 ms budget; the future 504s promptly, the next one works."""
        authority = _authority()
        service = authority.service
        with faults.armed("solve:hang:30@1"):
            wedged = service.submit("jane", "g0", deadline_ms=300)
            healthy = service.submit("jane", "g1")
            started = time.monotonic()
            service.drain()
            elapsed = time.monotonic() - started
        # Resolved well before the injected 30 s hang could finish.
        assert elapsed < 10.0
        exc = wedged.exception()
        assert isinstance(exc, DeadlineExceeded)
        assert exc.deadline_ms == 300
        assert healthy.result().majority.accepted
        records = authority.audit.events_of(EVENT_DEADLINE_EXCEEDED)
        assert len(records) == 1
        assert records[0].details["game_id"] == "g0"
        assert records[0].details["phase"] == "solve"
        assert service.failure_counters()["deadlines_exceeded"] == 1
        authority.close()

    def test_expired_in_queue_fails_without_solving(self):
        authority = _authority()
        service = authority.service
        future = service.submit("jane", "g0", deadline_ms=1)
        time.sleep(0.02)  # let the 1 ms budget lapse while queued
        service.drain()
        exc = future.exception()
        assert isinstance(exc, DeadlineExceeded)
        records = authority.audit.events_of(EVENT_DEADLINE_EXCEEDED)
        assert records and records[-1].details["phase"] == "queued"
        authority.close()

    def test_queued_deadlines_apply_per_submission(self):
        authority = _authority()
        service = authority.service
        futures = [
            service.submit("jane", "g0", deadline_ms=60_000),
            service.submit("jane", "g1"),
            service.submit("jane", "g2", deadline_ms=30_000),
        ]
        assert [f.deadline_ms for f in futures] == [60_000, None, 30_000]
        service.drain()
        assert all(f.result().majority.accepted for f in futures)
        authority.close()


def _repro_threads() -> set:
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-")
    }


def _leftover_threads(baseline: set, timeout: float = 10.0) -> set:
    """The ``repro-*`` threads beyond ``baseline`` once they settle."""
    expires = time.monotonic() + timeout
    while _repro_threads() - baseline and time.monotonic() < expires:
        time.sleep(0.01)
    return _repro_threads() - baseline


#: Seconds each search takes in the deadlined-queue tests.
SLOW_SEARCH_S = 0.5

#: The budget those tests give each submission, and the most two
#: queued submissions may take: the budget plus slack, under one
#: slowed search.
QUEUE_DEADLINE_MS = 100
QUEUE_RESOLVED_S = 0.45


@pytest.fixture
def slow_search(monkeypatch):
    """Every search sleeps SLOW_SEARCH_S before it runs."""
    search = actors.find_one_equilibrium

    def slow(game, policy=None):
        time.sleep(SLOW_SEARCH_S)
        return search(game, policy=policy)

    monkeypatch.setattr(actors, "find_one_equilibrium", slow)


class TestDeadlinedQueues:
    """Each queued submission keeps its own budget from admission."""

    def test_a_deadlined_queue_resolves_within_its_budget(self, slow_search):
        baseline = _repro_threads()
        authority = _authority()
        service = authority.service
        started = time.monotonic()
        futures = [
            service.submit("jane", game_id, deadline_ms=QUEUE_DEADLINE_MS)
            for game_id in ("g0", "g1")
        ]
        service.drain()
        elapsed = time.monotonic() - started
        assert all(
            isinstance(f.exception(), DeadlineExceeded) for f in futures
        )
        assert elapsed < QUEUE_RESOLVED_S
        assert all(f.latency_ms < QUEUE_RESOLVED_S * 1000 for f in futures)
        # g0's search was abandoned at the deadline; g1 was then past
        # it and never started one.
        phases = [
            record.details["phase"]
            for record in authority.audit.events_of(EVENT_DEADLINE_EXCEEDED)
        ]
        assert phases == ["solve", "queued"]
        assert not _leftover_threads(baseline)
        authority.close()

    def test_concurrent_deadlined_consults_answer_within_their_budget(
        self, slow_search
    ):
        # Two clients at once: whichever the pump takes second waits
        # behind the first one's abandoned search, inside its own
        # budget.
        baseline = _repro_threads()
        service = AuthorityService(_authority())
        replies = {}
        with ThreadedServer(service) as threaded:
            start = threading.Barrier(2)

            def consult(game_id: str) -> None:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", threaded.port, timeout=60
                )
                try:
                    start.wait(10)
                    started = time.monotonic()
                    conn.request("POST", "/consult", body=json.dumps({
                        "agent": "jane", "game_id": game_id,
                        "deadline_ms": QUEUE_DEADLINE_MS,
                    }))
                    resp = conn.getresponse()
                    replies[game_id] = (resp.status, json.loads(resp.read()),
                                        time.monotonic() - started)
                finally:
                    conn.close()

            clients = [threading.Thread(target=consult, args=(game_id,))
                       for game_id in ("g0", "g1")]
            for client in clients:
                client.start()
            for client in clients:
                client.join(30)
        assert sorted(replies) == ["g0", "g1"]
        for status, body, elapsed in replies.values():
            assert status == 504
            assert body["error_type"] == "DeadlineExceeded"
            assert body["deadline_ms"] == QUEUE_DEADLINE_MS
            assert elapsed < QUEUE_RESOLVED_S
        assert not _leftover_threads(baseline)
        service.authority.close()


class TestThreadLifecycle:
    def test_close_returns_threads_to_baseline(self):
        baseline = _repro_threads()
        authority = _authority()
        service = AuthorityService(authority)
        assert service.submit("jane", "g0").result().majority.accepted
        deadlined = service.submit("jane", "g1", deadline_ms=60_000)
        assert deadlined.result().majority.accepted
        service.close()
        assert not _leftover_threads(baseline)
        authority.close()

    def test_a_deadlined_solves_thread_ends_with_its_solve(self):
        # No pool to return to: once the future resolves, its thread is
        # gone without close().
        baseline = _repro_threads()
        authority = _authority()
        service = AuthorityService(authority)
        for game in ("g0", "g1", "g2"):
            future = service.submit("jane", game, deadline_ms=60_000)
            assert future.result().majority.accepted
            assert not _leftover_threads(baseline)
        service.close()
        authority.close()

    def test_each_deadlined_solve_runs_on_its_own_named_thread(
        self, monkeypatch
    ):
        from repro.core.session import ConsultationSession

        solved_on = []
        real_request = ConsultationSession.request_advice

        def recording_request(session, *args, **kwargs):
            solved_on.append(threading.current_thread())
            return real_request(session, *args, **kwargs)

        monkeypatch.setattr(
            ConsultationSession, "request_advice", recording_request
        )
        authority = _authority()
        service = AuthorityService(authority)
        futures = [
            service.submit("jane", "g0", deadline_ms=60_000),
            service.submit("jane", "g1"),
            service.submit("jane", "g2", deadline_ms=60_000),
        ]
        service.drain()
        assert all(f.result().majority.accepted for f in futures)
        deadlined, inline, deadlined_again = solved_on
        assert inline is threading.current_thread()
        assert deadlined is not deadlined_again
        for thread in (deadlined, deadlined_again):
            assert thread.name.startswith("repro-deadline")
            assert thread.daemon
        service.close()
        authority.close()

    def test_a_raising_deadlined_solve_fails_only_its_consultation(self):
        authority = _authority()
        service = AuthorityService(authority)
        with faults.armed("solve:raise@1"):
            failed = service.submit("jane", "g0", deadline_ms=60_000)
            healthy = service.submit("jane", "g1", deadline_ms=60_000)
            service.drain()
        assert isinstance(failed.exception(), FaultInjected)
        assert healthy.result().majority.accepted
        assert service.failure_counters()["deadlines_exceeded"] == 0
        service.close()
        authority.close()

    def test_a_system_exit_in_a_deadlined_solve_reaches_the_drain(self):
        # The solve's thread hands the exception over; the drain fails
        # every outstanding future and re-raises it, as it does inline.
        authority = _authority()
        service = AuthorityService(authority)
        with faults.armed("solve:raise:system-exit@1"):
            first = service.submit("jane", "g0", deadline_ms=60_000)
            second = service.submit("jane", "g1")
            with pytest.raises(SystemExit):
                service.drain()
        assert isinstance(first.exception(), SystemExit)
        assert isinstance(second.exception(), SystemExit)
        assert service.pending_count == 0
        service.close()
        authority.close()

    def test_drain_without_deadlines_starts_no_thread(self):
        authority = _authority()
        service = AuthorityService(authority)
        before = set(threading.enumerate())
        futures = [service.submit("jane", f"g{i}") for i in range(3)]
        service.drain()
        assert all(f.result().majority.accepted for f in futures)
        assert not set(threading.enumerate()) - before
        service.close()
        authority.close()

    def test_verification_runs_on_the_draining_thread(self, monkeypatch):
        from repro.core.session import ConsultationSession

        verified_on = []
        real_verify = ConsultationSession.verify

        def recording_verify(session, *args, **kwargs):
            verified_on.append(threading.get_ident())
            return real_verify(session, *args, **kwargs)

        monkeypatch.setattr(ConsultationSession, "verify", recording_verify)
        authority = _authority()
        service = AuthorityService(authority)
        # A deadlined solve runs on a thread of its own; its
        # verification still comes back to the draining thread.
        futures = [
            service.submit("jane", "g0"),
            service.submit("jane", "g1", deadline_ms=60_000),
        ]
        service.drain()
        assert all(f.result().majority.accepted for f in futures)
        assert verified_on == [threading.get_ident()] * 2
        service.close()
        authority.close()

    def test_abandoned_solve_thread_exits_after_release(self):
        baseline = _repro_threads()
        authority = _authority()
        service = AuthorityService(authority)
        with faults.armed("solve:hang:30@1"):
            wedged = service.submit("jane", "g0", deadline_ms=200)
            service.drain()
            assert isinstance(wedged.exception(), DeadlineExceeded)
            assert _repro_threads() - baseline  # still hung
        # Disarming released the hang: the abandoned thread finishes its
        # solve, nobody reads the result, and the thread exits.
        assert not _leftover_threads(baseline)
        service.close()
        authority.close()

    def test_abandoned_solves_are_bounded(self):
        # Every solve wedges.  Past the bound, a deadlined submission
        # fails at once instead of leaving one more thread behind.
        baseline = _repro_threads()
        authority = _authority()
        service = AuthorityService(authority)
        submitted = MAX_ABANDONED_SOLVES + 2
        futures = []
        with faults.armed("solve:hang:30@1x*"):
            for __ in range(submitted):
                futures.append(
                    service.submit("jane", "g0", deadline_ms=20)
                )
                service.drain()
                assert len(_repro_threads() - baseline) <= MAX_ABANDONED_SOLVES
            assert len(_repro_threads() - baseline) == MAX_ABANDONED_SOLVES
        assert all(
            isinstance(f.exception(), DeadlineExceeded) for f in futures
        )
        phases = [
            record.details["phase"]
            for record in authority.audit.events_of(EVENT_DEADLINE_EXCEEDED)
        ]
        assert phases == (["solve"] * MAX_ABANDONED_SOLVES
                          + ["wedged"] * (submitted - MAX_ABANDONED_SOLVES))
        assert service.failure_counters()["deadlines_exceeded"] == submitted
        # Disarming released the hangs: the abandoned threads exit, and
        # a deadlined consultation gets a thread and succeeds again.
        assert not _leftover_threads(baseline)
        outcome = service.submit("jane", "g1", deadline_ms=60_000).result()
        assert outcome.majority.accepted
        service.close()
        authority.close()

    def test_authority_close_returns_threads_to_baseline(self):
        baseline = _repro_threads()
        authority = _authority()
        outcome = authority.service.submit(
            "jane", "g0", deadline_ms=60_000
        ).result()
        assert outcome.majority.accepted
        authority.close()
        assert not _leftover_threads(baseline)

    def test_failure_counters_hold_only_deadline_expiries(self):
        authority = _authority()
        service = AuthorityService(authority)
        assert service.failure_counters() == {"deadlines_exceeded": 0}
        future = service.submit("jane", "g0", deadline_ms=1)
        time.sleep(0.02)
        service.drain()
        assert isinstance(future.exception(), DeadlineExceeded)
        assert service.failure_counters() == {"deadlines_exceeded": 1}
        service.close()
        authority.close()
