"""Per-request deadlines: typed expiry, abandonment, moving on.

The acceptance property from the issue: a deliberately wedged solve
resolves to :class:`DeadlineExceeded` within ``deadline_ms`` plus one
drain interval — and the *next* request still completes, because the
drain abandoned the wedged solve instead of waiting it out.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import EVENT_DEADLINE_EXCEEDED
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.errors import DeadlineExceeded, FaultInjected, ProtocolError
from repro.games.generators import random_bimatrix
from repro.service import AuthorityService, faults
from repro.service.service import MAX_DEADLINE_MS


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
        with pytest.raises(ProtocolError):
            authority.service.submit_many(
                "jane", ["g0", "g1"], deadline_ms=deadline_ms
            )
        assert authority.service.pending_count == 0
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

    def test_batch_deadlines_apply_per_submission(self):
        authority = _authority()
        service = authority.service
        futures = service.submit_many(
            "jane", ["g0", "g1"], deadline_ms=60_000
        )
        assert all(f.deadline_ms == 60_000 for f in futures)
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
