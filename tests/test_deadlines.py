"""Per-request deadlines: typed expiry, watchdog abandonment, moving on.

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
from repro.errors import DeadlineExceeded, ProtocolError
from repro.games.generators import random_bimatrix
from repro.service import AuthorityService, faults


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
    def test_service_default_must_be_positive(self):
        authority = _authority()
        with pytest.raises(ProtocolError):
            AuthorityService(authority, default_deadline_ms=0)
        authority.close()

    def test_submit_deadline_must_be_positive(self):
        authority = _authority()
        service = authority.service
        with pytest.raises(ProtocolError):
            service.submit("jane", "g0", deadline_ms=-5)
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

    def test_default_deadline_applies_to_plain_submits(self):
        authority = _authority()
        service = AuthorityService(authority, default_deadline_ms=1.0)
        future = service.submit("jane", "g0")
        assert future.deadline_ms == 1.0
        time.sleep(0.02)
        service.drain()
        assert isinstance(future.exception(), DeadlineExceeded)
        # An explicit per-request budget overrides the default.
        future = service.submit("jane", "g1", deadline_ms=60_000)
        assert future.deadline_ms == 60_000
        assert future.result().majority.accepted
        service.close()
        authority.close()

    def test_watchdog_workers_are_reused_across_deadlined_solves(self):
        authority = _authority()
        service = authority.service
        for game in ("g0", "g1", "g2"):
            outcome = service.submit(
                "jane", game, deadline_ms=60_000
            ).result()
            assert outcome.majority.accepted
        runner = service._deadline_runner
        assert runner is not None
        assert runner._spawned <= 2  # recycled, not respawned per solve
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
        assert _repro_threads() - baseline  # the watchdog worker
        service.close()
        assert not _leftover_threads(baseline)
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
        # A deadlined solve runs on a watchdog worker; its verification
        # still comes back to the draining thread.
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
        # Disarming released the hang: the abandoned worker finishes its
        # solve, discards the result and retires once the runner closes.
        service.close()
        assert not _leftover_threads(baseline)
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
