"""The load harness, admission backpressure, and the drain's guarantees.

Three contracts from the service's load story:

* the harness's schedules and streams are seeded-deterministic, and
  :func:`~repro.service.load.run_load` completes (and certifies) every
  admitted submission, reporting latency percentiles and cache mix;
* admission backpressure raises or blocks exactly as configured, with
  every shed/blocked admission in the audit trail, and the pending
  counter stays O(1)-consistent through it all;
* a drain resolves every future admitted before it returns, audits its
  latency percentiles, and leaves no thread that keeps the interpreter
  alive.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import EVENT_BACKPRESSURE
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.errors import AdmissionError, GameError, ProtocolError
from repro.crypto import KeyRegistry
from repro.online.consultation import OnlineLinkInventorService
from repro.service import (
    AuthorityService,
    BurstLinkAdviser,
    bursty_arrivals,
    find_saturation,
    mixed_game_stream,
    poisson_arrivals,
    publish_stream,
    run_load,
    uniform_arrivals,
)
from repro.service.load import (
    KIND_COLD,
    KIND_NEAR,
    KIND_REPEAT,
    ArrivalSchedule,
    LoadReport,
    pools_disabled,
)


def _authority(seed=9):
    authority = RationalityAuthority(seed=seed)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(
        BimatrixInventor("inv", method="support-enumeration")
    )
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    return authority


def _published(count=12, size=3, seed=5, **kwargs):
    authority = _authority()
    stream = mixed_game_stream(count, size=size, seed=seed, **kwargs)
    publish_stream(authority, "inv", stream)
    return authority, stream


class TestSchedules:
    def test_offsets_validated(self):
        with pytest.raises(GameError):
            ArrivalSchedule(offsets=(0.0, 2.0, 1.0), label="bad")
        with pytest.raises(GameError):
            ArrivalSchedule(offsets=(-1.0, 0.0), label="bad")

    def test_poisson_is_seeded_and_rate_shaped(self):
        a = poisson_arrivals(rate=50.0, count=200, seed=3)
        b = poisson_arrivals(rate=50.0, count=200, seed=3)
        assert a.offsets == b.offsets
        assert a.offsets[0] == 0.0 and len(a) == 200
        assert a.offsets != poisson_arrivals(50.0, 200, seed=4).offsets
        # Mean gap ~ 1/rate: generous envelope, it is a seeded sample.
        assert 25.0 < a.offered_rate < 100.0
        with pytest.raises(GameError):
            poisson_arrivals(rate=0.0, count=5, seed=0)

    def test_bursty_lands_in_windows(self):
        sched = bursty_arrivals(
            burst_size=5, bursts=3, gap_s=1.0, within_s=0.2, seed=7
        )
        assert len(sched) == 15
        for burst in range(3):
            chunk = sched.offsets[burst * 5:(burst + 1) * 5]
            assert all(burst * 1.0 <= t <= burst * 1.0 + 0.2 for t in chunk)
        solid = bursty_arrivals(burst_size=4, bursts=2, gap_s=0.5)
        assert solid.offsets == (0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5)

    def test_uniform_and_scaling(self):
        sched = uniform_arrivals(rate=10.0, count=5)
        assert sched.offsets == (0.0, 0.1, 0.2, 0.3, 0.4)
        assert sched.offered_rate == pytest.approx(10.0)
        slowed = sched.scaled(2.0)
        assert slowed.offered_rate == pytest.approx(5.0)
        with pytest.raises(GameError):
            sched.scaled(0.0)


class TestMixedStream:
    def test_seeded_determinism(self):
        a = mixed_game_stream(30, size=3, seed=12)
        b = mixed_game_stream(30, size=3, seed=12)
        assert [(e.game_id, e.kind, e.base_id) for e in a] == [
            (e.game_id, e.kind, e.base_id) for e in b
        ]
        assert all(
            x.game.row_matrix == y.game.row_matrix for x, y in zip(a, b)
        )

    def test_kinds_relate_to_bases(self):
        stream = mixed_game_stream(
            40, size=3, seed=2, repeat_fraction=0.4, near_fraction=0.3
        )
        assert stream[0].kind == KIND_COLD
        by_id = {e.game_id: e for e in stream}
        kinds = {e.kind for e in stream}
        assert kinds == {KIND_COLD, KIND_REPEAT, KIND_NEAR}
        for entry in stream:
            if entry.kind == KIND_REPEAT:
                base = by_id[entry.base_id]
                assert entry.game.row_matrix == base.game.row_matrix
                assert entry.game.column_matrix == base.game.column_matrix
            elif entry.kind == KIND_NEAR:
                base = by_id[entry.base_id]
                diffs = [
                    (i, j)
                    for i, row in enumerate(entry.game.row_matrix)
                    for j, cell in enumerate(row)
                    if cell != base.game.row_matrix[i][j]
                ]
                assert len(diffs) == 1  # exactly one perturbed cell
                assert entry.game.column_matrix == base.game.column_matrix

    def test_fraction_validation(self):
        with pytest.raises(GameError):
            mixed_game_stream(5, repeat_fraction=0.8, near_fraction=0.3)
        with pytest.raises(GameError):
            mixed_game_stream(0)


class TestRunLoad:
    def test_open_loop_completes_and_classifies(self):
        authority, stream = _published(count=16)
        service = AuthorityService(authority)
        schedule = poisson_arrivals(rate=500.0, count=len(stream), seed=1)
        report = run_load(service, "jane", stream, schedule)
        # REPRO_FORCE_SERIAL in the caller's environment degrades the
        # harness to the paced inline loop; everything below holds for
        # both modes.
        expected_mode = "inline" if pools_disabled() else "open-loop"
        assert report.mode == expected_mode
        assert report.completed == len(stream)
        assert report.failed == 0 and report.shed == 0
        assert report.latency_ms["p50"] > 0.0
        assert report.latency_ms["p99"] >= report.latency_ms["p50"]
        assert sum(report.kind_counts.values()) == len(stream)
        # Every exact repeat is a fingerprint hit.
        repeats = report.kind_counts.get(KIND_REPEAT, 0)
        assert report.cache_counts.get("hit", 0) >= repeats
        service.close()
        authority.close()

    def test_inline_fallback_under_forced_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_SERIAL", "1")
        authority, stream = _published(count=6)
        service = AuthorityService(authority)
        schedule = uniform_arrivals(rate=1000.0, count=len(stream))
        report = run_load(service, "jane", stream, schedule)
        assert report.mode == "inline"
        assert report.completed == len(stream)
        service.close()
        authority.close()

    def test_force_serial_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_SERIAL", "1")
        assert pools_disabled()

    def test_force_serial_falsy_spellings_leave_threads_on(self, monkeypatch):
        for value in ("0", "false", "no", "", "  FALSE "):
            monkeypatch.setenv("REPRO_FORCE_SERIAL", value)
            assert not pools_disabled(), value
        monkeypatch.setenv("REPRO_FORCE_SERIAL", "true")
        assert pools_disabled()

    def test_force_serial_other_spellings_disable_threads(self, monkeypatch):
        for value in ("1", "yes", "on", " True ", "serial"):
            monkeypatch.setenv("REPRO_FORCE_SERIAL", value)
            assert pools_disabled(), value
        monkeypatch.delenv("REPRO_FORCE_SERIAL")
        assert not pools_disabled()

    def test_open_loop_and_inline_runs_agree(self):
        # The submitter thread only paces arrivals: both modes serve
        # every game the same certified answer, with the same cache
        # classification, in the same order.
        runs = []
        for mode in ("open-loop", "inline"):
            authority, stream = _published(count=14, seed=21)
            service = AuthorityService(authority)
            schedule = uniform_arrivals(rate=2000.0, count=len(stream))
            report = run_load(service, "jane", stream, schedule, mode=mode)
            assert report.mode == mode
            # Each re-consultation is a cache hit serving the answer
            # the run certified.
            answers = {
                entry.game_id:
                    service.submit("jane", entry.game_id)
                    .result().advice.suggestion
                for entry in stream
            }
            runs.append((
                report.completed, report.failed, report.shed,
                report.cache_counts, report.kind_counts, answers,
            ))
            service.close()
            authority.close()
        assert runs[0] == runs[1]
        assert runs[0][:3] == (14, 0, 0)

    def test_stream_schedule_length_mismatch(self):
        authority, stream = _published(count=4)
        service = AuthorityService(authority)
        with pytest.raises(GameError):
            run_load(
                service, "jane", stream, uniform_arrivals(10.0, 3)
            )
        with pytest.raises(GameError):
            run_load(
                service, "jane", stream, uniform_arrivals(10.0, 4),
                mode="sideways",
            )
        authority.close()

    def test_shed_load_is_reported_not_completed(self):
        authority, stream = _published(count=12)
        service = AuthorityService(authority, max_pending=3)
        # Everything arrives at once; the drain only starts after the
        # submitter finishes, so admissions 4.. hit the high-water mark.
        schedule = ArrivalSchedule(
            offsets=(0.0,) * len(stream), label="stampede"
        )
        report = run_load(service, "jane", stream, schedule)
        assert report.shed > 0
        assert report.completed + report.shed == len(stream)
        assert report.submitted == report.completed
        shed_records = authority.audit.events_of(EVENT_BACKPRESSURE)
        assert len(shed_records) == report.shed
        assert all(
            r.details["action"] == "rejected" for r in shed_records
        )
        service.close()
        authority.close()

    def test_find_saturation_walks_the_ladder(self):
        def fake(rate):
            return LoadReport(
                label=f"@{rate}", mode="open-loop", submitted=10,
                completed=10, failed=0, shed=0, duration_s=1.0,
                offered_rate=rate, throughput=rate,  # keeps up; p99 decides
                latency_ms={"p99": rate},  # p99 grows with the rate
            )

        result = find_saturation(fake, [10.0, 20.0, 40.0], p99_bound_ms=25.0)
        assert result.sustained_rate == 20.0
        assert result.saturation_rate == 40.0
        assert len(result.reports) == 3
        with pytest.raises(GameError):
            find_saturation(fake, [], 10.0)
        with pytest.raises(GameError):
            find_saturation(fake, [10.0, 10.0], 10.0)

    def test_saturated_signals(self):
        def report(**kw):
            base = dict(
                label="r", mode="open-loop", submitted=10, completed=10,
                failed=0, shed=0, duration_s=1.0, offered_rate=100.0,
                throughput=95.0, latency_ms={"p99": 10.0},
            )
            base.update(kw)
            return LoadReport(**base)

        assert not report().saturated(p99_bound_ms=50.0)
        assert report(shed=2).saturated(p99_bound_ms=50.0)
        assert report(latency_ms={"p99": 60.0}).saturated(p99_bound_ms=50.0)
        # Throughput far below the offered rate: the queue was still
        # draining long after the last arrival.
        assert report(throughput=50.0).saturated(p99_bound_ms=50.0)
        assert not report(throughput=80.0).saturated(p99_bound_ms=50.0)


class TestBackpressure:
    def test_raise_policy_sheds_and_audits(self):
        authority, stream = _published(count=6)
        service = AuthorityService(authority, max_pending=4)
        for entry in stream[:4]:
            service.submit("jane", entry.game_id)
        assert service.pending_count == 4
        with pytest.raises(AdmissionError):
            service.submit("jane", stream[4].game_id)
        (record,) = authority.audit.events_of(EVENT_BACKPRESSURE)
        assert record.details["action"] == "rejected"
        assert record.details["pending"] == 4
        assert record.details["high_water"] == 4
        # Batches are admitted whole or refused whole.
        service.drain()
        with pytest.raises(AdmissionError):
            service.submit_many(
                "jane", [e.game_id for e in stream[:5]]
            )
        assert service.pending_count == 0
        service.close()
        authority.close()

    def test_block_policy_waits_for_headroom(self):
        authority, stream = _published(count=6)
        service = AuthorityService(
            authority, max_pending=2, backpressure="block"
        )
        for entry in stream[:2]:
            service.submit("jane", entry.game_id)
        admitted = threading.Event()

        def late_submitter():
            service.submit("jane", stream[2].game_id)
            admitted.set()

        thread = threading.Thread(target=late_submitter, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()  # still blocked at high water
        service.drain()  # creates headroom, releases the submitter
        assert admitted.wait(timeout=5.0)
        thread.join(timeout=5.0)
        blocked = [
            r for r in authority.audit.events_of(EVENT_BACKPRESSURE)
            if r.details["action"] == "blocked"
        ]
        assert len(blocked) == 1
        assert blocked[0].details["waited_ms"] > 0.0
        service.drain()
        assert service.completed_count == 3
        service.close()
        authority.close()

    def test_block_timeout_sheds_with_timed_out_action(self):
        authority, stream = _published(count=4)
        service = AuthorityService(
            authority, max_pending=1, backpressure="block",
            block_timeout=0.02,
        )
        service.submit("jane", stream[0].game_id)
        with pytest.raises(AdmissionError):
            service.submit("jane", stream[1].game_id)
        (record,) = authority.audit.events_of(EVENT_BACKPRESSURE)
        assert record.details["action"] == "timed-out"
        service.close()
        authority.close()

    def test_blocked_admissions_release_at_half_the_mark(self):
        authority, stream = _published(count=6)
        service = AuthorityService(
            authority, max_pending=4, backpressure="block"
        )
        for entry in stream[:4]:
            service.submit("jane", entry.game_id)
        admitted = threading.Event()

        def late_submitter():
            service.submit_many("jane", [e.game_id for e in stream[4:6]])
            admitted.set()

        thread = threading.Thread(target=late_submitter, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()  # 4 + 2 > 4: blocked
        service.drain(max_batches=1)  # 3 pending: still above 4 // 2
        time.sleep(0.05)
        assert not admitted.is_set()
        service.drain(max_batches=1)  # 2 pending: the release mark
        assert admitted.wait(timeout=5.0)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert service.pending_count == 4
        blocked = [
            r for r in authority.audit.events_of(EVENT_BACKPRESSURE)
            if r.details["action"] == "blocked"
        ]
        assert len(blocked) == 1
        service.close()
        authority.close()

    def test_admission_settings_validated(self):
        authority = _authority()
        with pytest.raises(ProtocolError):
            AuthorityService(authority, max_pending=0)
        with pytest.raises(ProtocolError):
            AuthorityService(authority, max_pending=2, backpressure="drop")
        # A negative timeout would shed every blocked admission at once.
        with pytest.raises(ProtocolError):
            AuthorityService(
                authority, max_pending=2, backpressure="block",
                block_timeout=-1.0,
            )
        authority.close()

    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), float("-inf")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_block_timeout_rejected(self, timeout):
        # NaN and infinity would otherwise reach Condition.wait and
        # raise out of the first blocked admission.
        authority = _authority()
        with pytest.raises(ProtocolError):
            AuthorityService(
                authority, max_pending=2, backpressure="block",
                block_timeout=timeout,
            )
        authority.close()

    def test_zero_block_timeout_sheds_without_waiting(self):
        authority, stream = _published(count=3)
        service = AuthorityService(
            authority, max_pending=1, backpressure="block",
            block_timeout=0.0,
        )
        service.submit("jane", stream[0].game_id)
        started = time.monotonic()
        with pytest.raises(AdmissionError):
            service.submit("jane", stream[1].game_id)
        assert time.monotonic() - started < 1.0
        (record,) = authority.audit.events_of(EVENT_BACKPRESSURE)
        assert record.details["action"] == "timed-out"
        assert service.pending_count == 1
        service.drain()
        assert service.completed_count == 1
        service.close()
        authority.close()

    def test_block_policy_admits_an_oversize_batch_into_an_empty_queue(self):
        # A batch larger than the high-water mark can never fit, so the
        # block policy admits it once the queue is at the release mark
        # instead of waiting forever; it is still admitted whole.
        authority, stream = _published(count=5)
        service = AuthorityService(
            authority, max_pending=2, backpressure="block",
            block_timeout=5.0,
        )
        futures = service.submit_many(
            "jane", [entry.game_id for entry in stream[:3]]
        )
        assert len(futures) == 3
        assert service.pending_count == 3
        service.drain()
        assert all(f.result().majority.accepted for f in futures)
        service.close()
        authority.close()

    def test_pending_counter_tracks_queue_exactly(self):
        authority, stream = _published(count=8)
        service = AuthorityService(authority)
        assert service.pending_count == 0
        service.submit("jane", stream[0].game_id)
        service.submit_many("jane", [e.game_id for e in stream[1:4]])
        assert service.pending_count == 4
        service.drain()
        assert service.pending_count == 0
        assert service.completed_count == 4
        service.close()
        authority.close()

    def test_burst_adviser_high_water(self):
        service = OnlineLinkInventorService(3, 8, KeyRegistry())
        adviser = BurstLinkAdviser(service, num_links=3, max_pending=2)
        adviser.submit(1.0)
        adviser.submit(1.0)
        assert adviser.pending_count == 2
        with pytest.raises(AdmissionError):
            adviser.submit(1.0)
        assert adviser.shed_count == 1
        adviser.drain()
        assert adviser.pending_count == 0
        adviser.submit(1.0)  # headroom again after the drain


class TestDrain:
    """What a drain guarantees its callers and the interpreter."""

    def test_drain_resolves_every_future_before_returning(self):
        authority, stream = _published(count=10)
        service = AuthorityService(authority)
        futures = [
            service.submit("jane", entry.game_id) for entry in stream
        ]
        service.drain()
        assert all(future.done() for future in futures)
        service.close()
        authority.close()

    def test_future_wait_is_passive(self):
        authority, stream = _published(count=2)
        service = AuthorityService(authority)
        future = service.submit("jane", stream[0].game_id)
        assert future.wait(timeout=0.01) is False  # nobody drained
        drainer = threading.Thread(target=service.drain, daemon=True)
        drainer.start()
        assert future.wait(timeout=5.0) is True
        drainer.join(timeout=5.0)
        service.close()
        authority.close()

    def test_unclosed_service_does_not_hang_interpreter_exit(self):
        # A script that forgets ``service.close()`` must still exit:
        # nothing the service starts may hold the interpreter open.
        script = textwrap.dedent(
            """
            from repro.core.actors import AuthorityAgent, BimatrixInventor
            from repro.core.authority import RationalityAuthority
            from repro.core.registry import standard_procedures
            from repro.service import AuthorityService
            from repro.service.load import mixed_game_stream, publish_stream

            authority = RationalityAuthority(seed=5)
            authority.register_verifiers(standard_procedures())
            authority.register_inventor(
                BimatrixInventor("inv", method="support-enumeration")
            )
            authority.register_agent(
                AuthorityAgent(name="jane", player_role=0)
            )
            stream = mixed_game_stream(4, size=3, seed=1)
            publish_stream(authority, "inv", stream)
            service = AuthorityService(authority)
            outcomes = [
                service.submit("jane", e.game_id).result() for e in stream
            ]
            assert all(o.majority.accepted for o in outcomes)
            print("done")
            # Deliberately no service.close() / authority.close().
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            pathlib.Path(__file__).resolve().parent.parent / "src"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "done" in proc.stdout
