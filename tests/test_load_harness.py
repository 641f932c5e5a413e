"""The load harness, admission backpressure, and the drain's guarantees.

Three contracts from the service's load story:

* the harness's schedules and streams are seeded-deterministic, and
  :func:`~repro.service.load.run_load` completes (and certifies) every
  admitted submission, reporting latency percentiles and cache mix;
* admission past the high-water mark is refused whole, with every
  shed admission in the audit trail, and the pending counter stays
  O(1)-consistent through it all;
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

import pytest

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit import AuditLog
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

    def test_uniform_arrivals(self):
        sched = uniform_arrivals(rate=10.0, count=5)
        assert sched.offsets == (0.0, 0.1, 0.2, 0.3, 0.4)
        assert sched.offered_rate == pytest.approx(10.0)
        with pytest.raises(GameError):
            uniform_arrivals(rate=0.0, count=5)


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

    def test_open_loop_run_agrees_with_a_serial_pass(self):
        # The submitter thread only paces arrivals: the run serves every
        # game the same certified answer, with the same cache
        # classification, as submitting and resolving one at a time.
        runs = []
        for open_loop in (True, False):
            authority, stream = _published(count=14, seed=21)
            service = AuthorityService(authority)
            if open_loop:
                report = run_load(
                    service, "jane", stream,
                    uniform_arrivals(rate=2000.0, count=len(stream)),
                )
                assert (report.completed, report.failed, report.shed) \
                    == (14, 0, 0)
                cache_counts = report.cache_counts
            else:
                cache_counts = {}
                for entry in stream:
                    state = service.submit("jane", entry.game_id) \
                        .result().advice.cache
                    cache_counts[state] = cache_counts.get(state, 0) + 1
            # Each re-consultation is a cache hit serving the answer
            # the run certified.
            answers = {
                entry.game_id:
                    service.submit("jane", entry.game_id)
                    .result().advice.suggestion
                for entry in stream
            }
            runs.append((cache_counts, answers))
            service.close()
            authority.close()
        assert runs[0] == runs[1]

    def test_run_leaves_no_submitter_thread(self):
        authority, stream = _published(count=6)
        service = AuthorityService(authority)
        run_load(service, "jane", stream,
                 uniform_arrivals(rate=1000.0, count=len(stream)))
        assert not [
            thread for thread in threading.enumerate()
            if thread.name == "repro-load-submitter"
        ]
        service.close()
        authority.close()

    def test_stream_schedule_length_mismatch(self):
        authority, stream = _published(count=4)
        service = AuthorityService(authority)
        with pytest.raises(GameError):
            run_load(
                service, "jane", stream, uniform_arrivals(10.0, 3)
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
                label=f"@{rate}", submitted=10,
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
                label="r", submitted=10, completed=10,
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

    def test_shed_record_fields(self):
        authority, stream = _published(count=3)
        service = AuthorityService(authority, max_pending=1)
        service.submit("jane", stream[0].game_id)
        with pytest.raises(AdmissionError):
            service.submit_many("jane", [e.game_id for e in stream[1:]])
        (record,) = authority.audit.events_of(EVENT_BACKPRESSURE)
        assert record.details == {
            "action": "rejected", "agent": "jane", "requested": 2,
            "pending": 1, "high_water": 1,
        }
        service.close()
        authority.close()

    def test_a_refused_admission_leaves_no_trace_in_the_queue(self):
        authority, stream = _published(count=4)
        service = AuthorityService(authority, max_pending=2)
        first = service.submit("jane", stream[0].game_id)
        with pytest.raises(AdmissionError):
            service.submit_many("jane", [e.game_id for e in stream[1:]])
        assert service.pending_count == 1
        # Nothing was numbered for the refused batch.
        second = service.submit("jane", stream[1].game_id)
        assert second.submission_id == first.submission_id + 1
        assert service.pending_count == 2
        service.drain()
        assert service.completed_count == 2
        assert all(f.result().majority.accepted for f in (first, second))
        service.close()
        authority.close()

    def test_admission_settings_validated(self):
        authority = _authority()
        for bad in (0, -1):
            with pytest.raises(ProtocolError):
                AuthorityService(authority, max_pending=bad)
        authority.close()

    def test_concurrent_admissions_never_pass_the_mark(self):
        # Many submitters race for a 5-slot queue that nobody drains:
        # the admission check and the count update are one locked step,
        # so exactly 5 get in and every other one is refused and
        # audited.
        authority, stream = _published(count=1)
        game_id = stream[0].game_id
        service = AuthorityService(authority, max_pending=5)
        admitted, refused = [], []
        start = threading.Barrier(8)

        def submitter() -> None:
            start.wait(timeout=10.0)
            for __ in range(25):
                try:
                    admitted.append(service.submit("jane", game_id))
                except AdmissionError:
                    refused.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(admitted) == 5 and len(refused) == 8 * 25 - 5
        assert service.pending_count == 5
        assert sorted(f.submission_id for f in admitted) == [1, 2, 3, 4, 5]
        assert len(authority.audit.events_of(EVENT_BACKPRESSURE)) \
            == len(refused)
        service.drain()
        assert all(f.result().majority.accepted for f in admitted)
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

    def test_burst_adviser_audits_each_shed_arrival(self):
        audit = AuditLog()
        service = OnlineLinkInventorService(3, 8, KeyRegistry())
        adviser = BurstLinkAdviser(
            service, num_links=3, audit=audit, max_pending=1
        )
        adviser.submit(1.0)
        for __ in range(2):
            with pytest.raises(AdmissionError):
                adviser.submit(1.0)
        records = audit.events_of(EVENT_BACKPRESSURE)
        assert [r.details for r in records] == [{
            "action": "rejected", "requested": 1, "pending": 1,
            "high_water": 1,
        }] * 2
        assert adviser.shed_count == 2


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
