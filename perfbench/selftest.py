"""Tests of the benchmark's own code.

Run from the repository root with::

    python3 perfbench/selftest.py

The file name keeps the repository's ``pytest`` run from collecting
these; they exercise the benchmark, not the program.
"""

from __future__ import annotations

import sys
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from quantiles import beyond, percentile, supported_tail  # noqa: E402
from run import end_to_end  # noqa: E402
from spans import END, START, Tracer, covered, self_times  # noqa: E402
from workloads import open_loop  # noqa: E402


def span(name, start, end, parent=-1, thread=1):
    return [name, start, end, parent, None, thread, None]


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span("a.outer", 0, 100), span("b.inner", 10, 40, 0)]
        self.assertEqual(self_times(spans), [70, 30])

    def test_overlapping_children_on_two_threads_count_once(self):
        spans = [span("a.outer", 0, 100),
                 span("b.left", 10, 40, 0, thread=1),
                 span("b.right", 30, 60, 0, thread=2)]
        self.assertEqual(self_times(spans)[0], 50)

    def test_child_outside_the_parent_is_clipped(self):
        spans = [span("a.outer", 0, 100), span("b.late", 90, 130, 0)]
        self.assertEqual(self_times(spans)[0], 90)

    def test_covered_merges_nested_and_disjoint_intervals(self):
        intervals = [(0, 10), (2, 5), (20, 30), (25, 35)]
        self.assertEqual(covered(intervals, 0, 100), 25)
        self.assertEqual(covered(intervals, 5, 28), 5 + 8)
        self.assertEqual(covered([], 0, 10), 0)


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(supported_tail(1000), 99.0)
        self.assertEqual(supported_tail(999), 97.5)
        self.assertEqual(supported_tail(400), 97.5)
        self.assertEqual(supported_tail(399), 95.0)
        self.assertEqual(supported_tail(120), 90.0)
        self.assertEqual(supported_tail(10_000), 99.9)
        self.assertIsNone(supported_tail(19))

    def test_beyond_is_exact(self):
        self.assertEqual(beyond(1000, 990), 10)
        self.assertEqual(beyond(400, 975), 10)
        self.assertEqual(beyond(399, 975), 9)

    def test_percentile_interpolates(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 0), 1)
        self.assertEqual(percentile(values, 100), 100)
        self.assertAlmostEqual(percentile(values, 50), 50.5)
        self.assertAlmostEqual(percentile([3, 1, 2], 50), 2)


def _run_at(speed: float) -> "workloads.Run":
    """100 requests whose work takes 1 ms at the reference speed, and a
    1 s set-up, measured on a host running at ``speed``."""
    run = workloads.Run(attempted=100, setup_s=[1.0 / speed],
                        ref_setup_s=[1.0])
    for index in range(100):
        run.record(workloads.WARM_HTTP, (1.0 + index % 3) / speed, speed,
                   hit=True)
    run.elapsed_s = 0.2 / speed
    run.ref_elapsed_s = run.elapsed_s * speed
    return run


class ReferenceSpeedTest(unittest.TestCase):
    def test_the_same_work_reads_the_same_on_a_slower_host(self):
        full = end_to_end(workloads.WARM_HTTP, _run_at(1.0))
        half = end_to_end(workloads.WARM_HTTP, _run_at(0.5))
        for name in ("throughput_rps", "latency_p50_ms", "setup_s",
                     "slo_met_share"):
            self.assertAlmostEqual(full[name], half[name], msg=name)
        self.assertAlmostEqual(full["throughput_rps"], 500.0)
        self.assertAlmostEqual(full["slo_met_share"], 0.67)


class _SlowService:
    """A stand-in service: admission takes ``submit_s`` (a late load
    generator), each drain takes ``drain_s`` and resolves everything."""

    def __init__(self, submit_s: float, drain_s: float):
        import concurrent.futures

        self._futures = concurrent.futures
        self.submit_s = submit_s
        self.drain_s = drain_s
        self.queue = []
        self.lock = threading.Lock()

    @property
    def pending_count(self):
        with self.lock:
            return len(self.queue)

    def submit(self, agent, game_id):
        time.sleep(self.submit_s)
        future = self._futures.Future()
        with self.lock:
            self.queue.append(future)
        return future

    def drain(self):
        with self.lock:
            batch, self.queue = self.queue, []
        if batch:
            time.sleep(self.drain_s)
        for future in batch:
            future.set_result(None)
        return len(batch)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time_when_the_generator_is_late(self):
        # Ten arrivals all due at once; each admission takes 20 ms, so
        # the last is sent ~180 ms late.  Its latency must include that.
        service = _SlowService(submit_s=0.02, drain_s=0.001)
        loop = open_loop(service, [f"g{i}" for i in range(10)], [0.0] * 10)
        self.assertGreater(loop.lags_ms[-1], 150.0)
        for index in range(10):
            self.assertGreaterEqual(loop.latency_ms(index),
                                    loop.lags_ms[index])
        self.assertGreater(loop.latency_ms(9), 150.0)

    def test_backlog_is_read_when_the_last_arrival_is_due(self):
        service = _SlowService(submit_s=0.0, drain_s=0.2)
        loop = open_loop(service, ["a", "b", "c"], [0.0, 0.01, 0.02])
        self.assertGreaterEqual(loop.backlog_end, 1)
        self.assertTrue(all(t is not None for t in loop.resolved_at))


def _stream(seed: int) -> list:
    from repro.service.load import mixed_game_stream

    return mixed_game_stream(40, size=6, seed=seed)


class SeedDeterminismTest(unittest.TestCase):
    def test_same_seed_same_games_and_arrivals(self):
        one, two = _stream(3), _stream(3)
        self.assertEqual([inputs.game_bytes(e.game) for e in one],
                         [inputs.game_bytes(e.game) for e in two])
        self.assertEqual([(e.kind, e.base_id) for e in one],
                         [(e.kind, e.base_id) for e in two])
        self.assertEqual(inputs.arrival_offsets(40, 10.0, 3),
                         inputs.arrival_offsets(40, 10.0, 3))
        self.assertEqual(
            [inputs.game_bytes(g) for g in inputs.demo_games(5, 3, 3)],
            [inputs.game_bytes(g) for g in inputs.demo_games(5, 3, 3)],
        )

    def test_other_seed_other_inputs(self):
        self.assertNotEqual([inputs.game_bytes(e.game) for e in _stream(3)],
                            [inputs.game_bytes(e.game) for e in _stream(4)])
        self.assertNotEqual(inputs.arrival_offsets(40, 10.0, 3),
                            inputs.arrival_offsets(40, 10.0, 4))

    def test_arrivals_keep_the_offered_rate(self):
        offsets = inputs.arrival_offsets(120, 10.0, 7)
        self.assertEqual(len(offsets), 120)
        self.assertEqual(offsets, sorted(offsets))
        self.assertTrue(0.0 <= offsets[0] and offsets[-1] < 10.0)


class GateTest(unittest.TestCase):
    def test_exact_check_accepts_the_equilibrium_only(self):
        from repro.games.generators import matching_pennies

        game = matching_pennies()
        served = {"suggestion": ["1/2", "1/2"],
                  "proof": {"row_support": [0, 1], "column_support": [0, 1]}}
        self.assertTrue(gate.exact_check(game, served))
        pure = {"suggestion": ["1", "0"],
                "proof": {"row_support": [0], "column_support": [0]}}
        self.assertFalse(gate.exact_check(game, pure))
        mislabelled = dict(served, proof={"row_support": [0],
                                          "column_support": [0, 1]})
        self.assertFalse(gate.exact_check(game, mislabelled))

    def test_advice_key_ignores_only_id_and_cache(self):
        first = {"game_id": "g1", "cache": "miss", "suggestion": ["1"]}
        self.assertEqual(gate.advice_key(first),
                         gate.advice_key(dict(first, game_id="m7",
                                              cache="hit")))
        self.assertNotEqual(gate.advice_key(first),
                            gate.advice_key(dict(first, suggestion=["0"])))


class WrapperRestoreTest(unittest.TestCase):
    def test_restore_puts_every_original_back(self):
        import importlib

        from repro.core import actors
        from repro.core.audit import AuditLog
        from repro.service.service import AuthorityService

        search = importlib.import_module(
            "repro.equilibria.support_enumeration"
        )
        originals = (search.find_one_equilibrium, actors.find_one_equilibrium,
                     AuthorityService.__dict__["submit"],
                     AuditLog.__dict__["record"])
        tracer = Tracer()
        layers.install(tracer)
        self.assertIsNot(actors.find_one_equilibrium, originals[1])
        self.assertIsNot(AuditLog.__dict__["record"], originals[3])
        tracer.restore()
        self.assertEqual(
            (search.find_one_equilibrium, actors.find_one_equilibrium,
             AuthorityService.__dict__["submit"],
             AuditLog.__dict__["record"]),
            originals,
        )
        AuditLog().record("-", "x", "probe")
        self.assertEqual(tracer.spans, [])

    def test_spans_nest_while_installed(self):
        from repro.core.audit import AuditLog

        tracer = Tracer()
        tracer.wrap_method(AuditLog, "record", "audit.record")
        try:
            AuditLog().record("-", "x", "probe")
        finally:
            tracer.restore()
        (recorded,) = tracer.spans
        self.assertEqual(recorded[0], "audit.record")
        self.assertLessEqual(recorded[START], recorded[END])


if __name__ == "__main__":
    unittest.main()
