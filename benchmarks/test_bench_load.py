"""L1 — latency under offered load: the saturation scan.

Every earlier bench measured closed-loop throughput (submit, drain,
divide).  This one drives the service **open-loop** — arrivals follow
their own Poisson clock, independent of completions — so queueing
delay appears in the latency numbers instead of silently throttling
the workload.  A self-calibrated offered-rate ladder over the mixed
cold/repeat/near-repeat stream reports per-rung p50/p95/p99 and the
saturation point (the first rate whose p99 blows the bound); a warm
closed-loop stream gives the throughput floor the CI gate holds.

Soundness is asserted throughout: every completed consultation is
majority-certified, and every exact repeat's suggestion is bit-identical
to its cold base's — under load included.
"""

from __future__ import annotations

import time

from repro.analysis import PaperComparison, TextTable
from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.linalg.backend import MODE_NUMPY, BackendPolicy
from repro.service import (
    AuthorityService,
    find_saturation,
    mixed_game_stream,
    poisson_arrivals,
    publish_stream,
    run_load,
)
from repro.service.load import KIND_REPEAT


def _scale(bench_scale):
    """(stream length, game size) per scale."""
    return {
        "quick": (36, 4),
        "default": (80, 6),
        "full": (160, 7),
    }[bench_scale]


def _fresh(size, count, seed=33, **stream_kwargs):
    """A fresh authority + published mixed stream (one per measured run,
    so rungs never share cache state)."""
    authority = RationalityAuthority(seed=17)
    authority.register_verifiers(standard_procedures())
    inventor = BimatrixInventor(
        "inv", method="support-enumeration",
        backend=BackendPolicy(MODE_NUMPY),
    )
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    stream = mixed_game_stream(count, size=size, seed=seed, **stream_kwargs)
    publish_stream(authority, "inv", stream)
    return authority, stream


def _assert_sound(stream, futures):
    """Certified advice, repeats bit-identical to their cold bases."""
    outcomes = {}
    for entry, future in zip(stream, futures):
        if future is None:
            continue
        outcome = future.peek_outcome()
        if outcome is None:
            continue
        assert outcome.majority.accepted, entry.game_id
        outcomes[entry.game_id] = outcome
    for entry in stream:
        if entry.kind == KIND_REPEAT and entry.game_id in outcomes \
                and entry.base_id in outcomes:
            assert (
                outcomes[entry.game_id].advice.suggestion
                == outcomes[entry.base_id].advice.suggestion
            ), f"{entry.game_id} diverged from {entry.base_id}"


def _closed_loop(size, count, seed=33, **stream_kwargs):
    """One closed-loop run; returns (seconds, futures, stream)."""
    authority, stream = _fresh(size, count, seed=seed, **stream_kwargs)
    service = AuthorityService(authority)
    started = time.perf_counter()
    futures = [service.submit("jane", e.game_id) for e in stream]
    service.drain()
    seconds = time.perf_counter() - started
    for future in futures:
        future.result()
    _assert_sound(stream, futures)
    service.close()
    authority.close()
    return seconds, futures, stream


def test_bench_load_saturation(bench_scale, record_table, record_metrics):
    count, size = _scale(bench_scale)

    # Calibrate: closed-loop drain throughput bounds any open-loop rate.
    cal_seconds, cal_futures, __ = _closed_loop(size, count)
    top_rate = count / cal_seconds
    # Ten mean service times — but the p99 of a small run is one slow
    # consultation, and even far below capacity that consultation still
    # pays its own cold solve (plus a short transient queue behind other
    # solves).  Keep the bound clear of the calibration stream's own
    # solve tail and of scheduler noise: sustained overload is caught by
    # the throughput-deficit signal in ``LoadReport.saturated`` anyway,
    # so the latency bound only needs to separate "queueing grew" from
    # "one hard game / one noisy scheduling quantum".
    slowest_solve_ms = max(
        (f.result().advice.solve_ms or 0.0) for f in cal_futures
    )
    p99_bound_ms = max(10_000.0 / top_rate, 5.0 * slowest_solve_ms, 400.0)

    rungs = []

    def run_at(rate):
        authority, stream = _fresh(size, count)
        service = AuthorityService(authority)
        schedule = poisson_arrivals(rate=rate, count=count, seed=7)
        report = run_load(service, "jane", stream, schedule)
        rungs.append((rate, report))
        service.close()
        authority.close()
        return report

    ladder = [round(f * top_rate, 2) for f in (0.4, 0.7, 1.1, 1.8, 3.0)]
    result = find_saturation(run_at, ladder, p99_bound_ms=p99_bound_ms)

    table = TextTable(
        ["offered/s", "completed", "shed", "throughput/s",
         "p50 ms", "p95 ms", "p99 ms", "saturated"],
        title=(
            f"L1: open-loop saturation scan, mixed stream "
            f"({count} games, n = m = {size}, p99 bound "
            f"{p99_bound_ms:.0f} ms)"
        ),
    )
    metrics = [
        {"metric": "calibrated_closed_loop_rate", "value": top_rate,
         "games": count, "size": size, "unit": "1/s"},
        {"metric": "p99_bound_ms", "value": p99_bound_ms, "unit": "ms"},
    ]
    for rate, report in rungs:
        table.add_row(
            f"{rate:.1f}", report.completed, report.shed,
            f"{report.throughput:.1f}",
            f"{report.latency_ms['p50']:.1f}",
            f"{report.latency_ms['p95']:.1f}",
            f"{report.latency_ms['p99']:.1f}",
            "yes" if report.saturated(p99_bound_ms) else "no",
        )
        tag = f"rate_{rate:g}"
        metrics.extend([
            {"metric": f"{tag}_throughput_per_s", "value": report.throughput,
             "unit": "1/s"},
            {"metric": f"{tag}_p50_ms", "value": report.latency_ms["p50"],
             "unit": "ms"},
            {"metric": f"{tag}_p95_ms", "value": report.latency_ms["p95"],
             "unit": "ms"},
            {"metric": f"{tag}_p99_ms", "value": report.latency_ms["p99"],
             "unit": "ms"},
        ])
    record_table("l1_load_saturation", table.render())

    # A warm stream (all exact repeats after the first cold) closed-loop:
    # the throughput floor the CI regression gate holds.
    warm_seconds, __, ___ = _closed_loop(
        size, count, repeat_fraction=0.97, near_fraction=0.0, seed=41
    )
    warm_rate = count / warm_seconds

    sustained = result.sustained_rate or 0.0
    metrics.extend([
        {"metric": "sustained_rate_per_s", "value": sustained, "unit": "1/s"},
        {"metric": "saturation_rate_per_s",
         "value": result.saturation_rate or -1.0, "unit": "1/s"},
        {"metric": "warm_stream_consults_per_s", "value": warm_rate,
         "unit": "1/s"},
    ])
    record_metrics("load_service", metrics, backend="numpy")

    comparison = PaperComparison("L1 / latency under offered load")
    comparison.add(
        "ladder finds a saturation point", "found",
        "found" if result.saturation_rate is not None else "never saturated",
        result.saturation_rate is not None,
    )
    comparison.add(
        "some rate sustained within the p99 bound", "> 0/s",
        f"{sustained:.1f}/s", sustained > 0.0,
    )
    comparison.add(
        "warm stream above the cold calibration rate",
        f"> {top_rate:.1f}/s", f"{warm_rate:.1f}/s", warm_rate > top_rate,
    )
    record_table("l1_load_saturation_comparison", comparison.render())
    assert comparison.all_match()
