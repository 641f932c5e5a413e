"""B3 — service consultation throughput: cold stream vs warm (cached) stream.

The consultation service's economics: a production authority sees the
same games repeatedly, and the fingerprint-keyed cross-run
:class:`~repro.service.cache.SolveCache` turns an exact repeat into a
lookup — the whole search phase disappears, only advise/verify/conclude
remains.  This bench drives WINDOWS pairs of equal-length streams
through one service:

* **cold** — every game id carries fresh payoffs (all cache misses;
  each window draws its own payoffs, so no cold game repeats an
  earlier window's);
* **warm** — every game id repeats one of the window's cold games'
  payoff bytes under a new id (all cache hits).

and reports consultations/second for each plus the warm/cold speedup
as median, min and max over the window pairs.  The gate (the
acceptance target: warm measurably above cold) reads the median of the
paired ratios: one window lasts a few milliseconds at quick scale, so
one pair alone spreads with host noise.  Soundness is asserted per
consultation in every window: every advice is majority-certified,
every warm suggestion is bit-identical to its cold counterpart, and
every probability is an exact Fraction.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from repro.analysis import PaperComparison, TextTable
from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import EVENT_SERVICE_COMPLETED
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.service import AuthorityService

_REQUIRED_SPEEDUP = 1.15  # warm must be measurably above cold

#: Cold/warm window pairs per run; the gate reads the median of their
#: paired ratios.
WINDOWS = 7


def _scale(bench_scale):
    """(stream length, game size) per scale."""
    return {
        "quick": (6, 4),
        "default": (16, 5),
        "full": (32, 6),
    }[bench_scale]


def _stream(service, prefix, count):
    """Serve ``count`` consultations in one drain: (futures, seconds)."""
    start = time.perf_counter()
    futures = [service.submit("jane", f"{prefix}{i}") for i in range(count)]
    service.drain()
    return futures, time.perf_counter() - start


def _spread(values):
    """``median [min, max]`` of ``values``, one decimal."""
    return (f"{statistics.median(values):.1f} "
            f"[{min(values):.1f}, {max(values):.1f}]")


def test_bench_service_cache(benchmark, bench_scale, record_table, record_metrics):
    count, size = _scale(bench_scale)

    authority = RationalityAuthority(seed=17)
    authority.register_verifiers(standard_procedures())
    inventor = BimatrixInventor(
        "inv", method="support-enumeration", backend="auto"
    )
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    service = AuthorityService(authority)

    cold_rates, warm_rates, speedups = [], [], []
    cold_seconds, warm_seconds, hit_latencies = [], [], []
    identical = True
    for window in range(WINDOWS):
        # A per-window seed offset: fresh payoffs, so every cold game
        # of every window misses.
        bases = [
            random_bimatrix(size, size, seed=4200 + window * count + i)
            for i in range(count)
        ]
        cold_prefix, warm_prefix = f"cold{window}-", f"warm{window}-"
        for i, game in enumerate(bases):
            authority.publish_game("inv", f"{cold_prefix}{i}", game)
        for i, game in enumerate(bases):
            authority.publish_game(
                "inv",
                f"{warm_prefix}{i}",
                BimatrixGame(game.row_matrix, game.column_matrix),
            )

        cold_futures, cold_s = _stream(service, cold_prefix, count)
        cold = [future.result() for future in cold_futures]
        warm_futures, warm_s = _stream(service, warm_prefix, count)
        warm = [future.result() for future in warm_futures]

        # --- Soundness: certified, bit-identical, exact. ---
        assert all(o.majority.accepted and o.adopted for o in cold + warm)
        assert all(o.advice.cache == "miss" for o in cold)
        assert all(o.advice.cache == "hit" for o in warm)
        for cold_outcome, warm_outcome in zip(cold, warm):
            assert (warm_outcome.advice.suggestion
                    == cold_outcome.advice.suggestion)
            assert all(
                isinstance(value, Fraction)
                for value in warm_outcome.advice.suggestion
            )
        identical &= all(
            w.advice.suggestion == c.advice.suggestion
            for c, w in zip(cold, warm)
        )
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert [r.details["cache"] for r in completed[-count:]] == [
            "hit"
        ] * count

        cold_seconds.append(cold_s)
        warm_seconds.append(warm_s)
        cold_rates.append(count / cold_s)
        warm_rates.append(count / warm_s)
        speedups.append(warm_rates[-1] / cold_rates[-1])
        hit_latencies.extend(
            future.latency_ms for future in warm_futures
            if future.latency_ms is not None
        )
    speedup = statistics.median(speedups)
    hit_latency_ms = max(hit_latencies)

    table = TextTable(
        ["stream", "games", "n = m", "windows", "consults/s", "cache"],
        title="B3: service consultation throughput, cold vs warm stream "
              "(median [min, max] over windows)",
    )
    table.add_row("cold (all misses)", count, size, WINDOWS,
                  _spread(cold_rates), "miss")
    table.add_row("warm (all hits)", count, size, WINDOWS,
                  _spread(warm_rates), "hit")
    table.add_row("warm speed-up (x)", "-", "-", WINDOWS,
                  _spread(speedups), "-")
    record_table("b3_service_cache", table.render())

    def summary(metric, values, unit):
        return {"metric": metric, "value": statistics.median(values),
                "min": min(values), "max": max(values), "n": len(values),
                "unit": unit}

    record_metrics(
        "service_cache",
        [
            {**summary("cold_consults_per_s", cold_rates, "1/s"),
             "games": count, "size": size},
            {**summary("warm_consults_per_s", warm_rates, "1/s"),
             "games": count, "size": size},
            summary("warm_speedup_vs_cold", speedups, "x"),
            summary("cold_seconds", cold_seconds, "s"),
            summary("warm_seconds", warm_seconds, "s"),
            {"metric": "cache_hit_rate_warm_stream", "value": 1.0},
            {"metric": "max_hit_latency_ms", "value": hit_latency_ms,
             "unit": "ms"},
        ],
        backend="auto",
    )

    comparison = PaperComparison("B3 / cross-run solve cache")
    comparison.add(
        "warm stream throughput above cold",
        f">= {_REQUIRED_SPEEDUP:.2f}x (median)",
        f"{speedup:.2f}x (median of {WINDOWS})",
        speedup >= _REQUIRED_SPEEDUP,
    )
    comparison.add(
        "warm suggestions bit-identical to cold",
        "all games",
        "all games" if identical else "differ",
        identical,
    )
    record_table("b3_service_cache_comparison", comparison.render())
    assert comparison.all_match()
    authority.close()

    # Timed target for pytest-benchmark: one warm consultation
    # (admission + cache hit + verification), on a fresh game id each
    # round so the inventor's per-id memo never short-circuits the
    # service path.
    counter = [0]

    def warm_consult():
        counter[0] += 1
        game_id = f"bench{counter[0]}"
        authority.publish_game(
            "inv",
            game_id,
            BimatrixGame(bases[0].row_matrix, bases[0].column_matrix),
        )
        return service.submit("jane", game_id).result()

    result = benchmark(warm_consult)
    assert result.advice.cache == "hit"
