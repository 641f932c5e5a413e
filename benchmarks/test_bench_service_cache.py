"""B3 — service consultation throughput: cold stream vs warm (cached) stream.

The consultation service's economics: a production authority sees the
same games repeatedly, and the fingerprint-keyed cross-run
:class:`~repro.service.cache.SolveCache` turns an exact repeat into a
lookup — the whole search phase disappears, only advise/verify/conclude
remains.  This bench drives two equal-length streams through one
service:

* **cold** — every game id carries fresh payoffs (all cache misses);
* **warm** — every game id repeats a cold game's payoff bytes under a
  new id (all cache hits).

and reports consultations/second for each plus the warm/cold speedup
(the acceptance target: warm measurably above cold).  Soundness is
asserted per consultation: every advice is majority-certified, every
warm suggestion is bit-identical to its cold counterpart, and every
probability is an exact Fraction.
"""

from __future__ import annotations

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


def _scale(bench_scale):
    """(stream length, game size) per scale."""
    return {
        "quick": (6, 4),
        "default": (16, 5),
        "full": (32, 6),
    }[bench_scale]


def test_bench_service_cache(benchmark, bench_scale, record_table, record_metrics):
    count, size = _scale(bench_scale)
    bases = [random_bimatrix(size, size, seed=4200 + i) for i in range(count)]

    authority = RationalityAuthority(seed=17)
    authority.register_verifiers(standard_procedures())
    inventor = BimatrixInventor(
        "inv", method="support-enumeration", backend="auto"
    )
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for i, game in enumerate(bases):
        authority.publish_game("inv", f"cold{i}", game)
    for i, game in enumerate(bases):
        authority.publish_game(
            "inv",
            f"warm{i}",
            BimatrixGame(game.row_matrix, game.column_matrix),
        )
    service = AuthorityService(authority)

    start = time.perf_counter()
    cold_futures = [service.submit("jane", f"cold{i}") for i in range(count)]
    service.drain()
    cold_seconds = time.perf_counter() - start
    cold = [future.result() for future in cold_futures]

    start = time.perf_counter()
    warm_futures = [service.submit("jane", f"warm{i}") for i in range(count)]
    service.drain()
    warm_seconds = time.perf_counter() - start
    warm = [future.result() for future in warm_futures]

    # --- Soundness: certified, bit-identical, exact. ---
    assert all(o.majority.accepted and o.adopted for o in cold + warm)
    assert all(o.advice.cache == "miss" for o in cold)
    assert all(o.advice.cache == "hit" for o in warm)
    for cold_outcome, warm_outcome in zip(cold, warm):
        assert warm_outcome.advice.suggestion == cold_outcome.advice.suggestion
        assert all(
            isinstance(value, Fraction)
            for value in warm_outcome.advice.suggestion
        )
    completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
    assert [r.details["cache"] for r in completed[count:]] == ["hit"] * count

    cold_rate = count / cold_seconds if cold_seconds > 0 else float("inf")
    warm_rate = count / warm_seconds if warm_seconds > 0 else float("inf")
    speedup = warm_rate / cold_rate if cold_rate > 0 else float("inf")
    hit_latency_ms = max(
        future.latency_ms for future in warm_futures
        if future.latency_ms is not None
    )

    table = TextTable(
        ["stream", "games", "n = m", "seconds", "consults/s", "cache"],
        title="B3: service consultation throughput, cold vs warm stream",
    )
    table.add_row("cold (all misses)", count, size, f"{cold_seconds:.3f}",
                  f"{cold_rate:.1f}", "miss")
    table.add_row("warm (all hits)", count, size, f"{warm_seconds:.3f}",
                  f"{warm_rate:.1f}", "hit")
    record_table("b3_service_cache", table.render())

    record_metrics(
        "service_cache",
        [
            {"metric": "cold_consults_per_s", "value": cold_rate,
             "games": count, "size": size, "unit": "1/s"},
            {"metric": "warm_consults_per_s", "value": warm_rate,
             "games": count, "size": size, "unit": "1/s"},
            {"metric": "warm_speedup_vs_cold", "value": speedup, "unit": "x"},
            {"metric": "cold_seconds", "value": cold_seconds, "unit": "s"},
            {"metric": "warm_seconds", "value": warm_seconds, "unit": "s"},
            {"metric": "cache_hit_rate_warm_stream", "value": 1.0},
            {"metric": "max_hit_latency_ms", "value": hit_latency_ms,
             "unit": "ms"},
        ],
        backend="auto",
    )

    comparison = PaperComparison("B3 / cross-run solve cache")
    comparison.add(
        "warm stream throughput above cold",
        f">= {_REQUIRED_SPEEDUP:.2f}x",
        f"{speedup:.2f}x",
        speedup >= _REQUIRED_SPEEDUP,
    )
    comparison.add(
        "warm suggestions bit-identical to cold",
        "all games",
        "all games",
        all(
            w.advice.suggestion == c.advice.suggestion
            for c, w in zip(cold, warm)
        ),
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
