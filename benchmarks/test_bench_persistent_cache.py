"""B5 — persistent cache: cold stream vs restarted-warm stream.

The restart economics of the paper's search/verify asymmetry: certified
solutions saved by one process are cheap to *re-verify* on the next
process's first serve (the Lemma-1 lattice gate), while recomputing
them would repeat the PPAD-hard search.  This bench runs the same
consultation stream through two *separate* authorities sharing only a
state directory:

* **cold** — a service with ``state_dir=`` solves every game from
  scratch, journals what it stores at the end of the drain and
  compacts the journal on ``close()``;
* **restarted warm** — a fresh authority (new inventors, nothing
  carried in memory) recovers the same directory and serves the same
  payoff bytes under new game ids: every consultation is a cache hit
  whose profile passed the load-time integrity checks and the
  first-serve exact gate.

Gated: the restarted stream repeats no search.  Every call of the
inventor's search is counted: the cold stream must search each game
once, the restarted stream not at all, and the restarted cache must
report one hit per game and no miss.  Soundness is asserted per
consultation: every advice is majority-certified and every restarted
suggestion is bit-identical to its cold counterpart.

Reported, not gated: consultations/second for both streams and the
restart speed-up, as median, min and max over WINDOWS cold/restarted
window pairs, the wall time of the closing compaction ("save") and of
the recovery ("load"), and the file size.  A throughput
ratio is not a gate: it divides by the cold search's speed, so every
faster search shrinks it, and one window of a few milliseconds on a
shared host spreads over several-fold.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

from repro.analysis import PaperComparison, TextTable
from repro.core import actors
from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import EVENT_CACHE_LOADED
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.service import AuthorityService, SolveCache
from repro.service.journal import WriteBehindPersister

#: Cold/restarted window pairs per run; each side's figures are the
#: median (and range) over these.
WINDOWS = 5


def _scale(bench_scale):
    """(stream length, game size) per scale."""
    return {
        "quick": (6, 4),
        "default": (16, 5),
        "full": (32, 6),
    }[bench_scale]


def _authority(bases, prefix):
    """A fresh authority over reconstructed copies of ``bases``."""
    authority = RationalityAuthority(seed=23)
    inventor = BimatrixInventor(
        "inv", method="support-enumeration", backend="auto"
    )
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for i, game in enumerate(bases):
        authority.publish_game(
            "inv", f"{prefix}{i}",
            BimatrixGame(game.row_matrix, game.column_matrix),
        )
    return authority


def _stream(service, prefix, count, searches):
    """Serve ``count`` consultations; (outcomes, seconds, searches)."""
    before = len(searches)
    start = time.perf_counter()
    futures = [service.submit("jane", f"{prefix}{i}") for i in range(count)]
    service.drain()
    seconds = time.perf_counter() - start
    return [f.result() for f in futures], seconds, len(searches) - before


def _spread(values):
    """``median [min, max]`` of ``values``, one decimal."""
    return (f"{statistics.median(values):.1f} "
            f"[{min(values):.1f}, {max(values):.1f}]")


def test_bench_persistent_cache(
    benchmark, bench_scale, record_table, record_metrics, tmp_path,
    monkeypatch,
):
    count, size = _scale(bench_scale)
    bases = [random_bimatrix(size, size, seed=8200 + i) for i in range(count)]

    searches = []
    search = actors.find_one_equilibrium

    def counted_search(game, policy=None):
        searches.append(game)
        return search(game, policy=policy)

    monkeypatch.setattr(actors, "find_one_equilibrium", counted_search)

    cold_rates, warm_rates, speedups = [], [], []
    cold_searches, warm_searches, warm_hits, warm_misses = [], [], [], []
    save_ms, load_ms = [], []
    identical = True
    rejected = 0
    for window in range(WINDOWS):
        state_dir = tmp_path / f"state-{window}"

        # --- The cold process: solve everything, compact on close. ---
        authority = _authority(bases, "cold")
        service = AuthorityService(authority, state_dir=state_dir)
        cold, cold_seconds, searched = _stream(
            service, "cold", count, searches
        )
        cold_searches.append(searched)
        start = time.perf_counter()
        service.close()
        save_ms.append((time.perf_counter() - start) * 1000.0)
        authority.close()
        file_bytes = os.path.getsize(state_dir / "journal.jsonl")

        # --- The restarted process: same payoff bytes, new everything
        # else. ---
        authority = _authority(bases, "warm")
        start = time.perf_counter()
        service = AuthorityService(authority, state_dir=state_dir)
        load_ms.append((time.perf_counter() - start) * 1000.0)
        (loaded,) = authority.audit.events_of(EVENT_CACHE_LOADED)
        assert loaded.details["journal_accepted"]
        warm, warm_seconds, searched = _stream(
            service, "warm", count, searches
        )
        warm_searches.append(searched)
        warm_hits.append(service.cache.stats.hits)
        warm_misses.append(service.cache.stats.misses)

        # --- Soundness: certified, bit-identical, exact, gated. ---
        assert all(o.majority.accepted and o.adopted for o in cold + warm)
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
        rejected += service.cache.stats.load_rejected

        cold_rates.append(count / cold_seconds)
        warm_rates.append(count / warm_seconds)
        speedups.append(warm_rates[-1] / cold_rates[-1])
        if window < WINDOWS - 1:
            service.close()
            authority.close()

    table = TextTable(
        ["stream", "games", "n = m", "windows", "consults/s",
         "searches", "cache"],
        title="B5: persistent cache, cold stream vs restarted-warm stream "
              "(median [min, max] over windows)",
    )
    table.add_row("cold (fresh state dir)", count, size, WINDOWS,
                  _spread(cold_rates), sum(cold_searches), "miss")
    table.add_row("restarted (warm-loaded)", count, size, WINDOWS,
                  _spread(warm_rates), sum(warm_searches), "hit")
    table.add_row("restart speed-up (x)", "-", "-", WINDOWS,
                  _spread(speedups), "-", "-")
    table.add_row("save: compaction at close (ms)", "-", "-", WINDOWS,
                  _spread(save_ms), "-", "-")
    table.add_row("load: recovery (ms)", "-", "-", WINDOWS,
                  _spread(load_ms), "-", "-")
    record_table("b5_persistent_cache", table.render())

    def summary(metric, values, unit):
        return {"metric": metric, "value": statistics.median(values),
                "min": min(values), "max": max(values), "n": len(values),
                "unit": unit}

    record_metrics(
        "persistent_cache",
        [
            {**summary("cold_consults_per_s", cold_rates, "1/s"),
             "games": count, "size": size},
            {**summary("restarted_warm_consults_per_s", warm_rates, "1/s"),
             "games": count, "size": size},
            summary("restart_speedup_vs_cold", speedups, "x"),
            summary("save_ms", save_ms, "ms"),
            summary("load_ms", load_ms, "ms"),
            {"metric": "cache_file_bytes", "value": file_bytes, "unit": "B"},
            {"metric": "cold_searches", "value": sum(cold_searches)},
            {"metric": "restarted_searches", "value": sum(warm_searches)},
            {"metric": "loaded_profiles_rejected", "value": rejected},
        ],
        backend="auto",
    )

    comparison = PaperComparison("B5 / persistent solve cache")
    comparison.add(
        "searches per cold stream",
        f"{count} (one per game)",
        " / ".join(map(str, cold_searches)),
        all(searched == count for searched in cold_searches),
    )
    comparison.add(
        "searches per restarted stream",
        "0",
        " / ".join(map(str, warm_searches)),
        not any(warm_searches),
    )
    comparison.add(
        "restarted cache hits / misses",
        f"{count} / 0",
        " ".join(f"{h}/{m}" for h, m in zip(warm_hits, warm_misses)),
        all(h == count and m == 0 for h, m in zip(warm_hits, warm_misses)),
    )
    comparison.add(
        "restarted suggestions bit-identical to cold",
        "all games",
        "all games" if identical else "differ",
        identical,
    )
    comparison.add(
        "loaded entries rejected by the Lemma-1 gate",
        "0",
        str(rejected),
        rejected == 0,
    )
    record_table("b5_persistent_cache_comparison", comparison.render())
    assert comparison.all_match()
    service.close()
    authority.close()

    # Timed target for pytest-benchmark: one compaction of the
    # populated journal plus one recovery into a fresh cache (the
    # restart overhead itself).
    persister = service.persister

    def compact_and_recover():
        persister.snapshot()
        probe = SolveCache()
        report = WriteBehindPersister(probe, persister.journal.path).recover()
        assert report.accepted and len(probe) == count
        return probe

    benchmark(compact_and_recover)
