"""B2 — vectorized candidate screening vs the stdlib float screen.

B1 established the two-phase win: float search + exact certification
beats exact-everywhere by a large constant factor.  This bench measures
the *next* rung — the staged candidate engine — on the same
default-scale support enumeration:

* ``float+certify``: the B1 baseline (the stdlib screen, which solves
  each Lemma-1 system alone and cold);
* ``numpy``: the vectorized backend screening whole stacks of Lemma-1
  systems per pivot iteration (the acceptance target: >= 3x over the
  stdlib float screen).

The gate reads the median of the paired ratios over ``WINDOWS``
(float+certify, numpy) window pairs on the same game: at quick scale
one window lasts tens of milliseconds, so one pair alone spreads with
host noise.  The speed-up is recorded as median, min, max and ``n``.

The file and result names keep their historical ``sharded`` key so the
committed trajectory stays comparable across commits.

Soundness is asserted, not sampled: in every window, every returned
profile is an exact Fraction profile and both modes' equilibrium
*sets* match the exact backend bit for bit on the bench seeds.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import pytest

from repro.analysis import PaperComparison, TextTable
from repro.equilibria.mixed import is_mixed_nash
from repro.equilibria.support_enumeration import support_enumeration
from repro.games.generators import random_bimatrix
from repro.linalg.backend import numpy_available

_REQUIRED_SPEEDUP = 3.0

#: (float+certify, numpy) window pairs per run; the gate reads the
#: median of their paired ratios.
WINDOWS = 7


def _size(bench_scale) -> int:
    return {"quick": 6, "default": 8, "full": 9}[bench_scale]


def _screen(game, **policy):
    """One equal-size support enumeration: (equilibria, seconds)."""
    start = time.perf_counter()
    eqs = support_enumeration(game, equal_size_only=True, **policy)
    return eqs, time.perf_counter() - start


def _spread(values, fmt="{:.1f}"):
    """``median [min, max]`` of ``values``."""
    return (f"{fmt.format(statistics.median(values))} "
            f"[{fmt.format(min(values))}, {fmt.format(max(values))}]")


def test_bench_sharded_screening(benchmark, bench_scale, record_table, record_metrics):
    if not numpy_available():  # pragma: no cover - numpy-less smoke runs
        pytest.skip("vectorized screening bench requires numpy")
    size = _size(bench_scale)
    game = random_bimatrix(size, size, seed=2000 + size)

    exact_eqs, exact_seconds = _screen(game)
    reference = {profile.distributions for profile in exact_eqs}

    float_seconds, numpy_seconds, speedups = [], [], []
    identical = True
    for __ in range(WINDOWS):
        float_eqs, float_s = _screen(game, policy="float+certify")
        numpy_eqs, numpy_s = _screen(game, policy="numpy")

        # --- Soundness: exact sets, exact types, in every mode. ---
        for label, eqs in (
            ("float+certify", float_eqs),
            ("numpy", numpy_eqs),
        ):
            assert {p.distributions for p in eqs} == reference, (
                f"{label} returned a different equilibrium set than exact"
            )
            assert all(is_mixed_nash(game, p) for p in eqs)
            assert all(
                isinstance(value, Fraction)
                for profile in eqs
                for row in profile.distributions
                for value in row
            ), f"{label} leaked a non-Fraction value past certification"
        identical &= all(
            {p.distributions for p in eqs} == reference
            for eqs in (float_eqs, numpy_eqs)
        )

        float_seconds.append(float_s)
        numpy_seconds.append(numpy_s)
        speedups.append(float_s / numpy_s if numpy_s > 0 else float("inf"))
    numpy_speedup = statistics.median(speedups)
    numpy_median_s = statistics.median(numpy_seconds)
    exact_speedup = (
        exact_seconds / numpy_median_s if numpy_median_s > 0 else float("inf")
    )

    table = TextTable(
        ["screen", "n = m", "seconds", "vs float+certify", "equilibria"],
        title="B2: vectorized screening vs the stdlib float screen "
              f"(median [min, max] over {WINDOWS} window pairs)",
    )
    table.add_row("exact (no screen)", size, f"{exact_seconds:.3f}", "-",
                  len(exact_eqs))
    table.add_row("float+certify", size, _spread(float_seconds, "{:.3f}"),
                  "1.0x", len(float_eqs))
    table.add_row("numpy", size, _spread(numpy_seconds, "{:.3f}"),
                  f"{_spread(speedups)}x", len(numpy_eqs))
    record_table("b2_sharded_screening", table.render())

    def summary(metric, values, unit):
        return {"metric": metric, "value": statistics.median(values),
                "min": min(values), "max": max(values), "n": len(values),
                "size": size, "unit": unit}

    record_metrics(
        "sharded_screening",
        [
            summary("numpy_speedup_vs_float", speedups, "x"),
            {"metric": "numpy_speedup_vs_exact", "value": exact_speedup,
             "size": size, "unit": "x"},
            summary("float_seconds", float_seconds, "s"),
            summary("numpy_seconds", numpy_seconds, "s"),
            {"metric": "equilibria_found", "value": len(numpy_eqs),
             "size": size},
        ],
        backend="mixed",
    )

    comparison = PaperComparison("B2 / vectorized screening")
    comparison.add(
        "vectorized screen beats the stdlib float screen",
        f">= {_REQUIRED_SPEEDUP:.0f}x (median)",
        f"{numpy_speedup:.1f}x (median of {WINDOWS})",
        numpy_speedup >= _REQUIRED_SPEEDUP,
    )
    comparison.add(
        "equilibrium sets identical to the exact backend",
        "bit for bit, all modes",
        "bit for bit, all modes" if identical else "differ",
        identical,
    )
    record_table("b2_sharded_comparison", comparison.render())
    assert comparison.all_match()

    # Timed target for pytest-benchmark: the vectorized screen.
    benchmark(
        lambda: support_enumeration(game, equal_size_only=True, policy="numpy")
    )
