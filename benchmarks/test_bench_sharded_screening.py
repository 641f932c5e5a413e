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

The file and result names keep their historical ``sharded`` key so the
committed trajectory stays comparable across commits.

Soundness is asserted, not sampled: every returned profile is an exact
Fraction profile and every mode's equilibrium *set* matches the exact
backend bit for bit on the bench seeds.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from repro.analysis import PaperComparison, TextTable
from repro.equilibria.mixed import is_mixed_nash
from repro.equilibria.support_enumeration import support_enumeration
from repro.games.generators import random_bimatrix
from repro.linalg.backend import numpy_available

_REQUIRED_SPEEDUP = 3.0


def _size(bench_scale) -> int:
    return {"quick": 6, "default": 8, "full": 9}[bench_scale]


def test_bench_sharded_screening(benchmark, bench_scale, record_table, record_metrics):
    if not numpy_available():  # pragma: no cover - numpy-less smoke runs
        pytest.skip("vectorized screening bench requires numpy")
    size = _size(bench_scale)
    game = random_bimatrix(size, size, seed=2000 + size)

    start = time.perf_counter()
    exact_eqs = support_enumeration(game, equal_size_only=True)
    exact_seconds = time.perf_counter() - start

    start = time.perf_counter()
    float_eqs = support_enumeration(
        game, equal_size_only=True, policy="float+certify"
    )
    float_seconds = time.perf_counter() - start

    start = time.perf_counter()
    numpy_eqs = support_enumeration(game, equal_size_only=True, policy="numpy")
    numpy_seconds = time.perf_counter() - start

    # --- Soundness: exact sets, exact types, in every mode. ---
    reference = {profile.distributions for profile in exact_eqs}
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

    numpy_speedup = float_seconds / numpy_seconds if numpy_seconds > 0 else float("inf")
    exact_speedup = exact_seconds / numpy_seconds if numpy_seconds > 0 else float("inf")

    table = TextTable(
        ["screen", "n = m", "seconds", "vs float+certify", "equilibria"],
        title="B2: vectorized screening vs the stdlib float screen",
    )
    table.add_row("exact (no screen)", size, f"{exact_seconds:.3f}", "-",
                  len(exact_eqs))
    table.add_row("float+certify", size, f"{float_seconds:.3f}", "1.0x",
                  len(float_eqs))
    table.add_row("numpy", size, f"{numpy_seconds:.3f}",
                  f"{numpy_speedup:.1f}x", len(numpy_eqs))
    record_table("b2_sharded_screening", table.render())

    record_metrics(
        "sharded_screening",
        [
            {"metric": "numpy_speedup_vs_float", "value": numpy_speedup,
             "size": size, "unit": "x"},
            {"metric": "numpy_speedup_vs_exact", "value": exact_speedup,
             "size": size, "unit": "x"},
            {"metric": "float_seconds", "value": float_seconds, "size": size,
             "unit": "s"},
            {"metric": "numpy_seconds", "value": numpy_seconds, "size": size,
             "unit": "s"},
            {"metric": "equilibria_found", "value": len(numpy_eqs),
             "size": size},
        ],
        backend="mixed",
    )

    comparison = PaperComparison("B2 / vectorized screening")
    comparison.add(
        "vectorized screen beats the stdlib float screen",
        f">= {_REQUIRED_SPEEDUP:.0f}x",
        f"{numpy_speedup:.1f}x",
        numpy_speedup >= _REQUIRED_SPEEDUP,
    )
    comparison.add(
        "equilibrium sets identical to the exact backend",
        "bit for bit, all modes",
        "bit for bit, all modes",
        all(
            {p.distributions for p in eqs} == reference
            for eqs in (float_eqs, numpy_eqs)
        ),
    )
    record_table("b2_sharded_comparison", comparison.render())
    assert comparison.all_match()

    # Timed target for pytest-benchmark: the vectorized screen.
    benchmark(
        lambda: support_enumeration(game, equal_size_only=True, policy="numpy")
    )
