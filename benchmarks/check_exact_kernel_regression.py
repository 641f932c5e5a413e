#!/usr/bin/env python
"""CI guard: fail when the exact-kernel bench regresses > 2x vs baseline.

Compares the *speedup* metrics (ratios of Fraction-baseline time to
fraction-free kernel time) of a fresh run against the committed
default-scale baseline (``BENCH_exact_kernel.json``).  Absolute times
are machine-dependent; the speedup ratio is what the fraction-free
kernel exists to deliver, so "regressed > 2x" means a measured speedup
below half the committed one.

CI (the ``perf-smoke`` job) re-measures at **default scale** — the
scale the committed baseline was recorded at — into
``results/smoke/BENCH_exact_kernel.json`` (no run writes the committed
file), and passes both paths explicitly, so the comparison is apples
to apples.  With no arguments the script compares a local quick-scale
run (``BENCH_exact_kernel.quick.json``) against the
committed file instead — convenient after a quick smoke, but
cross-scale: quick ratios run legitimately lower, so treat a near-floor
result there as "re-measure at default scale", not proof of regression.

Exit status: 0 when every shared speedup metric holds, 1 on regression
or on a missing/unreadable results file (a silently skipped guard is a
failed guard).

Usage::

    python benchmarks/check_exact_kernel_regression.py \
        [fresh.json] [baseline.json]
"""

from __future__ import annotations

import json
import pathlib
import sys

RESULTS = pathlib.Path(__file__).parent / "results"
#: Where quick/full-scale runs land (see conftest.record_metrics).
SMOKE = RESULTS / "smoke"
#: A fresh speedup below baseline / ALLOWED_REGRESSION fails the job.
ALLOWED_REGRESSION = 2.0


def speedups(path: pathlib.Path) -> dict[str, float]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {
        entry["metric"]: float(entry["value"])
        for entry in payload["metrics"]
        if entry["metric"].endswith("_speedup")
    }


def run(fresh_path: pathlib.Path, baseline_path: pathlib.Path, label: str) -> int:
    """Compare the ``*_speedup`` metrics of two bench JSON files.

    The reusable core shared by this guard and its siblings (e.g.
    ``check_int_lp_regression.py``): same half-of-baseline floor, same
    fail-on-unreadable discipline, parameterized only by the two result
    paths and the label printed in diagnostics.
    """
    try:
        fresh = speedups(fresh_path)
        baseline = speedups(baseline_path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"{label} regression check: cannot read results: {exc}")
        return 1
    shared = sorted(set(fresh) & set(baseline))
    if not shared:
        print(f"{label} regression check: no shared speedup metrics")
        return 1
    failures = []
    for metric in shared:
        floor = baseline[metric] / ALLOWED_REGRESSION
        status = "ok" if fresh[metric] >= floor else "REGRESSED"
        print(
            f"{metric}: fresh {fresh[metric]:.2f}x vs baseline "
            f"{baseline[metric]:.2f}x (floor {floor:.2f}x) -> {status}"
        )
        if fresh[metric] < floor:
            failures.append(metric)
    if failures:
        print(
            f"{label} bench regressed > {ALLOWED_REGRESSION:.0f}x on: "
            + ", ".join(failures)
        )
        return 1
    print(f"{label} bench within budget")
    return 0


def main(argv: list[str]) -> int:
    fresh_path = pathlib.Path(
        argv[1] if len(argv) > 1 else SMOKE / "BENCH_exact_kernel.quick.json"
    )
    baseline_path = pathlib.Path(
        argv[2] if len(argv) > 2 else RESULTS / "BENCH_exact_kernel.json"
    )
    return run(fresh_path, baseline_path, "exact-kernel")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
