#!/usr/bin/env python
"""CI guard: fail when the service's load numbers fall off a cliff.

Reads a ``BENCH_load_service.json`` produced by
``benchmarks/test_bench_load.py`` and holds two absolute floors:

* **warm-stream throughput** — the all-repeats closed-loop rate
  (``warm_stream_consults_per_s``): cache hits plus certification only,
  the service's best case.  A collapse here means the admission path,
  the drain loop or verification grew real per-consultation overhead.
* **sustained p99 ceiling** — the p99 latency of the highest rung the
  saturation scan sustained.  The scan self-calibrates its rates to
  the machine, so this is a shape check (queueing stays bounded below
  saturation), not a wall-clock race.

The default floors are deliberately generous (CI machines are slow and
shared); they catch order-of-magnitude regressions, while the committed
default-scale ``BENCH_load_service.json`` carries the tracked numbers.

Usage::

    python benchmarks/check_load_regression.py [results.json]
        [--min-warm-rate R] [--max-sustained-p99-ms MS]

With no path argument the script reads the quick-scale smoke output
(``results/smoke/BENCH_load_service.quick.json``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

RESULTS = pathlib.Path(__file__).parent / "results"
SMOKE = RESULTS / "smoke"

#: CI machines are slow; a healthy warm stream runs hundreds per second.
MIN_WARM_RATE = 25.0
#: Sustained rungs sit below saturation; p99 there stays well under 1 s.
MAX_SUSTAINED_P99_MS = 2000.0


def metrics(path: pathlib.Path) -> dict[str, float]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {
        entry["metric"]: float(entry["value"])
        for entry in payload["metrics"]
    }


def sustained_p99(values: dict[str, float]) -> float | None:
    """The p99 of the highest sustained rung of the saturation scan."""
    sustained = values.get("sustained_rate_per_s")
    if not sustained or sustained <= 0:
        return None
    return values.get(f"rate_{sustained:g}_p99_ms")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results", nargs="?",
        default=str(SMOKE / "BENCH_load_service.quick.json"),
    )
    parser.add_argument("--min-warm-rate", type=float, default=MIN_WARM_RATE)
    parser.add_argument(
        "--max-sustained-p99-ms", type=float, default=MAX_SUSTAINED_P99_MS
    )
    args = parser.parse_args(argv[1:])

    try:
        values = metrics(pathlib.Path(args.results))
    except (OSError, ValueError, KeyError) as exc:
        print(f"load regression check: cannot read results: {exc}")
        return 1

    failures = []

    warm = values.get("warm_stream_consults_per_s")
    if warm is None:
        failures.append("warm_stream_consults_per_s missing")
    else:
        status = "ok" if warm >= args.min_warm_rate else "REGRESSED"
        print(
            f"warm stream: {warm:.1f}/s "
            f"(floor {args.min_warm_rate:.1f}/s) -> {status}"
        )
        if warm < args.min_warm_rate:
            failures.append("warm-stream throughput below floor")

    p99 = sustained_p99(values)
    if p99 is None:
        failures.append("no sustained rung in the saturation scan")
    else:
        status = "ok" if p99 <= args.max_sustained_p99_ms else "REGRESSED"
        print(
            f"sustained-rung p99: {p99:.1f} ms "
            f"(ceiling {args.max_sustained_p99_ms:.1f} ms) -> {status}"
        )
        if p99 > args.max_sustained_p99_ms:
            failures.append("sustained-rung p99 above ceiling")

    if failures:
        print("load bench regressed: " + "; ".join(failures))
        return 1
    print("load bench within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
