#!/usr/bin/env python
"""CI guard: disarmed fault-injection hooks are provably (nearly) free.

The harness in :mod:`repro.service.faults` threads ``check()`` /
``filter_bytes()`` hooks through the hot serving path — the solve
stage, the verify/conclude stage, every journal append.  The design
promise is that a *disarmed* hook is one module attribute load plus an
``is None`` test; this gate holds the promise against the service's
own warm numbers:

* measure the per-call cost of a disarmed ``faults.check()`` and
  ``faults.filter_bytes()`` (ns/call, best of several rounds);
* measure the live warm-stream per-consultation time (all-repeats,
  cache hits plus certification — the service's *fastest* path, i.e.
  the most hook-sensitive denominator);
* multiply the hook cost by a deliberately over-counted hooks-per-
  consultation figure and require the product to stay under **1%** of
  the warm per-consult time, plus an absolute ceiling on the raw
  per-hook cost so a pathological slowdown cannot hide behind a slow
  machine's inflated denominator.

Exit status: 0 on success, 1 on any violated gate.

Usage::

    python benchmarks/check_chaos_regression.py
        [--hook-calls N] [--consults N]
        [--max-overhead-pct P] [--max-hook-ns NS]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.actors import AuthorityAgent, BimatrixInventor  # noqa: E402
from repro.core.authority import RationalityAuthority  # noqa: E402
from repro.core.registry import standard_procedures  # noqa: E402
from repro.games.generators import random_bimatrix  # noqa: E402
from repro.service import faults  # noqa: E402

#: Far above the real count (solve + verify.conclude + journal/snapshot
#: I/O + the pump tick): over-counting keeps the gate honest as new
#: injection points are added.
HOOKS_PER_CONSULT = 32

MAX_OVERHEAD_PCT = 1.0
#: Absolute ceiling per disarmed hook.  A global load plus an ``is
#: None`` test runs in tens of ns even on slow shared CI hardware.
MAX_HOOK_NS = 1500.0


def best_of(rounds: int, fn) -> float:
    return min(fn() for _ in range(rounds))


def disarmed_hook_ns(calls: int) -> float:
    """Best-of-5 per-call cost of a disarmed ``faults.check``, in ns."""
    assert faults.active() is None, "gate must run with no plan armed"
    check = faults.check
    payload = b"x" * 64
    filter_bytes = faults.filter_bytes

    def round_check() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            check("solve")
        return (time.perf_counter() - start) / calls * 1e9

    def round_filter() -> float:
        start = time.perf_counter()
        for _ in range(calls):
            filter_bytes("journal.append", payload)
        return (time.perf_counter() - start) / calls * 1e9

    return max(best_of(5, round_check), best_of(5, round_filter))


def warm_consult_us(consults: int) -> float:
    """Live per-consultation time on the all-repeats warm stream, µs."""
    authority = RationalityAuthority(seed=41)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(
        BimatrixInventor("inv", method="support-enumeration")
    )
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    authority.publish_game("inv", "g0", random_bimatrix(3, 3, seed=9100))
    service = authority.service
    service.submit("jane", "g0").result()  # solve cold, outside the clock
    start = time.perf_counter()
    for _ in range(consults):
        service.submit("jane", "g0").result()
    elapsed = time.perf_counter() - start
    authority.close()
    return elapsed / consults * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hook-calls", type=int, default=200_000)
    parser.add_argument("--consults", type=int, default=200)
    parser.add_argument(
        "--max-overhead-pct", type=float, default=MAX_OVERHEAD_PCT
    )
    parser.add_argument("--max-hook-ns", type=float, default=MAX_HOOK_NS)
    args = parser.parse_args(argv)

    hook_ns = disarmed_hook_ns(args.hook_calls)
    consult_us = warm_consult_us(args.consults)
    per_consult_hook_us = hook_ns * HOOKS_PER_CONSULT / 1e3
    overhead_pct = per_consult_hook_us / consult_us * 100.0

    print(f"disarmed hook:        {hook_ns:8.1f} ns/call")
    print(f"warm consult:         {consult_us:8.1f} us/consult")
    print(f"hooks per consult:    {HOOKS_PER_CONSULT:8d} (over-counted)")
    print(f"implied overhead:     {per_consult_hook_us:8.3f} us "
          f"({overhead_pct:.3f}% of warm path)")

    failures = []
    if overhead_pct >= args.max_overhead_pct:
        failures.append(
            f"disarmed hooks cost {overhead_pct:.3f}% of the warm "
            f"consult path (gate: < {args.max_overhead_pct}%)"
        )
    if hook_ns >= args.max_hook_ns:
        failures.append(
            f"disarmed hook costs {hook_ns:.1f} ns/call "
            f"(gate: < {args.max_hook_ns:.0f} ns)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: disarmed fault hooks are noise on the warm path")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
