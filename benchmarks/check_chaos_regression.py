#!/usr/bin/env python
"""CI guard: disarmed fault-injection hooks cost what they promise.

The harness in :mod:`repro.service.faults` threads ``check()`` /
``filter_bytes()`` hooks through the hot serving path — the solve
stage, the verify/conclude stage, every journal append.  The design
promise is that a *disarmed* hook is one module attribute load plus an
``is None`` test.  This gate holds each hook to that promise on the
host it runs on:

* compile a *reference* of each hook — the promised body and nothing
  more — into a fresh module whose only global is ``_PLAN = None``;
* time the disarmed hook and its reference back to back, in rounds of
  the same loop that alternate which side runs first, and take the
  median over the rounds of each round's hook/reference ratio;
* require every hook's median ratio to stay under **1.10**, plus an
  absolute ceiling on the raw per-hook cost so a pathological slowdown
  of both sides cannot pass as a ratio.

The ratio does not move when the rest of the program gets faster or
slower, and a host that speeds up or slows down mid-run does so for
both sides of a round.  An honest hook reads 0.99 to 1.01; one extra
dict lookup in a disarmed hook reads about 1.3.

Exit status: 0 on success, 1 on any violated gate.

Usage::

    python benchmarks/check_chaos_regression.py
        [--hook-calls N] [--rounds N]
        [--max-hook-ratio R] [--max-hook-ns NS]
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time
import types

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.service import faults  # noqa: E402

#: Largest allowed median ratio of a disarmed hook's cost to its
#: reference's.
MAX_HOOK_RATIO = 1.10
#: Absolute ceiling per disarmed hook.  A global load plus an ``is
#: None`` test runs in tens of ns even on slow shared CI hardware.
MAX_HOOK_NS = 1500.0

#: The promised disarmed bodies, written as ``repro.service.faults``
#: writes its hooks.
REFERENCE_SOURCE = '''
_PLAN = None


def check(point):
    plan = _PLAN
    if plan is not None:
        plan.apply(point)


def filter_bytes(point, data):
    plan = _PLAN
    if plan is not None:
        return plan.apply(point, data)
    return data
'''

PAYLOAD = b"x" * 64


def reference_hooks() -> types.ModuleType:
    module = types.ModuleType("reference_hooks")
    exec(compile(REFERENCE_SOURCE, "<reference hooks>", "exec"),
         module.__dict__)
    return module


def check_ns(check, calls: int) -> float:
    """ns per ``check("solve")`` call, loop included."""
    start = time.perf_counter()
    for _ in range(calls):
        check("solve")
    return (time.perf_counter() - start) / calls * 1e9


def filter_ns(filter_bytes, calls: int) -> float:
    """ns per ``filter_bytes("journal.append", payload)`` call."""
    payload = PAYLOAD
    start = time.perf_counter()
    for _ in range(calls):
        filter_bytes("journal.append", payload)
    return (time.perf_counter() - start) / calls * 1e9


def measure(timer, hook, reference, calls: int,
            rounds: int) -> tuple[float, float, float]:
    """(median hook/reference ratio, median hook ns/call, median
    reference ns/call) over ``rounds`` back-to-back rounds that
    alternate which side runs first."""
    hook_ns, ref_ns, ratios = [], [], []
    for index in range(rounds):
        if index % 2 == 0:
            hook_ns.append(timer(hook, calls))
            ref_ns.append(timer(reference, calls))
        else:
            ref_ns.append(timer(reference, calls))
            hook_ns.append(timer(hook, calls))
        ratios.append(hook_ns[-1] / ref_ns[-1])
    return (statistics.median(ratios), statistics.median(hook_ns),
            statistics.median(ref_ns))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hook-calls", type=int, default=20_000)
    parser.add_argument("--rounds", type=int, default=51)
    parser.add_argument("--max-hook-ratio", type=float, default=MAX_HOOK_RATIO)
    parser.add_argument("--max-hook-ns", type=float, default=MAX_HOOK_NS)
    args = parser.parse_args(argv)

    assert faults.active() is None, "gate must run with no plan armed"
    reference = reference_hooks()
    hooks = {
        "check": (check_ns, faults.check, reference.check),
        "filter_bytes": (filter_ns, faults.filter_bytes,
                         reference.filter_bytes),
    }
    failures = []
    for name, (timer, hook, ref) in hooks.items():
        ratio, hook_ns, ref_ns = measure(timer, hook, ref,
                                         args.hook_calls, args.rounds)
        print(f"disarmed {name:<13} {hook_ns:7.1f} ns/call, reference "
              f"{ref_ns:7.1f} ns/call: ratio {ratio:.3f} (threshold "
              f"{ref_ns * args.max_hook_ratio:.1f} ns)")
        if ratio >= args.max_hook_ratio:
            failures.append(
                f"disarmed {name} costs {ratio:.3f} times its promised "
                f"body (gate: < {args.max_hook_ratio})"
            )
        if hook_ns >= args.max_hook_ns:
            failures.append(
                f"disarmed {name} costs {hook_ns:.1f} ns/call "
                f"(gate: < {args.max_hook_ns:.0f} ns)"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: disarmed fault hooks cost no more than their promise")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
