"""The host's speed, so that timings read the same on a fast or slow host.

A shared host runs the same code at speeds that drift by a third or
more over minutes, and a run of the benchmark cannot choose its minute.
Every timing the benchmark gates is therefore read at a fixed
*reference speed*: it is multiplied by the host's speed factor,
measured next to it, on the CPU the server runs on.  The factor is
the rate at which :func:`kernel` — a fixed piece of pure-Python work of
the kind the server does (exact fraction arithmetic, a JSON round trip,
a SHA-256 digest, small dicts and lists) — runs, over
:data:`REFERENCE_RATE`.  On a host running at half the reference speed
a request takes twice as long and the factor is 0.5, so its reference
time is the same; a change to the program moves its time but not the
factor.
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction

#: Kernel calls per second that define the reference speed (about what
#: one vCPU of a 2-vCPU cloud VM gives).  A fixed scale, never measured
#: per run, so reference-speed figures of two commits compare directly.
REFERENCE_RATE = 5000.0
#: How long one measurement of the host's speed runs: between two
#: segments of a measured phase, and on each side of a set-up.
MEASURE_S = 0.1
SETUP_MEASURE_S = 0.25
#: Kernel calls between two reads of the clock.
BATCH = 20

_ROWS = [[Fraction(i + 1, 7 + j) for j in range(6)] for i in range(6)]


def kernel() -> int:
    """One unit of fixed work; the result only keeps it from being
    optimised away."""
    total = sum((a * b for row in _ROWS for a, b in zip(row, reversed(row))),
                Fraction(0))
    doc = {f"k{i}": str(row[i]) for i, row in enumerate(_ROWS)}
    doc["total"] = str(total)
    text = json.dumps(doc, sort_keys=True)
    digest = hashlib.sha256(text.encode()).digest()
    return len(json.loads(text)) + digest[0]


def rate(seconds: float = MEASURE_S, clock=time.perf_counter) -> float:
    """Kernel calls per second on the calling thread's CPUs."""
    calls = 0
    started = clock()
    deadline = started + seconds
    while True:
        for __ in range(BATCH):
            kernel()
        calls += BATCH
        now = clock()
        if now >= deadline:
            return calls / (now - started)


def factor(seconds: float = MEASURE_S) -> float:
    """The host's speed over the reference speed, on the caller's CPU."""
    return rate(seconds) / REFERENCE_RATE


def timed(work) -> tuple:
    """``(work(), wall seconds, seconds at the reference speed)``, the
    host's speed measured before and after."""
    before = factor(SETUP_MEASURE_S)
    started = time.perf_counter()
    result = work()
    elapsed = time.perf_counter() - started
    speed = (before + factor(SETUP_MEASURE_S)) / 2
    return result, elapsed, elapsed * speed
