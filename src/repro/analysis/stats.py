"""Small statistics helpers for experiment outputs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ReproError


@dataclass(frozen=True)
class SampleSummary:
    """Mean, standard deviation and a normal-approximation 95% CI."""

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float


def summarize(values: Sequence[float]) -> SampleSummary:
    """Summary statistics of a sample (95% CI via the normal approximation)."""
    if not values:
        raise ReproError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    else:
        variance = 0.0
    std = math.sqrt(variance)
    half_width = 1.96 * std / math.sqrt(n) if n > 1 else 0.0
    return SampleSummary(
        count=n,
        mean=mean,
        std=std,
        ci_low=mean - half_width,
        ci_high=mean + half_width,
    )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (inclusive), ``q`` in [0, 100].

    The estimator the load telemetry standardizes on: deterministic,
    needs no interpolation, and for small drains returns an actually
    observed latency rather than a synthetic midpoint.  The input need
    not be sorted.
    """
    if not values:
        raise ReproError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ReproError("percentile rank must be within [0, 100]")
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def latency_summary(values: Sequence[float]) -> dict[str, float]:
    """The p50/p95/p99/max summary every latency consumer shares.

    Used by the open-loop load harness, and by any reader that
    aggregates the ``latency_ms`` of ``service.consultation.completed``
    audit records, so that both report the same estimator on the same
    keys.  An empty sample summarizes to zeros.
    """
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
        "p99": percentile(values, 99.0),
        "max": max(values),
    }


def proportion_ci(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% interval for a binomial proportion."""
    if trials <= 0:
        raise ReproError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ReproError("successes out of range")
    z = 1.96
    p_hat = successes / trials
    denom = 1 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, centre - margin), min(1.0, centre + margin)
