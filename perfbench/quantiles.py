"""Percentiles and the tail rule shared by every workload.

A percentile is read by linear interpolation between the two nearest
ranks of the sorted sample (NumPy's default method).  The *tail* of a
sample is the highest percentile on :data:`TAIL_LADDER` that still has
at least :data:`MIN_BEYOND` samples strictly beyond its rank, so a
reported tail is never one or two outliers.
"""

from __future__ import annotations

import math

#: Candidate tail percentiles, highest first, in tenths of a percent.
TAIL_LADDER = (999, 995, 990, 975, 950, 900, 750, 500)
#: Samples a tail percentile must leave beyond it.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """The ``pct``-th percentile (0-100) of ``values``, interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(count: int, tenths: int) -> int:
    """Samples of a ``count``-long sample that lie beyond the percentile
    given in tenths of a percent (exact integer arithmetic)."""
    return count * (1000 - tenths) // 1000


def supported_tail(count: int) -> float | None:
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it at this sample size, or None when even the median lacks
    them."""
    for tenths in TAIL_LADDER:
        if beyond(count, tenths) >= MIN_BEYOND:
            return tenths / 10.0
    return None


def median(values) -> float:
    return percentile(values, 50.0)
