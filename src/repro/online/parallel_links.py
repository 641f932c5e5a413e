"""Parallel-links scheduling: greedy vs the inventor's suggestion.

The Sect. 6 parallel-links model: m identical links from s to t, agents
arrive with loads w_i, and "the best-reply is not necessarily the least
loaded link at time τ_i, because agent i knows that the game has not
ended, and expects n - i loads to arrive."

Two per-arrival policies:

* **greedy** — least-loaded link (ties to the lowest index); Lemma 2
  bounds its final makespan by (2 - 1/m)·OPT;
* **inventor suggestion** — "the inventor computes the average load w̄
  that has appeared so far.  Given the congestion on the links by time
  τ_i, agent i computes a Nash equilibrium assignment of its own load w_i
  and of n - i loads w̄.  Namely, each load is assigned to the least
  loaded link, greatest load first [LPT].  Then the inventor suggests
  that agent i choose the link that is suggested by that Nash equilibrium
  assignment."

LPT over the multiset {w_i} ∪ {w̄ × (n-i)} only ever needs *where w_i
lands*:

* if w_i >= w̄, the own load is placed first (descending order, own load
  first among equals) — onto the currently least-loaded link;
* otherwise the n - i equal phantom loads are placed first, and w_i goes
  onto the least-loaded link of the resulting profile.

Placing q equal quanta greedily has a closed form (the q smallest values
of the slot multiset {L_j + r·w̄ : r >= 0}, ties by link index), which
:func:`place_equal_quanta_exact` implements for exact arithmetic and
:func:`place_equal_quanta_fast` approximates vectorized for the Fig. 7
scale; :func:`place_equal_quanta_heap` is the literal reference.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

from repro.errors import GameError
from repro.fractions_util import to_fraction


def argmin_link(loads: Sequence) -> int:
    """Least-loaded link, ties to the lowest index (the tie rule everywhere)."""
    best = 0
    for j in range(1, len(loads)):
        if loads[j] < loads[best]:
            best = j
    return best


class LeastLoadedTracker:
    """Incremental :func:`argmin_link`, ties to the lowest index.

    The simulations pick the least-loaded link once per arrival;
    scanning all ``m`` links each time makes the loop O(n·m).  This
    tracker keeps a lazy heap of ``(load, index)`` entries over a load
    sequence it *mutates in place* (a list or a 1-D numpy array works),
    making each arrival O(log m) amortized while reproducing the scan's
    tie-breaking exactly: heap order on ``(load, index)`` is the
    lowest-index rule.  Works for exact (Fraction/int) and float loads
    alike.
    """

    def __init__(self, loads):
        self._loads = loads  # shared, mutated in place by add()
        self._heap = [(value, j) for j, value in enumerate(loads)]
        heapq.heapify(self._heap)

    def argmin(self) -> int:
        """Index of the least-loaded link (lowest index on ties)."""
        heap = self._heap
        while True:
            value, j = heap[0]
            if value == self._loads[j]:
                return j
            heapq.heappop(heap)  # stale entry from an earlier add()

    def add(self, index: int, load) -> None:
        """Put ``load`` onto link ``index`` (any link, not just the argmin)."""
        self._loads[index] = self._loads[index] + load
        heapq.heappush(self._heap, (self._loads[index], index))

    def assign_least_loaded(self, load) -> int:
        """Greedy step: add ``load`` to the least-loaded link, return it.

        Pops the minimum and reinserts its updated value, so a pure
        greedy trajectory keeps the heap at exactly one entry per link
        (no stale-entry growth).
        """
        heap = self._heap
        loads = self._loads
        while True:
            value, j = heapq.heappop(heap)
            if value == loads[j]:
                break
        loads[j] = value + load
        heapq.heappush(heap, (loads[j], j))
        return j


def greedy_assign(loads: list, load) -> int:
    """Greedy policy: put ``load`` on the least-loaded link; returns the link."""
    j = argmin_link(loads)
    loads[j] = loads[j] + load
    return j


# ----------------------------------------------------------------------
# Equal-quanta placement (the phantom future loads)
# ----------------------------------------------------------------------


def place_equal_quanta_heap(loads: Sequence, quantum, count: int) -> list:
    """Reference implementation: ``count`` sequential least-loaded placements.

    Works for exact (Fraction/int) and float loads alike; ties break by
    link index via the (load, index) heap order.
    """
    if count < 0:
        raise GameError("count must be non-negative")
    result = list(loads)
    if count == 0 or not result:
        return result
    heap = [(value, j) for j, value in enumerate(result)]
    heapq.heapify(heap)
    for _ in range(count):
        value, j = heapq.heappop(heap)
        value = value + quantum
        result[j] = value
        heapq.heappush(heap, (value, j))
    return result


def place_equal_quanta_exact(loads: Sequence, quantum, count: int) -> list:
    """Closed-form equal-quanta placement over exact arithmetic.

    The greedy process takes the ``count`` smallest slots of the multiset
    ``{(L_j + r*quantum, j) : r >= 0}`` in (value, index) order.  We find
    the threshold slot value by bisection over slot values, count the
    slots strictly below it per link, and hand out the ties at the
    threshold in index order.  Exactly equivalent to
    :func:`place_equal_quanta_heap` on Fractions/ints.
    """
    if count < 0:
        raise GameError("count must be non-negative")
    values = [to_fraction(v) for v in loads]
    quantum = to_fraction(quantum)
    m = len(values)
    if count == 0 or m == 0:
        return values
    if quantum == 0:
        # Every quantum lands on the same (min value, min index) link.
        return values  # loads are unchanged by zero quanta
    if quantum < 0:
        raise GameError("quantum must be non-negative")

    def slots_below(theta: Fraction) -> int:
        """Number of slots with value strictly below theta."""
        total = 0
        for v in values:
            if theta > v:
                # r ranges over 0 <= r < (theta - v)/quantum.
                gap = (theta - v) / quantum
                r_max = gap.numerator // gap.denominator
                if gap == r_max:
                    total += r_max
                else:
                    total += r_max + 1
        return total

    # Bisect on the threshold slot value.  The sanity check on the final
    # counts below makes any bisection shortfall safe: a mis-identified
    # threshold can only fail the accounting test, never silently give a
    # wrong assignment (see the inequality analysis in the tests).
    lo = min(values)
    hi = lo + quantum * (count + 1)
    lo_val, hi_val = lo, hi
    for _ in range(count.bit_length() + max(1, m).bit_length() + 64):
        if hi_val - lo_val <= 0:
            break
        mid = (lo_val + hi_val) / 2
        if slots_below(mid) <= count:
            lo_val = mid
        else:
            hi_val = mid
    # The threshold slot value theta* is the largest slot value <= lo_val.
    theta = None
    for v in values:
        if v <= lo_val:
            r = int((lo_val - v) / quantum)
            candidate = v + quantum * r
            if theta is None or candidate > theta:
                theta = candidate
    if theta is None:
        theta = lo
    base = []
    ties = []
    for j, v in enumerate(values):
        if theta > v:
            gap = (theta - v) / quantum
            r_max = gap.numerator // gap.denominator
            below = r_max if gap == r_max else r_max + 1
        else:
            below = 0
        base.append(below)
        if theta >= v and (theta - v) % quantum == 0:
            ties.append(j)
    assigned = sum(base)
    remaining = count - assigned
    if remaining < 0 or remaining > len(ties):
        # Fall back to the reference on any accounting mismatch.
        return place_equal_quanta_heap(values, quantum, count)
    for j in ties[:remaining]:
        base[j] += 1
    return [v + quantum * k for v, k in zip(values, base)]


def place_equal_quanta_fast(loads: "np.ndarray", quantum: float, count: int) -> "np.ndarray":
    """Vectorized float placement for Fig. 7 scale.

    Water-fill by bisection to within one quantum, then a short heap pass
    for the residual (< m quanta), so the result matches the greedy
    process up to float rounding.  For small counts the heap reference is
    used directly.  Requires numpy (callers on a bare interpreter use
    :func:`place_equal_quanta_heap`; :func:`inventor_suggestion` falls
    back automatically).
    """
    if np is None:
        raise ImportError("place_equal_quanta_fast requires numpy")
    if count < 0:
        raise GameError("count must be non-negative")
    m = loads.shape[0]
    if count == 0 or m == 0:
        return loads.copy()
    if quantum <= 0:
        if quantum == 0:
            return loads.copy()
        raise GameError("quantum must be non-negative")
    if count <= 4 * m or count <= 64:
        return np.array(
            place_equal_quanta_heap(loads.tolist(), quantum, count), dtype=float
        )
    lo = float(loads.min())
    hi = lo + quantum * (count + 1)
    for _ in range(64):
        mid = (lo + hi) / 2.0
        below = np.ceil(np.maximum(mid - loads, 0.0) / quantum).sum()
        if below <= count:
            lo = mid
        else:
            hi = mid
    counts = np.ceil(np.maximum(lo - loads, 0.0) / quantum)
    counts = np.minimum(counts, count)  # paranoia against float blowup
    assigned = int(counts.sum())
    if assigned > count:
        # Shave the excess from the most-loaded waterline links.
        overfull = np.argsort(-(loads + counts * quantum), kind="stable")
        excess = assigned - count
        for j in overfull:
            if excess == 0:
                break
            take = int(min(excess, counts[j]))
            counts[j] -= take
            excess -= take
        assigned = count
    result = loads + counts * quantum
    residual = count - assigned
    if residual > 0:
        result = np.array(
            place_equal_quanta_heap(result.tolist(), quantum, residual), dtype=float
        )
    return result


# ----------------------------------------------------------------------
# The inventor's per-arrival suggestion
# ----------------------------------------------------------------------


def inventor_suggestion(
    loads: Sequence, own_load, expected_load, future_count: int, fast: bool = True,
    least_loaded: int | None = None,
) -> int:
    """The link LPT assigns to ``own_load`` among the phantom future loads.

    ``loads`` are the current link loads, ``expected_load`` is the
    inventor's per-agent estimate w̄, ``future_count`` is n - i.  Ties in
    the descending LPT order put the agent's own load before equal
    phantom loads.  ``least_loaded`` optionally carries a precomputed
    ``argmin_link(loads)`` (simulation loops track it incrementally) so
    the own-load-first case costs O(1) instead of a link scan.
    """
    if future_count < 0:
        raise GameError("future_count must be non-negative")
    if len(loads) == 0:
        raise GameError("need at least one link")
    if future_count == 0 or own_load >= expected_load:
        return least_loaded if least_loaded is not None else argmin_link(loads)
    if fast and np is not None:
        arr = np.asarray(loads, dtype=float)
        after = place_equal_quanta_fast(arr, float(expected_load), future_count)
        return int(after.argmin())
    after = place_equal_quanta_heap(list(loads), expected_load, future_count)
    return argmin_link(after)


def verify_suggestion(
    loads: Sequence, own_load, expected_load, future_count: int, suggested: int
) -> bool:
    """The agent-side *proof check* for an inventor suggestion.

    The suggestion procedure is deterministic given (loads, w_i, w̄,
    n - i), all of which the agent knows (loads are public, w̄ is the
    signed published statistic): re-run it and compare.  This is the
    Sect. 6 "formal proof that can be checked by a trusted verifier" in
    its cheapest form — recomputation of a deterministic rule.
    """
    if not 0 <= suggested < len(loads):
        return False
    return inventor_suggestion(
        loads, own_load, expected_load, future_count, fast=False
    ) == suggested


# ----------------------------------------------------------------------
# Makespan machinery (Lemma 2)
# ----------------------------------------------------------------------


def makespan(loads: Sequence) -> float:
    """The maximum load on any link."""
    if len(loads) == 0:
        raise GameError("need at least one link")
    return max(loads)


def greedy_schedule(weights: Sequence, num_links: int) -> list:
    """Run the pure greedy policy over a whole arrival sequence.

    Uses the incremental least-loaded tracker (O(log m) per arrival,
    identical tie-breaking to :func:`argmin_link`); works for exact
    (Fraction/int) and float weights alike.
    """
    if num_links < 1:
        raise GameError("need at least one link")
    loads = [0] * num_links
    tracker = LeastLoadedTracker(loads)
    for w in weights:
        tracker.assign_least_loaded(w)
    return loads


def lpt_schedule(weights: Sequence, num_links: int) -> list:
    """Offline LPT (longest processing time first) — the inventor's
    equilibrium assignment for a fully known load multiset."""
    if num_links < 1:
        raise GameError("need at least one link")
    loads = [0] * num_links
    tracker = LeastLoadedTracker(loads)
    for w in sorted(weights, reverse=True):
        tracker.assign_least_loaded(w)
    return loads


def opt_lower_bound(weights: Sequence, num_links: int):
    """max(average load, largest load) <= OPT — the two bounds Lemma 2 uses."""
    if num_links < 1:
        raise GameError("need at least one link")
    if not weights:
        return 0
    total = sum(weights)
    return max(total / num_links, max(weights))


def lemma2_bound(num_links: int) -> float:
    """The greedy guarantee factor (2 - 1/m)."""
    if num_links < 1:
        raise GameError("need at least one link")
    return 2.0 - 1.0 / num_links


def verify_lemma2(weights: Sequence, num_links: int) -> bool:
    """Check greedy makespan <= (2 - 1/m) * max(avg, max) (implies Lemma 2).

    The right-hand side lower-bounds (2 - 1/m)·OPT, so this check is
    *stronger* than the lemma's statement.
    """
    if not weights:
        return True
    # Evaluate exactly: floats convert to Fractions without rounding, so
    # the tight case (equality) is decided correctly.
    exact_weights = [to_fraction(w) for w in weights]
    loads = greedy_schedule(exact_weights, num_links)
    lhs = makespan(loads)
    total = sum(exact_weights)
    biggest = max(exact_weights)
    rhs = Fraction(total, num_links) + Fraction(num_links - 1, num_links) * biggest
    # Expression (7) of the paper's proof, before the OPT relaxation.
    return lhs <= rhs


def optimal_makespan_small(weights: Sequence, num_links: int) -> float:
    """Exact OPT by branch and bound — for tests on small instances only."""
    weights = sorted(weights, reverse=True)
    if num_links < 1:
        raise GameError("need at least one link")
    if len(weights) > 16:
        raise GameError("exact OPT is for small instances (<= 16 jobs)")
    best = [float(sum(weights))]
    loads = [0.0] * num_links

    def descend(index: int) -> None:
        if index == len(weights):
            best[0] = min(best[0], max(loads))
            return
        if max(loads) >= best[0]:
            return
        seen: set[float] = set()
        for j in range(num_links):
            if loads[j] in seen:
                continue  # symmetric branch
            seen.add(loads[j])
            loads[j] += weights[index]
            descend(index + 1)
            loads[j] -= weights[index]

    descend(0)
    return best[0]
