"""Open-loop load harness for the consultation service.

Every committed benchmark before this module measured one synchronous
stream: submit, drain, divide.  A production claim needs the other
axis — *latency under offered load* — which only an **open-loop**
generator measures: arrivals follow their own clock (Poisson, bursty),
independent of how fast the service completes, so queueing delay shows
up in the numbers instead of silently throttling the workload.

The harness composes three orthogonal pieces:

* **arrival schedules** — :func:`poisson_arrivals`,
  :func:`bursty_arrivals`, :func:`uniform_arrivals`: seeded,
  deterministic offset sequences (seconds from harness start);
* **game streams** — :func:`mixed_game_stream`: a seeded mix of cold
  games (fresh payoffs), exact repeats (cache hits) and near-repeats
  (same shape, one perturbed cell — a cold search again), built on
  :mod:`repro.games.generators`;
* **the driver** — :func:`run_load`: a submitter thread admits per the
  schedule while the calling thread pumps ``service.drain()``, so a
  drain never delays an arrival; per-consultation latency comes
  straight off the existing
  :class:`~repro.service.futures.ConsultationFuture` telemetry
  (admission to resolution, queue wait included).

:func:`find_saturation` walks an offered-rate ladder and reports the
last sustained rate and the first rate whose p99 exceeds the bound —
the saturation point the benchmarks track as ``BENCH_load_*.json``.

Soundness is untouched by any of this: the harness drives the same
admission/drain/certify pipeline as every other caller, and reports
shed (backpressured) submissions separately from completed ones.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.stats import latency_summary
from repro.errors import AdmissionError, GameError
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.rng import make_rng

#: Stream-entry kinds (see mixed_game_stream).
KIND_COLD = "cold"
KIND_REPEAT = "repeat"
KIND_NEAR = "near"


#: Seconds the draining caller of :func:`run_load` sleeps when a drain
#: found the queue empty and arrivals are still due.
_DRAIN_POLL_S = 0.0005


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArrivalSchedule:
    """A deterministic sequence of arrival offsets (seconds from start)."""

    offsets: tuple[float, ...]
    label: str

    def __post_init__(self):
        if any(b < a for a, b in zip(self.offsets, self.offsets[1:])):
            raise GameError("arrival offsets must be non-decreasing")
        if any(offset < 0 for offset in self.offsets):
            raise GameError("arrival offsets must be non-negative")

    def __len__(self) -> int:
        return len(self.offsets)

    @property
    def span_s(self) -> float:
        """Seconds from the first arrival to the last."""
        return self.offsets[-1] - self.offsets[0] if self.offsets else 0.0

    @property
    def offered_rate(self) -> float:
        """Arrivals per second over the schedule's span."""
        if len(self.offsets) < 2 or self.span_s <= 0.0:
            return float("inf")
        return (len(self.offsets) - 1) / self.span_s


def poisson_arrivals(rate: float, count: int, seed: int) -> ArrivalSchedule:
    """Poisson arrivals at ``rate`` per second (exponential gaps)."""
    if rate <= 0:
        raise GameError("arrival rate must be positive")
    if count < 1:
        raise GameError("need at least one arrival")
    rng = make_rng(seed, f"poisson:{rate}:{count}")
    offsets = []
    now = 0.0
    for __ in range(count):
        offsets.append(now)
        now += rng.expovariate(rate)
    return ArrivalSchedule(
        offsets=tuple(offsets), label=f"poisson@{rate:g}/s"
    )


def bursty_arrivals(burst_size: int, bursts: int, gap_s: float,
                    within_s: float = 0.0, seed: int = 0) -> ArrivalSchedule:
    """Bursts of ``burst_size`` arrivals every ``gap_s`` seconds.

    ``within_s > 0`` spreads each burst's arrivals uniformly (seeded)
    across that window instead of landing them on one instant — the
    queue still spikes, but admission timestamps differ, which is what
    exercises the high-water mark.
    """
    if burst_size < 1 or bursts < 1:
        raise GameError("need at least one arrival per burst and one burst")
    if gap_s < 0 or within_s < 0:
        raise GameError("burst spacing must be non-negative")
    rng = make_rng(seed, f"bursty:{burst_size}x{bursts}")
    offsets = []
    for burst in range(bursts):
        base = burst * gap_s
        jitters = sorted(
            rng.uniform(0.0, within_s) if within_s > 0 else 0.0
            for __ in range(burst_size)
        )
        offsets.extend(base + jitter for jitter in jitters)
    return ArrivalSchedule(
        offsets=tuple(offsets),
        label=f"bursty:{burst_size}x{bursts}@{gap_s:g}s",
    )


def uniform_arrivals(rate: float, count: int) -> ArrivalSchedule:
    """Evenly spaced arrivals at ``rate`` per second (deterministic)."""
    if rate <= 0:
        raise GameError("arrival rate must be positive")
    if count < 1:
        raise GameError("need at least one arrival")
    return ArrivalSchedule(
        offsets=tuple(i / rate for i in range(count)),
        label=f"uniform@{rate:g}/s",
    )


# ----------------------------------------------------------------------
# Game streams
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamEntry:
    """One game in a load stream: id, payoffs, and how it relates to
    earlier entries (``base_id`` names the cold game a repeat copies or
    a near-repeat perturbs)."""

    game_id: str
    game: BimatrixGame
    kind: str
    base_id: str | None = None


def mixed_game_stream(count: int, size: int = 4, seed: int = 0,
                      repeat_fraction: float = 0.4,
                      near_fraction: float = 0.2,
                      prefix: str = "load") -> list[StreamEntry]:
    """A seeded mixed cold/repeat/near-repeat game stream.

    * ``cold`` — fresh random payoffs (a cache miss and a full search);
    * ``repeat`` — an earlier cold game's exact payoff bytes under a
      new id (a fingerprint cache hit: zero search);
    * ``near`` — an earlier cold game with a single payoff cell bumped
      (a different fingerprint, so a cache miss and a full search).

    The kind sequence and every payoff are functions of ``seed`` alone.
    The first entry is always cold; fractions are of the remaining
    ``count - 1`` draws.
    """
    if count < 1:
        raise GameError("need at least one game")
    if repeat_fraction < 0 or near_fraction < 0 \
            or repeat_fraction + near_fraction > 1:
        raise GameError("stream fractions must be a sub-probability")
    rng = make_rng(seed, f"load-stream:{count}x{size}")
    stream: list[StreamEntry] = []
    cold: list[StreamEntry] = []

    def fresh(index: int) -> StreamEntry:
        game = random_bimatrix(
            size, size, seed=rng.randrange(1 << 30),
            name=f"{prefix}-cold-{index}",
        )
        entry = StreamEntry(f"{prefix}{index}", game, KIND_COLD)
        cold.append(entry)
        return entry

    for index in range(count):
        draw = rng.random() if index else 1.0
        if draw < repeat_fraction and cold:
            base = cold[rng.randrange(len(cold))]
            entry = StreamEntry(
                f"{prefix}{index}",
                BimatrixGame(base.game.row_matrix, base.game.column_matrix),
                KIND_REPEAT,
                base_id=base.game_id,
            )
        elif draw < repeat_fraction + near_fraction and cold:
            base = cold[rng.randrange(len(cold))]
            a = [list(row) for row in base.game.row_matrix]
            a[rng.randrange(size)][rng.randrange(size)] += 1
            entry = StreamEntry(
                f"{prefix}{index}",
                BimatrixGame(a, base.game.column_matrix),
                KIND_NEAR,
                base_id=base.game_id,
            )
        else:
            entry = fresh(index)
        stream.append(entry)
    return stream


def publish_stream(authority, inventor_name: str,
                   stream: Sequence[StreamEntry]) -> None:
    """Publish every stream entry under its inventor (setup, not load)."""
    for entry in stream:
        authority.publish_game(inventor_name, entry.game_id, entry.game)


# ----------------------------------------------------------------------
# The open-loop driver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LoadReport:
    """What one load run measured.

    ``latency_ms`` carries the p50/p95/p99/max of completed
    consultations' end-to-end latencies; ``shed`` counts submissions
    the service refused under backpressure (they are *offered* load,
    so they count toward ``offered_rate`` but not ``throughput``).
    """

    label: str
    submitted: int
    completed: int
    failed: int
    shed: int
    duration_s: float
    offered_rate: float
    throughput: float
    latency_ms: dict = field(default_factory=dict)
    cache_counts: dict = field(default_factory=dict)
    kind_counts: dict = field(default_factory=dict)

    @property
    def p99_ms(self) -> float:
        return self.latency_ms.get("p99", 0.0)

    def saturated(self, p99_bound_ms: float,
                  min_throughput_ratio: float = 0.75) -> bool:
        """Did the service fail to keep up with this run's offered rate?

        Three signals, any of which marks the rung saturated: load was
        shed, the p99 blew the latency bound, or completed throughput
        fell below ``min_throughput_ratio`` of the offered rate (below
        capacity the service tracks arrivals, so a large deficit means
        the queue was still draining long after the last arrival — the
        robust signal on short runs, where p99 is one slow
        consultation).
        """
        deficit = (
            self.offered_rate > 0.0
            and self.throughput < min_throughput_ratio * self.offered_rate
        )
        return self.shed > 0 or self.p99_ms > p99_bound_ms or deficit


def run_load(service, agent_name: str, stream: Sequence[StreamEntry],
             schedule: ArrivalSchedule) -> LoadReport:
    """Drive one open-loop run; returns the measured :class:`LoadReport`.

    ``stream`` entries must already be published (see
    :func:`publish_stream`) — publishing is setup, not load.  Arrival
    ``i`` submits stream entry ``i``; the schedule and stream must be
    equally long.

    A submitter thread admits each arrival when its offset is due; the
    caller's thread is the drainer: it pumps ``service.drain()`` until
    the submitter finishes and the queue is empty.
    """
    if len(stream) != len(schedule):
        raise GameError("stream and schedule lengths must match")
    futures: list = [None] * len(stream)
    shed: list[int] = []
    started = time.perf_counter()
    done = threading.Event()

    def submitter() -> None:
        try:
            for index, offset in enumerate(schedule.offsets):
                delay = offset - (time.perf_counter() - started)
                if delay > 0:
                    time.sleep(delay)
                try:
                    futures[index] = service.submit(
                        agent_name, stream[index].game_id
                    )
                except AdmissionError:
                    shed.append(index)
        finally:
            done.set()

    thread = threading.Thread(
        target=submitter, name="repro-load-submitter", daemon=True
    )
    thread.start()
    while not done.is_set() or service.pending_count:
        if service.drain() == 0 and not done.is_set():
            time.sleep(_DRAIN_POLL_S)
    thread.join()
    service.drain()  # late admissions between the final checks
    duration = time.perf_counter() - started
    return _report(stream, schedule, futures, shed, duration)


def _report(stream, schedule, futures, shed, duration: float) -> LoadReport:
    latencies = []
    cache_counts: dict[str, int] = {}
    kind_counts: dict[str, int] = {}
    completed = failed = 0
    for entry, future in zip(stream, futures):
        if future is None:
            continue
        outcome = future.peek_outcome()
        if outcome is None:
            failed += 1
            continue
        completed += 1
        if future.latency_ms is not None:
            latencies.append(future.latency_ms)
        state = outcome.advice.cache or "uncached"
        cache_counts[state] = cache_counts.get(state, 0) + 1
        kind_counts[entry.kind] = kind_counts.get(entry.kind, 0) + 1
    return LoadReport(
        label=schedule.label,
        submitted=len(stream) - len(shed),
        completed=completed,
        failed=failed,
        shed=len(shed),
        duration_s=duration,
        offered_rate=schedule.offered_rate,
        throughput=completed / duration if duration > 0 else float("inf"),
        latency_ms=latency_summary(latencies),
        cache_counts=cache_counts,
        kind_counts=kind_counts,
    )


# ----------------------------------------------------------------------
# Saturation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SaturationResult:
    """The outcome of an offered-rate ladder scan.

    ``sustained_rate`` is the highest offered rate whose p99 stayed
    within the bound with nothing shed; ``saturation_rate`` is the
    first offered rate that blew it (``None`` when the ladder never
    saturated — the committed benches pick ladders that do).
    """

    p99_bound_ms: float
    sustained_rate: float | None
    saturation_rate: float | None
    reports: tuple[LoadReport, ...]


def find_saturation(run_at_rate: Callable[[float], LoadReport],
                    rates: Sequence[float],
                    p99_bound_ms: float) -> SaturationResult:
    """Walk the rate ladder until p99 exceeds the bound.

    ``run_at_rate`` runs one fresh load run at the offered rate (the
    caller chooses service construction, stream and warm-state policy)
    and returns its report.  Rates must be increasing; the scan stops
    at the first saturated rung.
    """
    if not rates:
        raise GameError("need at least one offered rate")
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise GameError("offered rates must be increasing")
    reports: list[LoadReport] = []
    sustained = saturation = None
    for rate in rates:
        report = run_at_rate(rate)
        reports.append(report)
        if report.saturated(p99_bound_ms):
            saturation = rate
            break
        sustained = rate
    return SaturationResult(
        p99_bound_ms=p99_bound_ms,
        sustained_rate=sustained,
        saturation_rate=saturation,
        reports=tuple(reports),
    )
