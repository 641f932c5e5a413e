"""The benchmark's three workloads.

``warm_http``
    The shipped server (``python -m repro.server``) in its own process,
    64 distinct 6x6 games.  Set-up populates every game, stops the
    server with SIGTERM, restarts it on the same state directory
    (snapshot load and journal replay) and makes one warm pass; the
    measured phase is a closed loop, one client on one keep-alive
    connection, round-robin over the games: every request is a cache
    hit and no search runs.
``cold_small_http``
    The same server entry point with a fresh state directory and the
    CLI's default durability (flush and fsync after every drain), up
    to 10000 distinct 3x3 games; a closed loop consults each game once,
    so every request is a cache miss followed by a journal append.
``cold_search_http``
    As ``cold_small_http`` with 5x5 games: 5 + 5 actions is the smallest
    game the server's ``auto`` backend solves on numpy, so every request
    is a full support enumeration with numpy screening.  It is the
    search path in a closed loop, free of mixed_open's queueing.
``mixed_open``
    In process through ``AuthorityService``: an open loop of Poisson
    arrivals at a fixed rate, one submitter and one draining thread,
    over a cold / exact-repeat / near-repeat stream of 6x6 games solved
    by support enumeration on the numpy backend.  Latency runs from
    each request's scheduled send time.

A closed loop runs in segments of :data:`SEGMENT_S` with the host's
speed (:mod:`hostspeed`) measured between them, so every latency can be
read at the reference speed.  Each workload function returns a
:class:`Run`; correctness problems found after the timed phase are
listed in ``Run.problems``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import hostspeed
import inputs
from layers import install, layer_metrics
from quantiles import percentile, supported_tail
from server_proc import HttpClient, ServerProcess
from spans import Tracer, load_dump

AGENT = "jane"


@dataclass(frozen=True)
class Spec:
    """A workload's fixed parameters (recorded in BENCHMARK.json)."""

    name: str
    tail_pct: float  # the latency_tail_ms percentile
    slo_ms: float  # the latency limit of slo_met_share
    games: int
    size: int
    rate_per_s: float | None = None  # open loop only
    #: Closed loops read the server's peak RSS after this many measured
    #: requests, so memory is compared at equal work, not equal time.
    rss_after: int = 0


WARM_HTTP = Spec("warm_http", tail_pct=99.0, slo_ms=2.5, games=64, size=6,
                 rss_after=8000)
COLD_SMALL_HTTP = Spec("cold_small_http", tail_pct=99.0, slo_ms=12.0,
                       games=10000, size=3, rss_after=2000)
# About 25 requests/s: the 27 s of requests in a 30 s run leave more
# than 10 samples beyond p97.5.
COLD_SEARCH_HTTP = Spec("cold_search_http", tail_pct=97.5, slo_ms=100.0,
                        games=10000, size=5, rss_after=200)
MIXED_OPEN = Spec("mixed_open", tail_pct=0.0, slo_ms=250.0, games=0,
                  size=6, rate_per_s=12.0)

#: Seconds of requests between two measurements of the host's speed.
SEGMENT_S = 1.0

#: A mixed_open run is invalid when the submitter's tail lateness
#: exceeds this share of the mean gap between arrivals.
LAG_LIMIT_SHARE = 0.25


def resolve_spec(spec: Spec, seconds: float) -> Spec:
    """The spec for a run of ``seconds``: an open loop's tail is the
    highest percentile its fixed arrival count supports."""
    if spec.rate_per_s is None:
        return spec
    count = round(spec.rate_per_s * seconds)
    return dataclasses.replace(spec, tail_pct=supported_tail(count))


@dataclass
class Context:
    spec: Spec
    root: Path
    out_dir: Path
    seed: int
    seconds: float
    setup_reps: int


@dataclass
class Run:
    """What a workload measured.  The ``ref_`` figures are read at the
    reference speed (see :mod:`hostspeed`); the others are wall times."""

    attempted: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)
    ref_latencies_ms: list = field(default_factory=list)
    slo_met: int = 0
    hits: int = 0
    elapsed_s: float = 0.0
    ref_elapsed_s: float = 0.0
    setup_s: list = field(default_factory=list)
    ref_setup_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    loadgen: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return len(self.latencies_ms)

    def record(self, spec: Spec, latency_ms: float, speed: float,
               hit: bool) -> None:
        ref_ms = latency_ms * speed
        self.latencies_ms.append(latency_ms)
        self.ref_latencies_ms.append(ref_ms)
        self.slo_met += ref_ms <= spec.slo_ms
        self.hits += hit

    @property
    def speed(self) -> float:
        """The host's mean speed over the measured phase."""
        return self.ref_elapsed_s / self.elapsed_s

    def timed_setup(self, setup):
        """``setup()``, its time recorded on the wall clock and at the
        reference speed."""
        result, elapsed, ref_elapsed = hostspeed.timed(setup)
        self.setup_s.append(elapsed)
        self.ref_setup_s.append(ref_elapsed)
        return result


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# The HTTP workloads
# ----------------------------------------------------------------------


def _body(game_id: str) -> bytes:
    return json.dumps({"agent": AGENT, "game_id": game_id}).encode()


def _server_args(state: Path, spec: Spec, seed: int) -> list:
    return ["--state-dir", state, "--games", spec.games, "--size", spec.size,
            "--seed", inputs.server_seed(seed)]


class _Served:
    """First served advice per game, and the checks every later serving
    of that game must pass."""

    def __init__(self, games: dict, run: Run):
        self.games = games
        self.run = run
        self.first: dict[str, bytes] = {}

    def check(self, game_id: str, doc: dict, expect: str | None) -> None:
        advice = doc["advice"]
        problems = self.run.problems
        if not doc["majority"]["accepted"]:
            problems.append(f"{game_id}: advice not majority-accepted")
        if expect == "hit" and advice["cache"] != "hit":
            problems.append(f"{game_id}: expected a cache hit, "
                            f"got {advice['cache']!r}")
        if expect == "miss" and advice["cache"] == "hit":
            problems.append(f"{game_id}: expected a cache miss")
        key = gate.advice_key(advice)
        if game_id not in self.first:
            self.first[game_id] = key
            if not gate.exact_check(self.games[game_id], advice):
                problems.append(f"{game_id}: served advice fails the "
                                f"exact Nash check")
        elif self.first[game_id] != key:
            problems.append(f"{game_id}: advice differs from the first "
                            f"served advice")


def _consult(client: HttpClient, served: _Served, game_id: str,
             expect: str | None) -> None:
    status, payload = client.request("POST", "/consult", _body(game_id))
    if status != 200:
        raise RuntimeError(f"set-up consult of {game_id} answered {status}")
    served.check(game_id, json.loads(payload), expect)


@dataclass(frozen=True)
class Segment:
    """Requests ``records[first:stop]``, sent over ``elapsed_s`` while
    the host ran at ``speed`` times the reference speed."""

    first: int
    stop: int
    elapsed_s: float
    speed: float


def _closed_loop(client: HttpClient, game_ids, seconds: float,
                 on_count: tuple[int, object]) -> tuple[list, list]:
    """Consult ``game_ids`` in order, one at a time, for ``seconds``, in
    segments of :data:`SEGMENT_S`, the host's speed measured before the
    first and after each; a segment's speed is the mean of the two
    measurements around it.  ``on_count`` is ``(n, callback)``: the
    callback runs once ``n`` requests are done."""
    records, segments = [], []
    clock = time.perf_counter
    deadline = clock() + seconds
    count, callback = on_count
    games = iter(game_ids)
    speed = hostspeed.factor()
    running = True
    while running and clock() < deadline:
        first = len(records)
        started = clock()
        stop = min(started + SEGMENT_S, deadline)
        while True:
            sent = clock()
            if sent >= stop:
                break
            game_id = next(games, None)
            if game_id is None:
                running = False
                break
            if len(records) == count:
                callback()
            try:
                status, payload = client.request("POST", "/consult",
                                                 _body(game_id))
            except OSError as exc:
                records.append((game_id, sent, clock(), 0,
                                str(exc).encode()))
                running = False
                break
            records.append((game_id, sent, clock(), status, payload))
        elapsed = clock() - started
        after = hostspeed.factor()
        if len(records) > first:
            segments.append(Segment(first, len(records), elapsed,
                                    (speed + after) / 2))
        speed = after
    return records, segments


def _cache_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before[key]
            for key in ("hits", "warm_hits", "misses")}


def _score_http(spec: Spec, run: Run, served: _Served, records: list,
                segments: list, expect: str) -> list:
    """Check and time the measured requests (outside the timed phase);
    returns ``(rid, e2e_ms, service_ms)`` per completed request."""
    requests = []
    run.attempted = len(records)
    for segment in segments:
        run.elapsed_s += segment.elapsed_s
        run.ref_elapsed_s += segment.elapsed_s * segment.speed
        for game_id, sent, done, status, payload in (
            records[segment.first:segment.stop]
        ):
            if status != 200:
                run.failed += 1
                continue
            doc = json.loads(payload)
            served.check(game_id, doc, expect)
            rtt_ms = (done - sent) * 1000.0
            run.record(spec, rtt_ms, segment.speed,
                       doc["advice"]["cache"] == "hit")
            requests.append((int(doc["future_id"][1:]), rtt_ms,
                             doc["latency_ms"]))
    return requests


def _http_layers(spec: Spec, run: Run, spans_out: Path, records: list,
                 requests: list, cache_delta: dict) -> dict:
    spans, totals = load_dump(spans_out)
    window = (int(records[0][1] * 1e9), int(records[-1][2] * 1e9))
    metrics = layer_metrics(spans, window, requests, spec.tail_pct)
    consults = max(totals.get("consults", 0), 1)
    metrics["bus.bytes_per_consult"] = totals.get("bus_bytes", 0) / consults
    return _cache_ratios(metrics, run, cache_delta)


def _cache_ratios(metrics: dict, run: Run, delta: dict) -> dict:
    metrics["cache.hit_ratio"] = run.hits / max(run.completed, 1)
    tried = delta["warm_hits"] + delta["misses"]
    metrics["cache.hint_success_ratio"] = (
        delta["warm_hits"] / tried if tried else 0.0
    )
    return metrics


def _shutdown(server: ServerProcess | None, client: HttpClient | None):
    if client is not None:
        client.close()
    if server is not None:
        server.stop()


def _ready_server(ctx: Context, args, spans_out) -> tuple:
    """A started server and a client connected to it."""
    server = ServerProcess(ctx.root, ctx.out_dir, args, spans_out).start()
    try:
        client = HttpClient(server.port)
        client.get_json("/readyz")
    except BaseException:
        server.stop()
        raise
    return server, client


def _warm_setup(ctx: Context, args, spans_out, served, game_ids) -> tuple:
    """Populate every game, restart on the same state, one warm pass."""
    server, client = _ready_server(ctx, args, None)
    try:
        for game_id in game_ids:
            _consult(client, served, game_id, expect=None)
    finally:
        _shutdown(server, client)
    server, client = _ready_server(ctx, args, spans_out)
    try:
        for game_id in game_ids:
            _consult(client, served, game_id, expect="hit")
    except BaseException:
        _shutdown(server, client)
        raise
    return server, client


def _cold_setup(ctx: Context, args, spans_out, served, game_ids) -> tuple:
    return _ready_server(ctx, args, spans_out)


def _http_workload(ctx: Context, traced: bool, setup, order,
                   expect: str) -> Run:
    """Set up ``ctx.setup_reps`` times (timing each), then measure a
    closed loop over ``order(game_ids)`` on the last set-up's server."""
    spec = ctx.spec
    run = Run()
    game_ids = [f"g{i}" for i in range(spec.games)]
    games = dict(zip(game_ids,
                     inputs.demo_games(spec.games, spec.size, ctx.seed)))
    served = _Served(games, run)
    spans_out = ctx.out_dir / f"spans-{spec.name}.json" if traced else None
    # Per process, so two runs in one checkout never share server state.
    state = ctx.out_dir / f"state-{os.getpid()}"
    server = client = None
    try:
        for rep in range(ctx.setup_reps):
            last = rep == ctx.setup_reps - 1
            args = _server_args(_fresh_dir(state), spec, ctx.seed)
            server, client = run.timed_setup(
                lambda: setup(ctx, args, spans_out if last else None,
                              served, game_ids),
            )
            if not last:
                _shutdown(server, client)
                server = client = None
        before = client.get_json("/stats")["cache"]

        def read_rss():
            run.peak_rss_mb = server.peak_rss_mb()

        records, segments = _closed_loop(client, order(game_ids),
                                         ctx.seconds,
                                         (spec.rss_after, read_rss))
        after = client.get_json("/stats")["cache"]
        if not run.peak_rss_mb:
            run.notes["rss_read_at_end"] = True
            read_rss()
    finally:
        _shutdown(server, client)
        shutil.rmtree(state, ignore_errors=True)
    run.notes["games_exhausted"] = len(records) == spec.games
    requests = _score_http(spec, run, served, records, segments, expect)
    if traced and records:
        run.layers = _http_layers(spec, run, spans_out, records, requests,
                                  _cache_delta(before, after))
    return run


def warm_http(ctx: Context, traced: bool) -> Run:
    return _http_workload(ctx, traced, _warm_setup, itertools.cycle,
                          expect="hit")


def cold_http(ctx: Context, traced: bool) -> Run:
    return _http_workload(ctx, traced, _cold_setup, iter, expect="miss")


# ----------------------------------------------------------------------
# The open-loop, in-process workload
# ----------------------------------------------------------------------


def _mixed_service(stream, warmup_game):
    """The in-process authority for mixed_open, warmed by one consult
    of a game outside the stream."""
    from repro.core.actors import AuthorityAgent, BimatrixInventor
    from repro.core.authority import RationalityAuthority
    from repro.core.registry import standard_procedures
    from repro.service import AuthorityService

    authority = RationalityAuthority(seed=19)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(BimatrixInventor(
        "inv", method="support-enumeration", backend="numpy"
    ))
    authority.register_agent(AuthorityAgent(AGENT, player_role=0))
    for entry in stream:
        authority.publish_game("inv", entry.game_id, entry.game)
    authority.publish_game("inv", "warmup", warmup_game)
    service = AuthorityService(authority)
    future = service.submit(AGENT, "warmup")
    service.drain()
    future.result()
    return service


def _bus_bytes(service) -> int:
    bus = service.authority.bus
    return sum(bus.bytes_sent(name) for name in bus.endpoints())


@dataclass
class OpenLoop:
    """What :func:`open_loop` observed, indexed by arrival."""

    start: float
    offsets: list
    futures: list
    resolved_at: list
    lags_ms: list
    backlog_end: int = 0
    refused: int = 0

    def latency_ms(self, index: int) -> float:
        """Resolution time minus the *scheduled* send time, so a late
        submitter's delay counts against the request, not for it."""
        due = self.start + self.offsets[index]
        return (self.resolved_at[index] - due) * 1000.0


def open_loop(service, game_ids, offsets, clock=time.perf_counter,
              lead_s: float = 0.05) -> OpenLoop:
    """Admit ``game_ids[i]`` when ``offsets[i]`` seconds are due, from
    one submitter thread, while one drainer thread drains the service;
    returns once every admitted future has resolved."""
    from repro.errors import AdmissionError

    count = len(game_ids)
    loop = OpenLoop(clock() + lead_s, list(offsets), [None] * count,
                    [None] * count, [0.0] * count)
    submitted = threading.Event()

    def on_resolved(index):
        def callback(_future):
            loop.resolved_at[index] = clock()
        return callback

    def submitter():
        try:
            for index, game_id in enumerate(game_ids):
                due = loop.start + loop.offsets[index]
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                if index == count - 1:
                    loop.backlog_end = service.pending_count
                loop.lags_ms[index] = (clock() - due) * 1000.0
                try:
                    future = service.submit(AGENT, game_id)
                except AdmissionError:
                    loop.refused += 1
                    continue
                future.add_done_callback(on_resolved(index))
                loop.futures[index] = future
        finally:
            submitted.set()

    def drainer():
        while not submitted.is_set() or service.pending_count:
            if service.drain() == 0:
                time.sleep(0.0005)

    threads = [threading.Thread(target=submitter, name="perfbench-submit"),
               threading.Thread(target=drainer, name="perfbench-drain")]
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    return loop


def mixed_open(ctx: Context, traced: bool) -> Run:
    from repro.games.generators import random_bimatrix
    from repro.server.wire import jsonable
    from repro.core.session import advice_wire_summary
    from repro.service.load import KIND_REPEAT, mixed_game_stream

    spec = ctx.spec
    run = Run()
    count = round(spec.rate_per_s * ctx.seconds)
    stream = mixed_game_stream(count, size=spec.size, seed=ctx.seed)
    offsets = inputs.arrival_offsets(count, ctx.seconds, ctx.seed)
    warmup = random_bimatrix(spec.size, spec.size,
                             seed=inputs.server_seed(ctx.seed) - 1)
    service = None
    for rep in range(ctx.setup_reps):
        if service is not None:
            service.close()
        service = run.timed_setup(lambda: _mixed_service(stream, warmup))

    tracer = None
    if traced:
        tracer = Tracer()
        install(tracer)
    stats_before = service.cache.stats.as_dict()
    bus_before = _bus_bytes(service)
    speed = hostspeed.factor()
    try:
        loop = open_loop(service, [entry.game_id for entry in stream],
                         offsets)
    finally:
        if tracer is not None:
            tracer.restore()
    speed = (speed + hostspeed.factor()) / 2
    finished = max((t for t in loop.resolved_at if t is not None),
                   default=loop.start)
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.attempted = count
    run.failed = loop.refused
    run.elapsed_s = finished - loop.start
    run.ref_elapsed_s = run.elapsed_s * speed

    requests = []
    first: dict[str, bytes] = {}
    for index, entry in enumerate(stream):
        future = loop.futures[index]
        if future is None:
            continue  # refused at admission, counted above
        outcome = future.peek_outcome()
        if outcome is None:
            run.failed += 1
            continue
        advice = jsonable(advice_wire_summary(outcome.advice))
        if not outcome.majority.accepted:
            run.problems.append(f"{entry.game_id}: not majority-accepted")
        key = gate.advice_key(advice)
        if entry.kind == KIND_REPEAT:
            if first.get(entry.base_id) != key:
                run.problems.append(f"{entry.game_id}: repeat of "
                                    f"{entry.base_id} served other advice")
        else:
            first[entry.game_id] = key
            if not gate.exact_check(entry.game, advice):
                run.problems.append(f"{entry.game_id}: served advice fails "
                                    f"the exact Nash check")
        latency_ms = loop.latency_ms(index)
        run.record(spec, latency_ms, speed, advice["cache"] == "hit")
        requests.append((future.submission_id, latency_ms,
                         future.latency_ms))

    gap_ms = 1000.0 * ctx.seconds / count
    lag_tail = percentile(loop.lags_ms, spec.tail_pct)
    run.loadgen = {"loadgen.lag_tail_ms": lag_tail,
                   "loadgen.backlog_end": loop.backlog_end}
    if lag_tail > LAG_LIMIT_SHARE * gap_ms:
        run.problems.append(
            f"invalid run: submitter lag p{spec.tail_pct:g} {lag_tail:.2f} ms "
            f"exceeds {LAG_LIMIT_SHARE:g} of the {gap_ms:.1f} ms arrival gap"
        )
    if tracer is not None:
        window = (int(loop.start * 1e9), int(finished * 1e9))
        run.layers = layer_metrics(tracer.spans, window, requests,
                                   spec.tail_pct)
        tracer.dump(ctx.out_dir / "spans-mixed_open.json")
        delta = {key: service.cache.stats.as_dict()[key] - stats_before[key]
                 for key in ("hits", "warm_hits", "misses")}
        run.layers["bus.bytes_per_consult"] = (
            (_bus_bytes(service) - bus_before) / max(run.completed, 1)
        )
        _cache_ratios(run.layers, run, delta)
    service.close()
    return run


WORKLOADS = {
    "warm_http": (WARM_HTTP, warm_http),
    "cold_small_http": (COLD_SMALL_HTTP, cold_http),
    "cold_search_http": (COLD_SEARCH_HTTP, cold_http),
    "mixed_open": (MIXED_OPEN, mixed_open),
}
