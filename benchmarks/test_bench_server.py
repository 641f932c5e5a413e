"""B8 — the HTTP front-end: wire overhead and journal-flush cost.

What does always-on serving cost over the in-process service?  The
same consultation stream runs twice from cold:

* **in-process** — a ``submit`` loop + ``drain()`` per round on a bare
  :class:`AuthorityService`, no persistence: the upper bound;
* **over HTTP** — a :class:`ThreadedServer` with write-behind
  durability (journal flushed every drain), driven by a closed-loop
  ``http.client`` caller: every request crosses a real socket, every
  drain writes its journal frames, and the journal's committer thread
  fsyncs them at most every ``COMMIT_INTERVAL_S``.

Reported: requests/second on both paths, the wire+durability overhead
factor, and the journal-flush cost per drain (the price of the
crash-loss bound).  Soundness is asserted across transports: the HTTP
advice must be string-identical to the in-process suggestions, and a
restarted server on the surviving state directory must serve the same
games as cache hits.
"""

from __future__ import annotations

import http.client
import json
import time

from repro.analysis import PaperComparison, TextTable
from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.server import ThreadedServer
from repro.service import AuthorityService


def _scale(bench_scale):
    """(distinct games, game size, warm rounds) per scale."""
    return {
        "quick": (6, 3, 2),
        "default": (12, 4, 4),
        "full": (24, 5, 6),
    }[bench_scale]


def _authority(bases):
    authority = RationalityAuthority(seed=23)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(
        BimatrixInventor("inv", method="support-enumeration", backend="auto")
    )
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for i, game in enumerate(bases):
        authority.publish_game(
            "inv", f"g{i}",
            BimatrixGame(game.row_matrix, game.column_matrix),
        )
    return authority


def _http_consult(conn, game_id):
    conn.request(
        "POST", "/consult",
        json.dumps({"agent": "jane", "game_id": game_id}),
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    body = json.loads(resp.read())
    assert resp.status == 200, (resp.status, body)
    return body


def test_bench_server_http(
    benchmark, bench_scale, record_table, record_metrics, tmp_path
):
    games, size, rounds = _scale(bench_scale)
    bases = [random_bimatrix(size, size, seed=9300 + i) for i in range(games)]
    stream = [f"g{i}" for i in range(games)] * (1 + rounds)  # cold + warm

    # --- In-process baseline: no socket, no journal.  Same cache
    # logic as the HTTP side (in-memory SolveCache) so both paths take
    # the same solves and the advice identity below is deterministic;
    # the only delta left is wire + durability.
    authority = _authority(bases)
    service = AuthorityService(authority)
    start = time.perf_counter()
    outcomes = []
    for round_start in range(0, len(stream), games):
        futures = [
            service.submit("jane", game_id)
            for game_id in stream[round_start:round_start + games]
        ]
        service.drain()
        outcomes.extend(f.result() for f in futures)
    inproc_seconds = time.perf_counter() - start
    assert all(o.majority.accepted and o.adopted for o in outcomes)
    inproc_advice = [  # wire format: always "num/den", even for integers
        [f"{p.numerator}/{p.denominator}" for p in o.advice.suggestion]
        for o in outcomes[:games]
    ]
    service.close()
    authority.close()

    # --- HTTP + write-behind: every drain flushes journal frames. ---
    authority = _authority(bases)
    http_service = AuthorityService(authority, state_dir=tmp_path / "state")
    persister = http_service.persister
    http_advice = []
    http_states = []
    with ThreadedServer(http_service) as threaded:
        conn = http.client.HTTPConnection(
            "127.0.0.1", threaded.port, timeout=300
        )
        try:
            start = time.perf_counter()
            for game_id in stream:
                body = _http_consult(conn, game_id)
                http_states.append(body["advice"]["cache"])
                if len(http_advice) < games:
                    http_advice.append(body["advice"]["suggestion"])
            http_seconds = time.perf_counter() - start
            # The response resolves before the end-of-drain flush runs
            # in the pump thread, so the last flush may still be in
            # flight: settle before reading the counters.
            deadline = time.monotonic() + 5.0
            flush_stats = persister.stats()
            while (flush_stats["flushes"] < len(stream)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
                flush_stats = persister.stats()
        finally:
            conn.close()
    authority.close()

    # --- Soundness across transports. ---
    assert http_advice == inproc_advice, "HTTP advice diverged from in-process"
    cold_states = http_states[:games]
    # A fresh state dir has nothing to hit: every first consult solves.
    assert all(s == "miss" for s in cold_states), cold_states

    # --- Restart on the surviving state dir: warm serving must be
    # cache hits, bit-identical to the cold advice.  Also hosts the
    # timed target: one warm HTTP consult round trip.
    authority = _authority(bases)
    warm_service = AuthorityService(authority, state_dir=tmp_path / "state")
    with ThreadedServer(warm_service) as threaded:
        conn = http.client.HTTPConnection(
            "127.0.0.1", threaded.port, timeout=300
        )
        try:
            warm_hits = 0
            for i in range(games):
                body = _http_consult(conn, f"g{i}")
                assert body["advice"]["suggestion"] == inproc_advice[i]
                if body["advice"]["cache"] == "hit":
                    warm_hits += 1
            benchmark(_http_consult, conn, "g0")
        finally:
            conn.close()
    authority.close()

    inproc_rate = len(stream) / inproc_seconds
    http_rate = len(stream) / http_seconds
    overhead = inproc_rate / http_rate if http_rate > 0 else float("inf")
    flushes = max(1, flush_stats["flushes"])
    flush_ms_per_drain = flush_stats["flush_ms_total"] / flushes

    table = TextTable(
        ["path", "requests", "n = m", "seconds", "req/s", "durability"],
        title="B8: HTTP front-end vs in-process service, same stream",
    )
    table.add_row("in-process submit", len(stream), size,
                  f"{inproc_seconds:.3f}", f"{inproc_rate:.1f}", "none")
    table.add_row("HTTP + journal-per-drain", len(stream), size,
                  f"{http_seconds:.3f}", f"{http_rate:.1f}",
                  f"{flush_stats['frames_flushed']} frames")
    table.add_row("journal flush", "-", "-",
                  f"{flush_stats['flush_ms_total'] / 1000.0:.3f}",
                  "-", f"{flush_ms_per_drain:.2f} ms/drain")
    record_table("b8_server_http", table.render())

    record_metrics(
        "server_http",
        [
            {"metric": "http_requests_per_s", "value": http_rate,
             "requests": len(stream), "size": size, "unit": "1/s"},
            {"metric": "inprocess_consults_per_s", "value": inproc_rate,
             "requests": len(stream), "size": size, "unit": "1/s"},
            {"metric": "http_overhead_vs_inprocess", "value": overhead,
             "unit": "x"},
            {"metric": "journal_flush_ms_per_drain",
             "value": flush_ms_per_drain, "unit": "ms"},
            {"metric": "journal_flushes", "value": flush_stats["flushes"]},
            {"metric": "journal_frames_flushed",
             "value": flush_stats["frames_flushed"]},
            {"metric": "journal_bytes", "value": flush_stats["journal_bytes"],
             "unit": "B"},
            {"metric": "restart_warm_hits", "value": warm_hits,
             "games": games},
        ],
        backend="auto",
    )

    comparison = PaperComparison("B8 / HTTP front-end")
    comparison.add(
        "HTTP advice identical to in-process advice",
        "all games", "all games", http_advice == inproc_advice,
    )
    comparison.add(
        "restarted server serves warm cache hits",
        f"{games} hits", f"{warm_hits} hits", warm_hits == games,
    )
    comparison.add(
        "journal flushed on every drain",
        f">= {len(stream)}", str(flush_stats["flushes"]),
        flush_stats["flushes"] >= len(stream),
    )
    record_table("b8_server_http_comparison", comparison.render())
    assert comparison.all_match()
