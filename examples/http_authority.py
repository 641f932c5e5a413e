#!/usr/bin/env python3
"""Serving the rationality authority over HTTP, durably.

The paper's authority is a *service*: agents bring games, the service
returns verified advice.  This demo runs the full always-on shape —
an asyncio HTTP front-end with a background drain pump (no client ever
pumps the queue) and write-behind durability (journal appended every
drain, compacted on demand and at shutdown):

1. **Serve.**  A ``ThreadedServer`` binds an ephemeral port over a
   durable state directory; plain ``http.client`` requests consult it,
   one request per consultation, each answered once it resolves
   (``deadline_ms`` bounds the wait).
2. **Observe.**  ``/stats`` and ``/audit`` expose the cache counters,
   persistence cadence and the append-only audit trail over the wire.
3. **Restart.**  A graceful stop compacts the journal; a second
   server on the same directory warm-serves bit-identical advice.

Run:  python examples/http_authority.py
"""

import http.client
import json
import tempfile

from repro.core import (
    AuthorityAgent,
    BimatrixInventor,
    RationalityAuthority,
    standard_procedures,
)
from repro.games import ROW
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.server import ThreadedServer, WriteBehindPersister, state_path
from repro.service import AuthorityService, SolveCache

GAMES = 4


def build_authority() -> RationalityAuthority:
    authority = RationalityAuthority(seed=2011)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(
        BimatrixInventor("hard-games-inc", method="support-enumeration")
    )
    authority.register_agent(AuthorityAgent("jane", player_role=ROW))
    for i in range(GAMES):
        base = random_bimatrix(4, 4, seed=4400 + i)
        # Rebuilt from the seed each start: same payoff bytes, so the
        # cache fingerprints line up across "process" lifetimes.
        authority.publish_game(
            "hard-games-inc", f"g{i}",
            BimatrixGame(base.row_matrix, base.column_matrix),
        )
    return authority


def build_server(state_dir) -> tuple[ThreadedServer, AuthorityService]:
    cache = SolveCache()  # pathless: the persister owns the state file
    service = AuthorityService(build_authority(), solve_cache=cache)
    persister = WriteBehindPersister(cache, state_path(state_dir))
    return ThreadedServer(service, persister=persister), service


def request(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path,
                     body=None if body is None else json.dumps(body),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def main() -> None:
    state_dir = tempfile.mkdtemp()

    # -- 1: serve over HTTP ------------------------------------------------
    server, _service = build_server(state_dir)
    with server:
        port = server.port
        print(f"--- serving on {server.url} (state in {state_dir}) ---")
        status, health = request(port, "GET", "/healthz")
        print(f"healthz: {status} {health}")

        status, outcome = request(port, "POST", "/consult",
                                  {"agent": "jane", "game_id": "g0"})
        print(f"consult g0: {status}, cache={outcome['advice']['cache']}, "
              f"suggestion={outcome['advice']['suggestion']}")

        for i in range(GAMES):
            status, outcome = request(port, "POST", "/consult",
                                      {"agent": "jane", "game_id": f"g{i}",
                                       "deadline_ms": 30_000})
            print(f"consult g{i} (30 s deadline): {status}, "
                  f"cache={outcome['advice']['cache']}, "
                  f"inventor={outcome['inventor']}")

        # -- 2: observability ----------------------------------------------
        status, stats = request(port, "GET", "/stats")
        print(f"stats: cache={stats['cache']['hits']} hits / "
              f"{stats['cache']['misses']} misses, "
              f"journal flushes={stats['persistence']['flushes']}")
        status, audit = request(port, "GET", "/audit?event=server.started")
        print(f"audit tail: {audit['returned']} server.started record(s)")
        status, snap = request(port, "POST", "/admin/snapshot")
        print(f"admin snapshot: journal compacted to {snap['entries']} "
              "entries")
    print("graceful stop: drained, flushed, compacted")

    # -- 3: restart on the same state directory ----------------------------
    server, _service = build_server(state_dir)
    with server:
        status, outcome = request(server.port, "POST", "/consult",
                                  {"agent": "jane", "game_id": "g0"})
        print("\n--- restarted server ---")
        print(f"consult g0 again: cache={outcome['advice']['cache']} "
              f"(warm from disk), suggestion={outcome['advice']['suggestion']}")
    print("done: certified advice survived the restart bit for bit")


if __name__ == "__main__":
    main()
