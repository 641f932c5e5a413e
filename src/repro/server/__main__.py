"""``python -m repro.server`` — stand up a demo authority over HTTP.

Builds a deterministic demo world (one inventor, one agent, ``--games``
random bimatrix games whose payoffs depend only on ``--seed``, published
as ``g0`` … ``gN-1``) over a service with the optional write-behind
state directory, and serves until SIGTERM/SIGINT.  Because the games
are reconstructed bit-identically from the seed on every start, a
restart against the same ``--state-dir`` warm-serves the previous
run's certified entries — this CLI is the process the crash-recovery
test SIGKILLs and revives.

The bound port is announced on stdout as a single line ``PORT <n>``
(flushed before serving), so a parent process can spawn ``--port 0``
and parse where the server actually landed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import sys

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.games.generators import random_bimatrix
from repro.server.app import AuthorityHTTPServer
from repro.service import AuthorityService

DEFAULT_AGENT = "jane"
DEFAULT_INVENTOR = "inv"


def build_demo_authority(games: int, size: int, seed: int,
                         verifier_seed: int = 19) -> RationalityAuthority:
    """The deterministic demo world: same seed → same payoff bytes →
    same cache fingerprints across restarts."""
    authority = RationalityAuthority(seed=verifier_seed)
    authority.register_verifiers(standard_procedures())
    inventor = BimatrixInventor(
        DEFAULT_INVENTOR, method="support-enumeration", backend="auto"
    )
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent(DEFAULT_AGENT, player_role=0))
    for i in range(games):
        authority.publish_game(
            DEFAULT_INVENTOR, f"g{i}", random_bimatrix(size, size, seed=seed + i)
        )
    return authority


def build_server(args) -> tuple[AuthorityHTTPServer, AuthorityService]:
    authority = build_demo_authority(args.games, args.size, args.seed)
    service = AuthorityService(
        authority, state_dir=args.state_dir or None,
        max_pending=args.max_pending,
    )
    server = AuthorityHTTPServer(service, host=args.host, port=args.port)
    return server, service


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks a free port (announced on stdout)")
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="enable write-behind durability: the certified profiles "
             "each drain stores are appended to DIR/journal.jsonl when "
             "the drain ends and fsynced by a committer thread at most "
             "every 20 ms; the file is compacted once "
             "it holds twice as many frames as the cache holds "
             "entries, on POST /admin/snapshot and at shutdown",
    )
    parser.add_argument("--games", type=int, default=16)
    parser.add_argument("--size", type=int, default=4)
    parser.add_argument("--seed", type=int, default=6100)
    parser.add_argument("--max-pending", type=int, default=None,
                        help="admission high-water mark (429 past it)")
    args = parser.parse_args(argv)
    if args.games < 0:
        parser.error(f"--games must be at least 0, got {args.games}")
    if args.size < 1:
        parser.error(f"--size must be at least 1, got {args.size}")
    return args


async def _serve(args) -> None:
    server, _service = build_server(args)
    await server.start()
    # Move everything alive after start-up (the published games, the
    # replayed cache) to the permanent generation, so full collections
    # stop walking it.  No collect() first: on a large start-up heap it
    # would cost a full collection for nothing the freeze needs.
    gc.freeze()
    print(f"PORT {server.port}", flush=True)
    print(
        f"repro.server listening on http://{server.host}:{server.port} "
        f"(durable={bool(args.state_dir)})",
        flush=True,
    )
    await server.serve_forever()
    print("repro.server: graceful shutdown complete", flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
