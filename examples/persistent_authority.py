#!/usr/bin/env python3
"""Persistent warm state: an authority that survives a restart.

The paper's asymmetry — search is PPAD-hard, verification is
polynomial — is what makes warm state *restartable*: certified
equilibria can be kept on disk across process lifetimes because
re-verifying them on load is cheap, while recomputing them is not.
This demo walks the full lifecycle:

1. **Cold run.**  A service with a state directory answers a stream
   of consultations the hard way (all cache misses), journals each
   drain's certified profiles, and compacts its warm state on
   ``close()`` — exact ``num/den`` fractions, schema version, a digest
   per frame and over them all, atomic replace.
2. **Restart.**  A *fresh* authority (new inventors, empty memos) with
   the same ``state_dir`` recovers the journal; the same games under
   new ids are served as cache hits, each loaded profile re-certified
   through the Lemma-1 lattice gate before its first serve — and the
   advice is bit-identical to the cold run's.
3. **Tampering.**  One flipped byte in the file and the next load is
   rejected outright: the cache starts empty (clean misses, cold
   solves, still-certified advice) and the audit log records
   ``cache.load.rejected`` — corruption can cost time, never soundness.

Run:  python examples/persistent_authority.py
"""

import os
import tempfile

from repro.core import (
    AuthorityAgent,
    BimatrixInventor,
    RationalityAuthority,
    standard_procedures,
)
from repro.core.audit_events import EVENT_CACHE_LOAD_REJECTED, EVENT_CACHE_LOADED
from repro.games import ROW
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.service import AuthorityService

GAMES = 4


def build_authority(bases, prefix: str) -> RationalityAuthority:
    """A fresh authority — new inventor, empty memos — over ``bases``."""
    authority = RationalityAuthority(seed=2011)
    authority.register_verifiers(standard_procedures())
    inventor = BimatrixInventor("hard-games-inc", method="support-enumeration")
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=ROW))
    for i, game in enumerate(bases):
        # Reconstructed payoffs, new ids: only the payoff *bytes* match.
        clone = BimatrixGame(game.row_matrix, game.column_matrix)
        authority.publish_game("hard-games-inc", f"{prefix}{i}", clone)
    return authority


def consult_stream(authority, service, prefix: str):
    futures = [service.submit("jane", f"{prefix}{i}") for i in range(GAMES)]
    service.drain()
    return [future.result() for future in futures]


def main() -> None:
    bases = [random_bimatrix(5, 5, seed=1100 + i) for i in range(GAMES)]
    with tempfile.TemporaryDirectory() as state_dir:
        journal = os.path.join(state_dir, "journal.jsonl")

        # -- 1: the cold run populates and persists the cache ------------
        authority = build_authority(bases, "cold")
        service = AuthorityService(authority, state_dir=state_dir)
        cold = consult_stream(authority, service, "cold")
        service.close()  # compacts the journal atomically
        authority.close()
        print("--- cold run ---")
        print(f"consultations: {len(cold)}, "
              f"all adopted: {all(o.adopted for o in cold)}")
        print(f"cache states:  {[o.advice.cache for o in cold]}")
        print(f"saved {os.path.getsize(journal)} bytes to {journal}")

        # -- 2: "restart" — a fresh process image, same state directory --
        authority = build_authority(bases, "warm")
        service = AuthorityService(authority, state_dir=state_dir)
        loaded = authority.audit.events_of(EVENT_CACHE_LOADED)[-1]
        print("\n--- restarted run ---")
        print(f"warm-loaded: {loaded.details['journal_profiles']} profiles")
        warm = consult_stream(authority, service, "warm")
        identical = all(
            w.advice.suggestion == c.advice.suggestion
            for w, c in zip(warm, cold)
        )
        print(f"cache states:  {[o.advice.cache for o in warm]}")
        print(f"advice bit-identical to the cold run: {identical}")
        service.close()
        authority.close()

        # -- 3: tampering is rejected, soundness is untouched -------------
        with open(journal, "rb") as handle:
            blob = bytearray(handle.read())
        blob[len(blob) // 2] ^= 0x01
        with open(journal, "wb") as handle:
            handle.write(bytes(blob))
        authority = build_authority(bases, "post")
        service = AuthorityService(authority, state_dir=state_dir)
        rejected = authority.audit.events_of(EVENT_CACHE_LOAD_REJECTED)[-1]
        print("\n--- tampered file ---")
        print(f"load rejected: {rejected.details['reason']}")
        post = consult_stream(authority, service, "post")
        print(f"cache states:  {[o.advice.cache for o in post]} "
              "(clean misses)")
        print("advice still certified and adopted: "
              f"{all(o.adopted for o in post)}")
        service.close()
        authority.close()


if __name__ == "__main__":
    main()
