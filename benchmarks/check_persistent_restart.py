#!/usr/bin/env python
"""CI guard: a restarted authority serves bit-identical advice from disk.

This is the restart contract run as two *separate processes* sharing
nothing but one state directory — exactly what the in-process tests
cannot prove on their own:

* **cold phase** — a fresh authority whose service has
  ``state_dir=<state-dir>`` consults a fixed deterministic stream (all
  cold solves), records every suggestion as exact ``num/den`` strings
  to ``<advice-file>``, and compacts the journal on close;
* **warm phase** — a *new process* builds a fresh authority over the
  same payoff bytes under different game ids, recovers the directory's
  journal (its ``cache.load.completed`` record must say
  ``journal_accepted``), and asserts that every consultation is a
  cache ``hit``, that zero loaded entries were rejected by the Lemma-1
  gate, and that every suggestion is string-for-string identical to
  the cold phase's record.

The service screens in process and verifies inline on the draining
thread on every interpreter, so one round trip covers the only serving
path.

Exit status: 0 on success, 1 on any mismatch (a restarted authority
that forgot — or worse, changed — its advice is a failed guard).

Usage::

    python benchmarks/check_persistent_restart.py <state-dir> <advice-file> cold
    python benchmarks/check_persistent_restart.py <state-dir> <advice-file> warm
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core.actors import AuthorityAgent, BimatrixInventor  # noqa: E402
from repro.core.audit_events import (  # noqa: E402
    EVENT_CACHE_LOAD_REJECTED,
    EVENT_CACHE_LOADED,
)
from repro.core.authority import RationalityAuthority  # noqa: E402
from repro.core.registry import standard_procedures  # noqa: E402
from repro.games.bimatrix import BimatrixGame  # noqa: E402
from repro.games.generators import random_bimatrix  # noqa: E402
from repro.service import AuthorityService  # noqa: E402

STREAM = 10
SIZE = 4
SEED = 6100


def build_authority(prefix: str) -> RationalityAuthority:
    authority = RationalityAuthority(seed=19)
    authority.register_verifiers(standard_procedures())
    inventor = BimatrixInventor(
        "inv", method="support-enumeration", backend="auto"
    )
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for i in range(STREAM):
        base = random_bimatrix(SIZE, SIZE, seed=SEED + i)
        # Reconstructed per phase: only the payoff bytes are shared.
        clone = BimatrixGame(base.row_matrix, base.column_matrix)
        authority.publish_game("inv", f"{prefix}{i}", clone)
    return authority


def consult_stream(authority, service, prefix: str) -> list[dict]:
    futures = [
        service.submit("jane", f"{prefix}{i}") for i in range(STREAM)
    ]
    service.drain()
    records = []
    for future in futures:
        outcome = future.result()
        assert outcome.majority.accepted and outcome.adopted, future
        records.append(
            {
                "cache": outcome.advice.cache,
                "suggestion": [str(p) for p in outcome.advice.suggestion],
            }
        )
    return records


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[2] not in ("cold", "warm"):
        print(__doc__)
        return 1
    state_dir, advice_file, phase = argv
    authority = build_authority(phase)
    service = AuthorityService(authority, state_dir=state_dir)
    (loaded,) = authority.audit.events_of(EVENT_CACHE_LOADED)
    records = consult_stream(authority, service, phase)
    rejected = authority.audit.events_of(EVENT_CACHE_LOAD_REJECTED)
    service.close()
    authority.close()

    if phase == "cold":
        pathlib.Path(advice_file).write_text(
            json.dumps(records, indent=1) + "\n", encoding="utf-8"
        )
        print(f"cold phase: {len(records)} consultations recorded, "
              f"journal compacted in {state_dir}")
        return 0

    failures = []
    if not loaded.details["journal_accepted"]:
        failures.append("warm phase did not warm-load the journal: "
                        f"{loaded.details['journal_reason']}")
    if rejected:
        failures.append(f"{len(rejected)} load rejection(s): "
                        f"{[r.details for r in rejected]}")
    cold_records = json.loads(pathlib.Path(advice_file).read_text())
    for i, (cold, warm) in enumerate(zip(cold_records, records)):
        if warm["cache"] != "hit":
            failures.append(f"game {i}: expected a cache hit, got "
                            f"{warm['cache']!r}")
        if warm["suggestion"] != cold["suggestion"]:
            failures.append(
                f"game {i}: restarted advice {warm['suggestion']} != "
                f"cold advice {cold['suggestion']}"
            )
    if failures:
        print("RESTART CHECK FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"warm phase: {len(records)} consultations, all cache hits, "
          "advice bit-identical to the cold run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
