#!/usr/bin/env python
"""CI guard: the HTTP server survives a SIGKILL and a graceful restart.

The strongest restart contract in the repo, exercised over *real HTTP
against real processes*:

* **serve** — spawn ``python -m repro.server`` on a fresh state
  directory (journal flushed every drain), consult a fixed stream of
  games over the wire and record every suggestion as exact ``num/den``
  strings;
* **crash** — SIGKILL the server (no graceful path of any kind runs);
* **recover** — spawn a second server on the same directory and assert
  the warm stream is bit-identical to the cold one with at least
  ``N - 1`` cache hits (the write-behind bound: at most the frame of
  one answered consultation lost);
* **graceful** — SIGTERM the second server and assert exit code 0 and
  one state file: ``journal.jsonl`` opens with a header covering every
  served entry, and no ``snapshot.json`` exists.

The server screens in process and verifies inline on its drain
thread on every interpreter, so one run covers the only serving path.

Exit status: 0 on success, 1 on any violated gate.

Usage::

    python benchmarks/check_server_restart.py <state-dir>
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
GAMES = 8


def start_server(state_dir: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server",
         "--state-dir", state_dir, "--games", str(GAMES), "--size", "4"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    line = proc.stdout.readline()
    if not line.startswith("PORT "):
        proc.kill()
        raise RuntimeError(f"server did not announce a port: {line!r}")
    return proc, int(line.split()[1])


def consult(port: int, game_id: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(
            "POST", "/consult",
            json.dumps({"agent": "jane", "game_id": game_id}),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        body = json.loads(resp.read())
        if resp.status != 200:
            raise RuntimeError(f"consult {game_id}: {resp.status} {body}")
        return body
    finally:
        conn.close()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 1
    state_dir = argv[0]
    print(f"server restart check in {state_dir}")
    failures: list[str] = []

    proc, port = start_server(state_dir)
    cold = {}
    try:
        for i in range(GAMES):
            cold[f"g{i}"] = consult(port, f"g{i}")["advice"]["suggestion"]
        print(f"cold: {GAMES} consultations over HTTP on port {port}")
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    print("crash: SIGKILL delivered, no graceful path ran")
    journal = os.path.join(state_dir, "journal.jsonl")
    if not (os.path.exists(journal) and os.path.getsize(journal) > 0):
        failures.append("no journal frames survived the cold run")

    proc, port = start_server(state_dir)
    try:
        hits = 0
        for i in range(GAMES):
            body = consult(port, f"g{i}")
            if body["advice"]["suggestion"] != cold[f"g{i}"]:
                failures.append(
                    f"g{i}: warm advice {body['advice']['suggestion']} != "
                    f"cold advice {cold[f'g{i}']}"
                )
            if body["advice"]["cache"] == "hit":
                hits += 1
        print(f"recover: {hits}/{GAMES} warm hits, advice compared")
        if hits < GAMES - 1:
            failures.append(
                f"only {hits}/{GAMES} warm hits (write-behind bound "
                f"allows losing at most the frame of one answered "
                f"consultation)"
            )
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/stats")
        compactions = json.loads(conn.getresponse().read())[
            "persistence"]["snapshots"]
        conn.close()
        if hits == GAMES and compactions:
            failures.append(f"warm hits compacted the journal "
                            f"{compactions} time(s)")
    finally:
        os.kill(proc.pid, signal.SIGTERM)
        code = proc.wait(timeout=60)
    if code != 0:
        failures.append(f"graceful shutdown exited {code}, expected 0")
    if os.path.exists(os.path.join(state_dir, "snapshot.json")):
        failures.append("graceful shutdown left a snapshot.json")
    with open(journal, "rb") as handle:
        first = handle.readline()
    covered = None if first.startswith(b'{"body":') \
        else json.loads(first).get("frames")
    if covered != GAMES:
        failures.append(
            f"graceful shutdown left a journal whose header covers "
            f"{covered} frames, expected all {GAMES} served entries"
        )
    else:
        print(f"graceful: exit 0, journal compacted under a header "
              f"covering all {GAMES} entries")

    if failures:
        print("SERVER RESTART CHECK FAILED")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("server restart check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
