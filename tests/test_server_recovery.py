"""Crash recovery across a real process boundary.

The in-process tests (test_journal) can only *simulate* a crash; this
one performs it: a ``python -m repro.server`` child is SIGKILLed
mid-traffic — no atexit, no finally blocks, no graceful anything — and
a second child on the same state directory must warm-serve the first
child's certified entries bit-identically, losing at most the one
flush interval the write-behind contract allows.  A SIGTERM sibling
test pins the graceful half: drained futures, truncated journal, full
snapshot, clean exit.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent / "src"
GAMES = 6


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def start_server(state_dir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server",
         "--state-dir", str(state_dir), "--games", str(GAMES),
         "--size", "3", "--flush-every-drains", "1",
         "--poll-interval", "0.1"],
        stdout=subprocess.PIPE, text=True, env=_env(),
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("PORT "), f"unexpected banner: {line!r}"
        return proc, int(line.split()[1])
    except Exception:
        proc.kill()
        raise


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
        assert resp.status == 200, (resp.status, body)
        return body
    finally:
        conn.close()


def test_sigkill_recovery_is_bit_identical(tmp_path):
    state_dir = tmp_path / "state"
    proc, port = start_server(state_dir)
    try:
        cold = {
            f"g{i}": consult(port, f"g{i}")["advice"]["suggestion"]
            for i in range(GAMES)
        }
    finally:
        # The crash: no graceful path runs at all.
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    journal = state_dir / "journal.jsonl"
    assert journal.exists() and journal.stat().st_size > 0

    proc, port = start_server(state_dir)
    try:
        hits = 0
        for i in range(GAMES):
            body = consult(port, f"g{i}")
            # Every answer — warm or re-solved — must be bit-identical
            # to the pre-crash advice (the solver is deterministic and
            # replayed entries pass the exact re-certification gate).
            assert body["advice"]["suggestion"] == cold[f"g{i}"], f"g{i}"
            if body["advice"]["cache"] == "hit":
                hits += 1
        # The durability bound: at most the final flush interval (one
        # drain's worth here) may be lost to the SIGKILL.
        assert hits >= GAMES - 1, f"only {hits}/{GAMES} warm hits"
        # Recovery was audited before serving.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/audit?event=cache.load.completed")
        audit = json.loads(conn.getresponse().read())
        conn.close()
        assert audit["returned"] == 1
        details = audit["records"][0]["details"]
        assert details["journal_frames"] > 0
        assert details["journal_rejected"] == 0
    finally:
        os.kill(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=60) == 0


def test_sigterm_drains_snapshots_and_exits_zero(tmp_path):
    state_dir = tmp_path / "state"
    proc, port = start_server(state_dir)
    try:
        for i in range(3):
            consult(port, f"g{i}")
    except BaseException:
        proc.kill()
        raise
    os.kill(proc.pid, signal.SIGTERM)
    assert proc.wait(timeout=60) == 0
    stdout = proc.stdout.read()
    assert "graceful shutdown complete" in stdout
    # Graceful exit cut a final snapshot and truncated the journal.
    assert (state_dir / "snapshot.json").exists()
    assert (state_dir / "journal.jsonl").stat().st_size == 0
    # A third run warm-loads the snapshot: all hits immediately.
    proc, port = start_server(state_dir)
    try:
        for i in range(3):
            body = consult(port, f"g{i}")
            assert body["advice"]["cache"] == "hit"
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/stats")
        stats = json.loads(conn.getresponse().read())
        conn.close()
        # Warm hits commit nothing, so no cadence snapshot rewrites the
        # unchanged cache; and the entry point froze its start-up heap.
        assert stats["persistence"]["snapshots"] == 0
        assert stats["gc"]["frozen"] > 0
    finally:
        os.kill(proc.pid, signal.SIGTERM)
        proc.wait(timeout=60)
