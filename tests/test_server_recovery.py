"""Crash recovery across a real process boundary.

The in-process tests (test_journal) can only *simulate* a crash; this
one performs it: a ``python -m repro.server`` child is SIGKILLed
mid-traffic — no atexit, no finally blocks, no graceful anything — and
a second child on the same state directory must warm-serve the first
child's certified entries bit-identically, losing at most the frame of
the one answered consultation the write-behind contract allows.  A
SIGTERM sibling test pins the graceful half: drained futures, one
compacted journal, clean exit; a third starts on a state directory an
older server left (``snapshot.json`` beside a journal without a
header), which is refused whole and served cold.
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


def _header(state_dir) -> dict:
    with open(state_dir / "journal.jsonl", "rb") as handle:
        return json.loads(handle.readline())


def start_server(state_dir):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server",
         "--state-dir", str(state_dir), "--games", str(GAMES),
         "--size", "3"],
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
        with proc.stdout:
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
        # The durability bound: at most the frame of one answered
        # consultation (the pump's last drain) may be lost to the
        # SIGKILL.
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
        with proc.stdout:
            assert proc.wait(timeout=60) == 0


def test_sigterm_drains_snapshots_and_exits_zero(tmp_path):
    state_dir = tmp_path / "state"
    proc, port = start_server(state_dir)
    try:
        for i in range(3):
            consult(port, f"g{i}")
    except BaseException:
        proc.kill()
        proc.stdout.close()
        raise
    os.kill(proc.pid, signal.SIGTERM)
    with proc.stdout:
        assert proc.wait(timeout=60) == 0
        stdout = proc.stdout.read()
    assert "graceful shutdown complete" in stdout
    # Graceful exit compacted the journal: its header covers every
    # served entry, and no snapshot file exists.
    assert sorted(os.listdir(state_dir)) == ["journal.jsonl"]
    assert _header(state_dir)["frames"] == 3
    # A third run warm-loads the journal: all hits immediately.
    proc, port = start_server(state_dir)
    try:
        for i in range(3):
            body = consult(port, f"g{i}")
            assert body["advice"]["cache"] == "hit"
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/stats")
        stats = json.loads(conn.getresponse().read())
        conn.close()
        # Warm hits commit nothing, so no cadence compaction rewrites
        # the unchanged file; and the entry point froze its start-up
        # heap.
        assert stats["persistence"]["snapshots"] == 0
        assert stats["gc"]["frozen"] > 0
    finally:
        os.kill(proc.pid, signal.SIGTERM)
        with proc.stdout:
            proc.wait(timeout=60)


#: A state directory as the server before the one-file format left it,
#: byte for byte (``--games 3 --size 3`` at the default seed): a
#: graceful stop after consulting g0 and g1 wrote ``snapshot.json`` and
#: emptied the journal; a restart that consulted g2 was SIGKILLed, which
#: left g2's frame in a journal without a header.  An older writer's
#: support-hint frame follows it.
_OLDER_SNAPSHOT = (
    b'{"digest": "sha256:f98765497f15c714376f775a6c89bc77f59842f745658788bad'
    b'9cd39237fdab2", "format": "repro.solve-cache", "payload": {"profiles":'
    b' [{"fingerprint": "8fdf4537e5ff25132d849b0148468556f7cd7e3b4f28c0f85b2'
    b'686077d70b804", "method": "support-enumeration", "mode": "exact", "pro'
    b'file": [["0/1", "0/1", "1/1"], ["0/1", "0/1", "1/1"]]}, {"fingerprint"'
    b': "9240b8098119990135ec32d6f3b226b5098329619048906cc5f087042de884fa", '
    b'"method": "support-enumeration", "mode": "exact", "profile": [["15/23"'
    b', "8/23", "0/1"], ["0/1", "16/19", "3/19"]]}], "sets": []}, "schema": '
    b'1}\n'
)
_OLDER_JOURNAL = (
    b'{"body":{"fingerprint":"0713d14d6e6fc192a59c6b4f7f4c2372ed225ab272c71b'
    b'8f7c86c14f37e0ad86","format":"repro.solve-cache-journal","kind":"profi'
    b'le","method":"support-enumeration","mode":"exact","profile":[["1/1","0'
    b'/1","0/1"],["0/1","1/1","0/1"]],"schema":1},"digest":"sha256:121f2587'
    b'92b78e8b970579a3e6beb30b81bfbac45ee7d4400d381a29bb3a106e"}\n'
    b'{"body":{"format":"repro.solve-cache-journal","kind":"hint","pair":[[0]'
    b',[0]],"schema":1,"shape":[2,2]},"digest":"sha256:6e4ecb326fa403a770f73'
    b'08b2e9ae9d4eea38c844795cb8f415d13ebd43ec178"}\n'
)
#: What that older server advised, over the wire.
_OLDER_ADVICE = {
    "g0": ["0/1", "0/1", "1/1"],
    "g1": ["15/23", "8/23", "0/1"],
    "g2": ["1/1", "0/1", "0/1"],
}


def test_an_older_state_dir_is_refused_whole_and_served_cold(tmp_path):
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    (state_dir / "snapshot.json").write_bytes(_OLDER_SNAPSHOT)
    (state_dir / "journal.jsonl").write_bytes(_OLDER_JOURNAL)
    proc, port = start_server(state_dir)
    try:
        # Start-up refused the headerless journal and compacted over
        # it; snapshot.json is not read, nor touched.
        assert _header(state_dir)["frames"] == 0
        assert (state_dir / "snapshot.json").read_bytes() == _OLDER_SNAPSHOT
        for game_id, suggestion in _OLDER_ADVICE.items():
            body = consult(port, game_id)
            assert body["advice"]["cache"] == "miss", game_id
            assert body["advice"]["suggestion"] == suggestion, game_id
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request("GET", "/audit?event=cache.load.rejected")
        rejected = json.loads(conn.getresponse().read())["records"]
        conn.close()
        # One refusal, of the whole file.
        assert [r["details"]["kind"] for r in rejected] == ["file"]
    finally:
        os.kill(proc.pid, signal.SIGTERM)
        with proc.stdout:
            assert proc.wait(timeout=60) == 0
    assert sorted(os.listdir(state_dir)) == ["journal.jsonl", "snapshot.json"]
    assert _header(state_dir)["frames"] == 3
