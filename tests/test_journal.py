"""Write-behind durability: journal frames, replay, persister cadence.

The contract mirrors the snapshot file's (test_cache_persistence):
exact ``num/den`` round trips, digest-protected frames, and a replay
path that rejects *per frame* — a torn tail from a mid-write crash
costs that frame only — while everything replayed re-enters the cache
through the pending stores and the Lemma-1 re-certification gate.
"""

from __future__ import annotations

import json
import os
import threading
from fractions import Fraction

import pytest

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import EVENT_CACHE_LOAD_REJECTED
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.errors import PersistenceError
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.games.profiles import MixedProfile
from repro.server.journal import (
    CacheJournal,
    WriteBehindPersister,
    replay_journal,
    state_paths,
)
from repro.service import AuthorityService, SolveCache, faults
from repro.service import cache as cache_module
from repro.service.persistence import (
    CacheState,
    apply_journal_entry,
    decode_journal_frame,
    encode_journal_frame,
    payload_digest,
    read_cache_file,
)


_BOS_FINGERPRINT = (
    "db684689d8aad4a0cfe8c78e1ae8227a4ee79376c7761eb418281a594adeab9d"
)

#: Four frames for one Battle-of-the-Sexes solve, byte for byte as the
#: writer that still journaled support hints appended them.
_OLDER_JOURNAL = (
    b'{"body":{"fingerprint":"db684689d8aad4a0cfe8c78e1ae8227a4ee79376c7761eb4'
    b'18281a594adeab9d","format":"repro.solve-cache-journal","kind":"profile",'
    b'"method":"support-enumeration","mode":"exact","profile":[["1/1","0/1"],'
    b'["1/1","0/1"]],"schema":1},"digest":"sha256:6350f72a0c7fa9f0c1b1bffaa33'
    b'19531a5a57dfee538eb84d4704a1aec45d1cd"}\n'
    b'{"body":{"format":"repro.solve-cache-journal","kind":"hint","pair":[[0],'
    b'[0]],"schema":1,"shape":[2,2]},"digest":"sha256:6e4ecb326fa403a770f7308'
    b'b2e9ae9d4eea38c844795cb8f415d13ebd43ec178"}\n'
    b'{"body":{"equal_size_only":false,"fingerprint":"db684689d8aad4a0cfe8c78e'
    b'1ae8227a4ee79376c7761eb418281a594adeab9d","format":"repro.solve-cache-jo'
    b'urnal","kind":"set","profiles":[[["1/1","0/1"],["1/1","0/1"]],[["0/1","1'
    b'/1"],["0/1","1/1"]],[["3/5","2/5"],["2/5","3/5"]]],"schema":1},"digest":'
    b'"sha256:db7fcc868c1f9834b21ec7bff1e4eb61da99515f4f427a5457b4937d9a4faa54'
    b'"}\n'
    b'{"body":{"format":"repro.solve-cache-journal","kind":"hint","pair":[[0],'
    b'[0]],"schema":1,"shape":[2,2]},"digest":"sha256:6e4ecb326fa403a770f7308'
    b'b2e9ae9d4eea38c844795cb8f415d13ebd43ec178"}\n'
)


def _profile() -> MixedProfile:
    return MixedProfile.from_rows(
        [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1), Fraction(0)]]
    )


def _authority(prefix: str, games: int = 3) -> RationalityAuthority:
    authority = RationalityAuthority(seed=19)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(
        BimatrixInventor("inv", method="support-enumeration", backend="auto")
    )
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for i in range(games):
        base = random_bimatrix(3, 3, seed=7100 + i)
        authority.publish_game(
            "inv", f"{prefix}{i}",
            BimatrixGame(base.row_matrix, base.column_matrix),
        )
    return authority


class TestJournalFrames:
    """The digest-framed line codec (persistence.py's journal half)."""

    def test_profile_frame_round_trip_is_exact(self):
        key = ("fp", "support-enumeration", "exact")
        line = encode_journal_frame("profile", key, _profile())
        kind, got_key, got = decode_journal_frame(line.rstrip(b"\n"))
        assert (kind, got_key) == ("profile", key)
        assert got.distributions == _profile().distributions
        assert all(
            type(v) is Fraction for d in got.distributions for v in d
        )

    def test_set_frames_round_trip(self):
        for flag in (True, False):
            line = encode_journal_frame(
                "set", ("fp", flag), (_profile(), _profile())
            )
            kind, key, value = decode_journal_frame(line.rstrip(b"\n"))
            assert kind == "set" and key == ("fp", flag) and len(value) == 2
            assert key[1] is flag

    def test_only_profile_and_set_frames_are_written(self):
        with pytest.raises(PersistenceError, match="unknown journal entry"):
            encode_journal_frame("hint", (2, 2), ((0, 1), (1,)))

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_non_boolean_equal_size_only_is_rejected(self, flag):
        line = encode_journal_frame("set", ("fp", False), (_profile(),))
        body = json.loads(line)["body"]
        body["equal_size_only"] = flag
        forged = json.dumps(
            {"digest": payload_digest(body), "body": body}
        ).encode()
        with pytest.raises(PersistenceError, match="not a boolean"):
            decode_journal_frame(forged)

    def test_tampered_frame_is_rejected(self):
        line = encode_journal_frame(
            "profile", ("fp", "m", "exact"), _profile()
        )
        frame = json.loads(line)
        frame["body"]["fingerprint"] = "forged"
        forged = json.dumps(frame).encode()
        with pytest.raises(PersistenceError, match="digest"):
            decode_journal_frame(forged)

    def test_torn_frame_is_rejected(self):
        line = encode_journal_frame(
            "profile", ("fp", "m", "exact"), _profile()
        )
        with pytest.raises(PersistenceError):
            decode_journal_frame(line[: len(line) // 2])

    def test_alien_format_and_schema_are_rejected(self):
        for body in (
            {"format": "something-else", "schema": 1, "kind": "profile"},
            {"format": "repro.solve-cache-journal", "schema": 99,
             "kind": "profile"},
        ):
            blob = json.dumps(
                {"digest": payload_digest(body), "body": body}
            ).encode()
            with pytest.raises(PersistenceError):
                decode_journal_frame(blob)

    def test_apply_latest_wins(self):
        state = CacheState()
        first = _profile()
        second = MixedProfile.from_rows(
            [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        )
        key = ("fp", "m", "exact")
        apply_journal_entry(state, "profile", key, first)
        apply_journal_entry(state, "profile", key, second)
        assert state.profiles[key].distributions == second.distributions


class TestReplay:
    def test_replay_skips_torn_tail_keeps_good_frames(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = [
            encode_journal_frame(
                "profile", (f"fp{i}", "m", "exact"), _profile()
            )
            for i in range(3)
        ]
        torn = encode_journal_frame(
            "profile", ("fpX", "m", "exact"), _profile()
        )[:-25]
        path.write_bytes(b"".join(good) + torn)
        state, report = replay_journal(path)
        assert report.frames == 3
        assert len(report.rejections) == 1
        assert report.rejections[0]["frame"] == 3
        assert len(state.profiles) == 3

    def test_older_hint_frames_are_refused_one_by_one(self, tmp_path):
        # A journal as the writer that still kept support hints left it:
        # profile, hint, set, hint.  Each hint frame is refused on its
        # own as an unknown kind; the frames around it replay.
        path = tmp_path / "journal.jsonl"
        path.write_bytes(_OLDER_JOURNAL)
        state, report = replay_journal(path)
        assert report.frames == 2
        assert [r["frame"] for r in report.rejections] == [1, 3]
        assert all(
            "unknown journal frame kind 'hint'" in r["reason"]
            for r in report.rejections
        )
        assert list(state.profiles) == [
            (_BOS_FINGERPRINT, "support-enumeration", "exact")
        ]
        assert list(state.sets) == [(_BOS_FINGERPRINT, False)]

        cache = SolveCache()
        assert cache.merge_pending_state(state) == 2
        game = BimatrixGame([[3, 0], [0, 2]], [[2, 0], [0, 3]])
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
        inventor.solve("g", game)
        assert inventor.cache_state("g") == "hit"
        assert len(cache.equilibrium_set(game)) == 3
        assert cache.stats.set_hits == 1

    def test_missing_journal_is_a_quiet_cold_start(self, tmp_path):
        state, report = replay_journal(tmp_path / "absent.jsonl")
        assert report.frames == 0 and not report.rejections
        assert state.entry_count == 0

    def test_journal_append_and_truncate(self, tmp_path):
        journal = CacheJournal(tmp_path / "j.jsonl")
        wrote = journal.append(
            [("profile", ("fp", "m", "exact"), _profile())]
        )
        assert wrote == 1 and journal.size_bytes() > 0
        journal.truncate()
        assert journal.size_bytes() == 0
        journal.close()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestWriteBehindPersister:
    def _cache(self, tmp_path) -> SolveCache:
        snapshot, _journal = state_paths(tmp_path / "state")
        return SolveCache(path=snapshot)

    def test_flush_cadence_by_drains(self, tmp_path):
        snapshot, journal = state_paths(tmp_path / "state")
        cache = SolveCache(path=snapshot)
        persister = WriteBehindPersister(
            cache, journal, flush_every_drains=2,
            snapshot_every_drains=None, snapshot_interval=None,
        )
        cache.store_profile("fp", "m", "exact", _profile())
        persister.on_drained()
        assert persister.flushes == 0  # one drain: not yet due
        persister.on_drained()
        assert persister.flushes == 1 and persister.frames_flushed == 1
        assert persister.journal.size_bytes() > 0

    def test_flush_cadence_by_clock(self, tmp_path):
        clock = FakeClock()
        snapshot, journal = state_paths(tmp_path / "state")
        cache = SolveCache(path=snapshot)
        persister = WriteBehindPersister(
            cache, journal, flush_every_drains=10**6,
            flush_interval=5.0, snapshot_every_drains=None,
            snapshot_interval=None, clock=clock,
        )
        cache.store_profile("fp", "m", "exact", _profile())
        persister.poll()
        assert persister.flushes == 0
        clock.now = 6.0
        persister.poll()
        assert persister.flushes == 1

    def test_snapshot_truncates_journal_and_saves(self, tmp_path):
        snapshot, journal = state_paths(tmp_path / "state")
        cache = SolveCache(path=snapshot)
        persister = WriteBehindPersister(
            cache, journal, snapshot_every_drains=None,
            snapshot_interval=None,
        )
        cache.store_profile("fp", "m", "exact", _profile())
        persister.flush()
        assert persister.journal.size_bytes() > 0
        entries = persister.snapshot()
        assert entries == 1
        assert persister.journal.size_bytes() == 0
        assert os.path.exists(snapshot)

    def test_close_disarms_tracking(self, tmp_path):
        snapshot, journal = state_paths(tmp_path / "state")
        cache = SolveCache(path=snapshot)
        persister = WriteBehindPersister(cache, journal)
        persister.close()
        cache.store_profile("fp", "m", "exact", _profile())
        assert cache.drain_updates() == []  # tracking is off again

    def test_pathless_cache_is_refused(self, tmp_path):
        with pytest.raises(PersistenceError, match="path-bound"):
            WriteBehindPersister(SolveCache(), tmp_path / "j.jsonl")


def _store(cache: SolveCache, index: int) -> None:
    """Commit one new cache entry (one journal frame at the next flush)."""
    cache.store_profile(f"fp{index}", "m", "exact", _profile())


class TestSnapshotGrowthRule:
    """Cadence snapshots wait until the journal has grown.

    A cadence snapshot needs an update committed since the last
    successful snapshot *and* a journal holding at least as many frames
    as that snapshot held entries; ``snapshot_every_drains`` and
    ``snapshot_interval`` are minimum spacings on top.
    """

    @pytest.fixture(autouse=True)
    def _close_journals(self):
        self.journals = []
        yield
        for journal in self.journals:
            journal.close()

    def _persister(self, tmp_path, **kwargs):
        snapshot, journal = state_paths(tmp_path / "state")
        cache = SolveCache(path=snapshot)
        options = {"flush_every_drains": 1, "snapshot_every_drains": None,
                   "snapshot_interval": None, "flush_retries": 0,
                   "backoff_base_s": 0.0}
        options.update(kwargs)
        persister = WriteBehindPersister(cache, journal, **options)
        self.journals.append(persister.journal)
        return cache, persister

    def test_clean_drains_and_polls_never_snapshot(self, tmp_path):
        clock = FakeClock()
        cache, persister = self._persister(
            tmp_path, snapshot_every_drains=1, flush_interval=1.0,
            snapshot_interval=1.0, clock=clock,
        )
        for __ in range(8):
            persister.on_drained()
            clock.now += 10.0
            persister.poll()
        assert persister.snapshots == 0
        assert not os.path.exists(cache.path)

    def test_snapshots_at_the_floor_then_when_the_journal_catches_up(
        self, tmp_path
    ):
        cache, persister = self._persister(
            tmp_path, snapshot_every_drains=3
        )
        snapshot_drains = []
        for drain in range(1, 13):
            _store(cache, drain)
            persister.on_drained()
            if persister.snapshots > len(snapshot_drains):
                snapshot_drains.append(drain)
        # Drain 3: the floor (an empty state held 0 entries).  Drain 6:
        # 3 frames against the 3-entry snapshot.  Drain 12: 6 against 6.
        assert snapshot_drains == [3, 6, 12]
        assert persister.frames_flushed == 12
        assert len(read_cache_file(cache.path).profiles) == 12
        for __ in range(6):  # clean drains after growth: still nothing
            persister.on_drained()
        assert persister.snapshots == 3

    def test_poll_snapshots_by_the_same_rule(self, tmp_path):
        clock = FakeClock()
        cache, persister = self._persister(
            tmp_path, flush_interval=1.0, snapshot_interval=5.0,
            clock=clock,
        )
        clock.now = 6.0
        persister.poll()
        assert persister.snapshots == 0  # interval lapsed, nothing new
        _store(cache, 1)
        clock.now = 7.0
        persister.poll()
        assert persister.flushes == 2 and persister.snapshots == 1
        _store(cache, 2)
        clock.now = 8.0
        persister.poll()
        assert persister.snapshots == 1  # inside the minimum spacing
        clock.now = 13.0
        persister.poll()
        assert persister.snapshots == 2  # 1 frame against 1 entry

    def test_recovered_frames_count_toward_the_journal(self, tmp_path):
        snapshot, journal = state_paths(tmp_path / "state")
        seed_cache = SolveCache(path=snapshot)
        for index in range(3):
            _store(seed_cache, index)
        assert seed_cache.save() == 3
        with CacheJournal(journal) as writer:
            writer.append([("profile", ("fp3", "m", "exact"), _profile())])

        cache = SolveCache(path=snapshot)  # loads the 3-entry snapshot
        persister = WriteBehindPersister(
            cache, journal, flush_every_drains=1, snapshot_every_drains=1,
            snapshot_interval=None,
        )
        self.journals.append(persister.journal)
        assert persister.recover().frames == 1
        persister.on_drained()
        assert persister.snapshots == 0  # recovered, but nothing new
        _store(cache, 4)
        persister.on_drained()
        assert persister.snapshots == 0  # 1 recovered + 1 < 3 entries
        _store(cache, 5)
        persister.on_drained()
        assert persister.snapshots == 1  # 1 recovered + 2 = 3 entries
        assert len(read_cache_file(snapshot).profiles) == 6
        assert os.path.getsize(journal) == 0

    def test_failed_snapshot_stays_dirty(self, tmp_path):
        cache, persister = self._persister(
            tmp_path, snapshot_every_drains=1
        )
        _store(cache, 1)
        with faults.armed("snapshot.write:raise:oserror@1"):
            persister.on_drained()
        assert persister.snapshot_failures == 1
        assert persister.snapshots == 0
        persister.on_drained()  # no new update: the retry is still due
        assert persister.snapshots == 1
        persister.on_drained()
        assert persister.snapshots == 1

    def test_degraded_mode_snapshots_only_when_dirty(self, tmp_path):
        cache, persister = self._persister(tmp_path)
        with faults.armed("journal.append:raise:oserror@1x*"):
            _store(cache, 1)
            persister.on_drained()
            assert persister.degraded and persister.snapshots == 1
            for __ in range(3):
                persister.on_drained()
            assert persister.snapshots == 1
            _store(cache, 2)
            persister.on_drained()
            assert persister.snapshots == 2
            _store(cache, 3)
        with faults.armed("snapshot.write:raise:oserror@1"):
            persister.on_drained()
        assert persister.snapshot_failures == 1
        persister.on_drained()  # still dirty: snapshot-only retries
        assert persister.snapshots == 3
        persister.on_drained()
        assert persister.snapshots == 3
        assert len(read_cache_file(cache.path).profiles) == 3

    def test_admin_snapshot_and_close_always_run(self, tmp_path):
        cache, persister = self._persister(
            tmp_path, snapshot_every_drains=1
        )
        assert persister.snapshot() == 0  # clean, and still cut
        assert persister.snapshot() == 0
        assert persister.close() == 0
        assert persister.snapshots == 3
        assert os.path.exists(cache.path)

    def test_flush_waits_for_an_overlapping_snapshot(
        self, tmp_path, monkeypatch
    ):
        """A frame flushed between a snapshot's cache copy and its
        journal truncation must survive in one of the two files."""
        cache, persister = self._persister(tmp_path)
        _store(cache, 1)
        assert persister.flush() == 1
        copied, release = threading.Event(), threading.Event()
        write = cache_module.write_cache_file

        def paused_write(path, state):
            copied.set()  # the snapshot's copy of the cache is taken
            assert release.wait(30)
            return write(path, state)

        monkeypatch.setattr(cache_module, "write_cache_file", paused_write)
        snapshotter = threading.Thread(target=persister.snapshot)
        snapshotter.start()
        assert copied.wait(30)
        flushed = []

        def store_and_flush():
            _store(cache, 2)
            flushed.append(persister.flush())

        flusher = threading.Thread(target=store_and_flush)
        flusher.start()
        flusher.join(0.5)  # unserialized, the flush lands in this window
        release.set()
        snapshotter.join(30)
        flusher.join(30)
        assert not snapshotter.is_alive() and not flusher.is_alive()
        assert flushed == [1]
        saved = set(read_cache_file(cache.path).profiles)
        replayed, __ = replay_journal(persister.journal.path)
        recovered = saved | set(replayed.profiles)
        assert ("fp1", "m", "exact") in recovered
        assert ("fp2", "m", "exact") in recovered


class TestCrashRecoveryInProcess:
    """Journal-only recovery (no snapshot): the SIGKILL shape, in-process."""

    def test_replayed_entries_serve_bit_identical_hits(self, tmp_path):
        snapshot, journal_path = state_paths(tmp_path / "state")
        cache = SolveCache(path=snapshot)
        authority = _authority("g")
        service = AuthorityService(authority, solve_cache=cache)
        persister = WriteBehindPersister(
            cache, journal_path, flush_every_drains=1,
            snapshot_every_drains=None, snapshot_interval=None,
        )
        service.add_drain_listener(persister.on_drained)
        futures = [service.submit("jane", f"g{i}") for i in range(3)]
        service.drain()
        cold = [
            [str(p) for p in f.result().advice.suggestion] for f in futures
        ]
        # Simulate SIGKILL: no snapshot(), no close() — only the journal
        # frames flushed at drain-end survive.
        persister.journal.close()
        assert not os.path.exists(snapshot)

        fresh_cache = SolveCache(path=snapshot)
        fresh_authority = _authority("h")  # same payoffs, new game ids
        fresh_service = AuthorityService(
            fresh_authority, solve_cache=fresh_cache
        )
        fresh_persister = WriteBehindPersister(
            fresh_cache, journal_path, flush_every_drains=1,
            snapshot_every_drains=None, snapshot_interval=None,
        )
        report = fresh_persister.recover()
        assert report.frames > 0 and not report.rejections
        futures = [fresh_service.submit("jane", f"h{i}") for i in range(3)]
        fresh_service.drain()
        outcomes = [f.result() for f in futures]
        assert all(o.advice.cache == "hit" for o in outcomes)
        warm = [[str(p) for p in o.advice.suggestion] for o in outcomes]
        assert warm == cold

    def test_tampered_journal_frame_is_audited_not_served(self, tmp_path):
        snapshot, journal_path = state_paths(tmp_path / "state")
        cache = SolveCache(path=snapshot)
        authority = _authority("g", games=1)
        service = AuthorityService(authority, solve_cache=cache)
        persister = WriteBehindPersister(
            cache, journal_path, flush_every_drains=1,
            snapshot_every_drains=None, snapshot_interval=None,
        )
        service.add_drain_listener(persister.on_drained)
        service.submit("jane", "g0")
        service.drain()
        persister.journal.close()
        # Flip one byte inside the first frame's body: the digest no
        # longer matches, so replay must reject exactly that frame.
        lines = open(journal_path, "rb").read().splitlines(keepends=True)
        lines[0] = lines[0][:20] + b"X" + lines[0][21:]
        open(journal_path, "wb").write(b"".join(lines))

        fresh_cache = SolveCache(path=snapshot)
        fresh_authority = _authority("h", games=1)
        fresh_service = AuthorityService(
            fresh_authority, solve_cache=fresh_cache
        )
        fresh_persister = WriteBehindPersister(
            fresh_cache, journal_path, flush_every_drains=1,
            snapshot_every_drains=None, snapshot_interval=None,
        )
        report = fresh_persister.recover()
        assert len(report.rejections) >= 1
        fresh_service.flush_cache_rejections()
        rejected = fresh_authority.audit.events_of(EVENT_CACHE_LOAD_REJECTED)
        assert rejected and rejected[0].details["kind"] == "journal-frame"
        # The consultation still succeeds — as a cold solve, never as
        # unverified warm advice.
        future = fresh_service.submit("jane", "h0")
        fresh_service.drain()
        outcome = future.result()
        assert outcome.majority.accepted
