"""Write-behind durability: journal frames, the state file, the persister.

The contract mirrors test_cache_persistence's: exact ``num/den`` round
trips and digest-protected frames.  A state directory's one file is a
header over the frames of the last compaction (over none before the
first), then the frames appended since: the covered prefix loads
all-or-nothing, each later frame on its own — a torn tail from a
mid-write crash costs that frame only — and everything recovered
re-enters the cache through the pending stores and the Lemma-1
re-certification gate.
"""

from __future__ import annotations

import errno
import json
import os
from contextlib import closing
import shutil
import tempfile
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import (
    EVENT_CACHE_LOAD_REJECTED,
    EVENT_CACHE_LOADED,
    EVENT_DURABILITY_DEGRADED,
)
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.errors import PersistenceError, ProtocolError
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.games.profiles import MixedProfile
from repro.equilibria.support_enumeration import support_enumeration
from repro.service import AuthorityService, SolveCache, faults
from repro.service import journal as journal_module
from repro.service.journal import (
    CacheJournal,
    WriteBehindPersister,
    state_path,
)
from repro.service.persistence import (
    CacheState,
    apply_journal_entry,
    decode_journal_frame,
    encode_journal_frame,
    payload_digest,
    read_state_file,
    write_state_file,
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


def _frame(index: int) -> bytes:
    return encode_journal_frame((f"fp{index}", "m", "exact"), _profile())


def _keys(*indices) -> list:
    return [(f"fp{i}", "m", "exact") for i in indices]


def _header(path) -> dict:
    """The state file's header: its first line."""
    with open(path, "rb") as handle:
        return json.loads(handle.readline())


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
        line = encode_journal_frame(key, _profile())
        assert json.loads(line)["body"]["kind"] == "profile"
        got_key, got = decode_journal_frame(line.rstrip(b"\n"))
        assert got_key == key
        assert got.distributions == _profile().distributions
        assert all(
            type(v) is Fraction for d in got.distributions for v in d
        )

    def test_tampered_frame_is_rejected(self):
        line = encode_journal_frame(("fp", "m", "exact"), _profile())
        frame = json.loads(line)
        frame["body"]["fingerprint"] = "forged"
        forged = json.dumps(frame).encode()
        with pytest.raises(PersistenceError, match="digest"):
            decode_journal_frame(forged)

    @pytest.mark.parametrize("kind", ["set", "hint", None])
    def test_frames_of_any_other_kind_are_refused(self, kind):
        # With the digest recomputed: an older writer's set and
        # support-hint kinds, and a body without a kind, are refused by
        # the kind alone.
        body = json.loads(_frame(0))["body"]
        body["kind"] = kind
        forged = json.dumps(
            {"digest": payload_digest(body), "body": body}
        ).encode()
        with pytest.raises(
            PersistenceError, match=f"unknown journal frame kind {kind!r}"
        ):
            decode_journal_frame(forged)

    def test_torn_frame_is_rejected(self):
        line = encode_journal_frame(("fp", "m", "exact"), _profile())
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
        apply_journal_entry(state, key, first)
        apply_journal_entry(state, key, second)
        assert state.profiles[key].distributions == second.distributions


def _appended(path, blob: bytes) -> None:
    """A journal before its first compaction: a header over no frames,
    then ``blob`` appended."""
    write_state_file(path, [])
    with open(path, "ab") as handle:
        handle.write(blob)


class TestReader:
    """One reader: the frames after the header are judged one by one."""

    def test_replay_skips_torn_tail_keeps_good_frames(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        torn = _frame(9)[:-25]
        _appended(path, b"".join(_frame(i) for i in range(3)) + torn)
        state, report = read_state_file(path)
        assert report.accepted and report.frames == 3
        assert len(report.rejections) == 1
        assert report.rejections[0]["frame"] == 4  # line 0 is the header
        assert report.rejections[0]["kind"] == "journal-frame"
        assert len(state.profiles) == 3

    def test_older_hint_and_set_frames_are_refused_one_by_one(
        self, tmp_path
    ):
        # The frames the writer that still kept support hints and
        # enumeration sets appended: profile, hint, set, hint.  After a
        # header, each hint and set frame is refused on its own as an
        # unknown kind; the profile frame before them replays.
        path = tmp_path / "journal.jsonl"
        _appended(path, _OLDER_JOURNAL)
        state, report = read_state_file(path)
        assert report.accepted and report.frames == 1
        assert [(r["frame"], r["reason"]) for r in report.rejections] == [
            (index, f"unknown journal frame kind {kind!r}")
            for index, kind in ((2, "hint"), (3, "set"), (4, "hint"))
        ]
        assert list(state.profiles) == [
            (_BOS_FINGERPRINT, "support-enumeration", "exact")
        ]

        cache = SolveCache()
        assert cache.merge_pending_state(state) == 1
        game = BimatrixGame([[3, 0], [0, 2]], [[2, 0], [0, 3]])
        inventor = BimatrixInventor("inv", method="support-enumeration")
        inventor.attach_solve_cache(cache)
        assert inventor.solve(game).cache == "hit"
        assert cache.stats.load_rejected == 0

    def test_missing_journal_is_a_quiet_cold_start(self, tmp_path):
        cache = SolveCache()
        persister = WriteBehindPersister(cache, tmp_path / "absent.jsonl")
        report = persister.recover()
        assert report.frames == 0 and not report.rejections
        assert report.reason == "file not found" and len(cache) == 0
        assert cache.drain_rejections() == []
        assert not os.path.exists(tmp_path / "absent.jsonl")

    def test_journal_append_and_replace(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with closing(CacheJournal(path)) as journal:
            assert journal.append([_frame(0)]) == 1
            assert journal.size_bytes() > 0
            assert _header(path)["frames"] == 0  # not yet compacted
            journal.replace([_frame(1)])
            assert _header(path)["frames"] == 1
            journal.append([_frame(2)])  # reopened on the new file
        state, report = read_state_file(path)
        assert report.frames == 2 and list(state.profiles) == _keys(1, 2)

    @pytest.mark.parametrize("failing", ["hook", "write"])
    def test_a_failed_append_refuses_appends_until_a_compaction(
        self, tmp_path, monkeypatch, failing
    ):
        # The file may end in part of a frame that a later append would
        # run into, so only a compaction writes to it again.
        path = tmp_path / "j.jsonl"
        with closing(CacheJournal(path)) as journal:
            journal.append([_frame(0)])
            if failing == "write":
                def write(blob):
                    raise OSError(errno.ENOSPC, "no space left on device")

                monkeypatch.setattr(journal._handle, "write", write)
                with pytest.raises(OSError):
                    journal.append([_frame(1)])
            else:
                with faults.armed("journal.append:raise:oserror@1"):
                    with pytest.raises(OSError):
                        journal.append([_frame(1)])
            for frames in ([], [_frame(2)]):
                with pytest.raises(PersistenceError, match="compaction"):
                    journal.append(frames)
            journal.replace([_frame(0), _frame(1)])
            assert journal.append([_frame(2)]) == 1
        state, report = read_state_file(path)
        assert list(state.profiles) == _keys(0, 1, 2)
        assert not report.rejections

    @pytest.mark.parametrize("existing", [None, b""], ids=["missing", "empty"])
    def test_a_fresh_journal_writes_its_header_before_the_first_frame(
        self, tmp_path, existing
    ):
        # So a crash before the first compaction leaves a file the
        # reader takes: it refuses any file without a header.
        path = tmp_path / "j.jsonl"
        if existing is not None:
            path.write_bytes(existing)
        with closing(CacheJournal(path)) as journal:
            journal.append([_frame(0)])
            journal.append([_frame(1)])
        header, *frames = path.read_bytes().splitlines(keepends=True)
        assert json.loads(header)["frames"] == 0
        assert frames == [_frame(0), _frame(1)]
        state, report = read_state_file(path)
        assert report.accepted and list(state.profiles) == _keys(0, 1)


class TestStateFile:
    """A compacted file: the header-covered prefix is all-or-nothing,
    each later frame stands alone."""

    def _compacted(self, tmp_path, later=2):
        path = tmp_path / "journal.jsonl"
        with closing(CacheJournal(path)) as journal:
            journal.replace([_frame(i) for i in range(3)])
            journal.append([_frame(3 + i) for i in range(later)])
        return path

    @staticmethod
    def _rejected_whole(path) -> None:
        state, report = read_state_file(path)
        assert not report.accepted and not state.profiles
        assert [r["kind"] for r in report.rejections] == ["file"]

    def test_prefix_and_later_frames_load(self, tmp_path):
        path = self._compacted(tmp_path)
        state, report = read_state_file(path)
        assert report.accepted and report.frames == 5
        assert not report.rejections
        assert list(state.profiles) == _keys(*range(5))

    def test_a_truncated_prefix_is_rejected_whole(self, tmp_path):
        path = self._compacted(tmp_path, later=0)
        data = path.read_bytes()
        for cut in (len(data) - 1, len(data) - 40, len(data) // 2, 20):
            path.write_bytes(data[:cut])
            self._rejected_whole(path)

    def test_any_bit_flip_in_the_prefix_rejects_the_whole_file(
        self, tmp_path
    ):
        # Header and covered frames alike; the later frames go with them
        # (once the header is in doubt, so is where the prefix ends).
        path = self._compacted(tmp_path)
        data = path.read_bytes()
        prefix = sum(len(line) + 1 for line in data.split(b"\n")[:4])
        for offset in range(prefix):
            tampered = bytearray(data)
            tampered[offset] ^= 0x01
            path.write_bytes(bytes(tampered))
            self._rejected_whole(path)

    def test_a_flipped_later_frame_rejects_only_that_frame(self, tmp_path):
        path = self._compacted(tmp_path)
        lines = path.read_bytes().split(b"\n")
        lines[4] = lines[4][:30] + bytes([lines[4][30] ^ 0x01]) + lines[4][31:]
        path.write_bytes(b"\n".join(lines))
        state, report = read_state_file(path)
        assert report.accepted and report.frames == 4
        assert [(r["kind"], r["frame"]) for r in report.rejections] == [
            ("journal-frame", 4)
        ]
        assert list(state.profiles) == _keys(0, 1, 2, 4)

    def test_appends_never_follow_a_refused_prefix(self, tmp_path):
        # The reader would refuse them with it: recovery rewrites the
        # file first, so a flush after it survives the next crash.
        path = self._compacted(tmp_path, later=0)
        data = bytearray(path.read_bytes())
        data[10] ^= 0x01
        path.write_bytes(bytes(data))
        cache = SolveCache()
        persister = WriteBehindPersister(cache, path)
        assert [r["kind"] for r in persister.recover().rejections] == ["file"]
        _store(cache, 5)
        _store(cache, 6)
        assert persister.flush() == 2
        persister.journal.close()  # a crash: no compaction, no close()
        state, report = read_state_file(path)
        assert report.accepted and list(state.profiles) == _keys(5, 6)

    def test_a_stale_temp_file_is_never_loaded(self, tmp_path):
        path = self._compacted(tmp_path, later=0)
        # A compaction killed before its rename leaves a temp file behind.
        stale = tmp_path / ".solve-cache-killed.tmp"
        write_state_file(stale, [_frame(i) for i in range(5, 9)])
        other = tmp_path / "notes.tmp"
        other.write_bytes(b"not ours")
        cache = SolveCache()
        persister = WriteBehindPersister(cache, path)
        assert persister.recover().frames == 3
        assert len(cache) == 3
        # Recovery deleted it, and only it.
        assert sorted(os.listdir(tmp_path)) == ["journal.jsonl", "notes.tmp"]
        persister.close()
        assert list(read_state_file(path)[0].profiles) == _keys(0, 1, 2)

    def test_a_set_frame_under_the_header_refuses_its_file(self, tmp_path):
        # An older writer's compaction left a set frame among the
        # covered ones: the file is refused whole, the cache starts
        # cold, and the refusal is audited.
        profile, __, cached_set, __ = _OLDER_JOURNAL.splitlines(keepends=True)
        path = state_path(tmp_path / "state")
        write_state_file(path, [profile, cached_set])
        self._rejected_whole(path)
        authority = _authority("g", games=1)
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        audited = authority.audit.events_of(EVENT_CACHE_LOAD_REJECTED)
        assert [record.details["kind"] for record in audited] == ["file"]
        assert "unknown journal frame kind 'set'" in \
            audited[0].details["reason"]
        assert len(service.cache) == 0
        service.close()
        authority.close()

    def test_recovery_into_a_missing_directory_is_a_cold_start(
        self, tmp_path
    ):
        cache = SolveCache()
        persister = WriteBehindPersister(
            cache, tmp_path / "absent" / "journal.jsonl"
        )
        report = persister.recover()
        assert report.frames == 0 and not report.rejections
        assert len(cache) == 0


def _store(cache: SolveCache, index: int) -> None:
    """Commit one cache entry (one journal frame at the next flush)."""
    cache.store_profile(f"fp{index}", "m", "exact", _profile())


class TestWriteBehindPersister:
    def test_flush_cadence_by_drains(self, tmp_path):
        cache = SolveCache()
        persister = WriteBehindPersister(cache, state_path(tmp_path / "state"))
        cache.store_profile("fp", "m", "exact", _profile())
        persister.on_drained()
        assert persister.flushes == 1 and persister.frames_flushed == 1
        assert persister.journal.size_bytes() > 0
        persister.on_drained()  # every drain flushes, with or without news
        assert persister.flushes == 2 and persister.frames_flushed == 1
        persister.close()

    def test_snapshot_compacts_the_journal(self, tmp_path):
        path = state_path(tmp_path / "state")
        cache = SolveCache()
        persister = WriteBehindPersister(cache, path)
        cache.store_profile("fp", "m", "exact", _profile())
        persister.flush()
        assert persister.journal.size_bytes() > 0
        assert _header(path)["frames"] == 0  # appended, not yet compacted
        assert persister.snapshot() == 1
        assert _header(path)["frames"] == 1
        assert os.listdir(tmp_path / "state") == ["journal.jsonl"]
        persister.close()

    def test_a_second_persister_on_one_cache_is_refused(self, tmp_path):
        # Two journals would split the cache's updates between them.
        cache = SolveCache()
        persister = WriteBehindPersister(cache, state_path(tmp_path / "s"))
        with pytest.raises(ProtocolError):
            WriteBehindPersister(cache, state_path(tmp_path / "other"))
        assert not os.path.exists(tmp_path / "other" / "journal.jsonl")
        _store(cache, 1)
        assert persister.flush() == 1
        persister.close()

    def test_a_store_after_close_reaches_the_next_flush(self, tmp_path):
        cache = SolveCache()
        persister = WriteBehindPersister(cache, state_path(tmp_path / "s"))
        _store(cache, 1)
        assert persister.close() == 1
        _store(cache, 2)  # tracking stays armed past close()
        assert persister.flush() == 1
        persister.journal.close()
        state, report = read_state_file(persister.journal.path)
        assert report.frames == 2 and list(state.profiles) == _keys(1, 2)


class TestCompactionRule:
    """A cadence compaction needs an update committed since the last one
    and a file holding ``COMPACT_RATIO`` (2) frames per cache entry;
    ``snapshot()`` (the admin endpoint) and ``close()`` always compact."""

    @pytest.fixture(autouse=True)
    def _close_journals(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.journals = []
        yield
        for journal in self.journals:
            journal.close()

    def _persister(self, tmp_path, max_entries=4):
        self.monkeypatch.setattr(SolveCache, "max_entries", max_entries)
        cache = SolveCache()
        persister = WriteBehindPersister(cache, state_path(tmp_path / "state"))
        self.journals.append(persister.journal)
        return cache, persister

    def test_hits_and_clean_drains_never_compact(self, tmp_path):
        cache, persister = self._persister(tmp_path)
        game = BimatrixGame([[3, 0], [0, 2]], [[2, 0], [0, 3]])
        _store(cache, 1)
        persister.on_drained()
        for __ in range(8):
            assert cache.lookup_profile("fp1", "m", "exact", game) is not None
            persister.on_drained()
        assert persister.snapshots == 0
        assert _header(persister.journal.path)["frames"] == 0

    def test_compacts_at_twice_the_entry_count(self, tmp_path):
        cache, persister = self._persister(tmp_path)
        compacted_at = []
        for drain in range(1, 13):
            _store(cache, drain)
            persister.on_drained()
            if persister.snapshots > len(compacted_at):
                compacted_at.append(drain)
        # Every frame is live until the 4-entry cache fills; from then
        # on each new entry evicts one, so the file holds 8 frames for
        # 4 entries at drain 8, and again 4 drains after that.
        assert compacted_at == [8, 12]
        assert persister.frames_flushed == 12
        state, __ = read_state_file(persister.journal.path)
        assert list(state.profiles) == _keys(9, 10, 11, 12)
        for __ in range(6):  # clean drains: still nothing
            persister.on_drained()
        assert persister.snapshots == 2

    def test_a_repeated_key_is_a_stale_frame(self, tmp_path):
        cache, persister = self._persister(tmp_path)
        _store(cache, 1)
        persister.on_drained()
        assert persister.snapshots == 0  # 1 frame, 1 entry
        _store(cache, 1)
        persister.on_drained()
        assert persister.snapshots == 1  # 2 frames, 1 entry
        assert _header(persister.journal.path)["frames"] == 1

    def test_no_kept_frame_outlives_its_key(self, tmp_path):
        cache, persister = self._persister(tmp_path)
        for index in range(7):
            _store(cache, index)
            persister.flush()
        assert persister.snapshots == 0  # flush() alone never compacts
        assert len(persister._frames) == 7
        live = set(_keys(3, 4, 5, 6))
        # A compaction whose write fails prunes them too: a disk that
        # refuses every compaction must not grow the kept frames.
        with faults.armed("snapshot.write:raise:oserror@1"):
            assert persister.guarded_snapshot() is None
        assert set(persister._frames) == live
        persister.snapshot()
        assert set(persister._frames) == live

    def test_recovered_frames_count_toward_the_file(self, tmp_path):
        path = state_path(tmp_path / "state")
        with closing(CacheJournal(path)) as journal:
            journal.replace([_frame(i) for i in range(3)])
            journal.append([_frame(3)])
        cache, persister = self._persister(tmp_path, max_entries=2)
        assert persister.recover().frames == 4
        assert len(cache) == 2  # the newest two, pending
        persister.on_drained()
        assert persister.snapshots == 0  # 4 frames, 2 entries, nothing new
        _store(cache, 4)  # evicts the older pending entry
        assert len(cache) == 2
        persister.on_drained()
        assert persister.snapshots == 1  # 5 frames, 2 entries
        state, __ = read_state_file(path)
        assert list(state.profiles) == _keys(3, 4)

    def test_recovered_entries_share_the_cache_bound(self, tmp_path):
        path = state_path(tmp_path / "state")
        with closing(CacheJournal(path)) as journal:
            journal.replace([_frame(i) for i in range(3)])
        cache, persister = self._persister(tmp_path, max_entries=3)
        persister.recover()
        assert len(cache) == 3
        for index in range(3, 8):
            _store(cache, index)
            assert len(cache) <= 3
            persister.on_drained()
        persister.snapshot()
        state, __ = read_state_file(path)
        assert list(state.profiles) == _keys(5, 6, 7)

    def test_failed_snapshot_stays_dirty(self, tmp_path):
        cache, persister = self._persister(tmp_path, max_entries=1)
        _store(cache, 1)
        persister.on_drained()
        _store(cache, 2)
        with faults.armed("snapshot.write:raise:oserror@1"):
            persister.on_drained()  # 2 frames, 1 entry: due, and fails
        assert persister.snapshot_failures == 1
        assert persister.snapshots == 0
        persister.on_drained()  # no new update: the retry is still due
        assert persister.snapshots == 1
        persister.on_drained()
        assert persister.snapshots == 1

    def test_a_failed_compaction_leaves_its_frames_for_the_next_append(
        self, tmp_path
    ):
        cache, persister = self._persister(tmp_path)
        _store(cache, 1)  # queued, not flushed
        with faults.armed("snapshot.write:raise:oserror@1"):
            assert persister.guarded_snapshot() is None
        assert persister.flush() == 1
        state, __ = read_state_file(persister.journal.path)
        assert list(state.profiles) == _keys(1)

    def test_a_failed_append_compacts_at_once(self, tmp_path):
        """One try per append; a failure compacts at once, and the
        persister stays degraded until an append of frames lands."""
        cache, persister = self._persister(tmp_path)
        events = []
        persister.set_event_handler(events.append)
        _store(cache, 1)
        with faults.armed("journal.append:raise:oserror@1"):
            persister.on_drained()
        assert persister.degraded and persister.snapshots == 1
        assert _header(persister.journal.path)["frames"] == 1
        for __ in range(3):  # nothing to append: no compaction either
            persister.on_drained()
        assert persister.degraded and persister.snapshots == 1
        _store(cache, 2)
        persister.on_drained()  # the append lands
        assert not persister.degraded and persister.degraded_reason is None
        assert persister.snapshots == 1 and persister.frames_flushed == 1
        _store(cache, 3)
        with faults.armed(
            "journal.append:raise:oserror@1; snapshot.write:raise:oserror@1"
        ):
            persister.on_drained()  # the append and its compaction fail
        assert persister.degraded and persister.snapshot_failures == 1
        with pytest.raises(PersistenceError):
            persister.journal.append([])  # refused until a compaction
        persister.on_drained()  # so the next flush compacts again
        assert persister.snapshots == 2
        persister.on_drained()
        assert persister.snapshots == 2 and persister.flush_failures == 3
        assert list(read_state_file(persister.journal.path)[0].profiles) \
            == _keys(1, 2, 3)
        assert [e["kind"] for e in events] == [
            "degraded", "degraded", "snapshot-failed",
        ]
        assert all(set(e) == {"kind", "reason"} for e in events)

    def test_admin_snapshot_and_close_always_run(self, tmp_path):
        cache, persister = self._persister(tmp_path)
        assert persister.snapshot() == 0  # clean, and still compacted
        assert persister.snapshot() == 0
        assert persister.close() == 0
        assert persister.snapshots == 3
        assert _header(persister.journal.path)["frames"] == 0

    def test_flush_waits_for_an_overlapping_compaction(
        self, tmp_path, monkeypatch
    ):
        """A frame flushed between a compaction's copy of the cache and
        its rename must not be appended to the file being replaced."""
        cache, persister = self._persister(tmp_path)
        _store(cache, 1)
        assert persister.flush() == 1
        copied, release = threading.Event(), threading.Event()
        replace = persister.journal.replace

        def paused_replace(frames):
            copied.set()  # the compaction's copy of the cache is taken
            assert release.wait(30)
            return replace(frames)

        monkeypatch.setattr(persister.journal, "replace", paused_replace)
        compactor = threading.Thread(target=persister.snapshot)
        compactor.start()
        assert copied.wait(30)
        flushed = []

        def store_and_flush():
            _store(cache, 2)
            flushed.append(persister.flush())

        flusher = threading.Thread(target=store_and_flush)
        flusher.start()
        flusher.join(0.5)  # unserialized, the flush lands in this window
        release.set()
        compactor.join(30)
        flusher.join(30)
        assert not compactor.is_alive() and not flusher.is_alive()
        assert flushed == [1]
        state, __ = read_state_file(persister.journal.path)
        assert list(state.profiles) == _keys(1, 2)


def _committers(path) -> list:
    """The live committer threads of the journal at ``path``."""
    name = f"repro-journal-commit {os.fspath(path)}"
    return [t for t in threading.enumerate() if t.name == name]


def _on_committer() -> bool:
    return threading.current_thread().name.startswith("repro-journal-commit")


def _wait_for(predicate) -> None:
    deadline = time.monotonic() + 30
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.002)


class TestGroupCommit:
    """Appends write at once; one committer thread per open journal
    fsyncs them, at most once per ``COMMIT_INTERVAL_S``, off the
    draining thread."""

    @pytest.fixture(autouse=True)
    def _gated_fsync(self, monkeypatch):
        """The committer's fsyncs wait for ``self.gate`` (one release per
        fsync) and signal ``self.entered``; other threads' fsyncs run as
        they are."""
        real_fsync = os.fsync
        self.entered = threading.Semaphore(0)
        self.gate = threading.Semaphore(0)
        self.committed = []  # (entered, returned) monotonic times

        def fsync(fd):
            if not _on_committer():
                return real_fsync(fd)
            entered = time.monotonic()
            self.entered.release()
            self.gate.acquire(timeout=30)
            real_fsync(fd)
            self.committed.append((entered, time.monotonic()))

        monkeypatch.setattr(os, "fsync", fsync)
        yield
        for __ in range(8):
            self.gate.release()  # nothing stays parked past a test

    def test_drains_return_while_the_committers_fsync_waits(self, tmp_path):
        authority = _authority("g")
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        path = service.persister.journal.path
        futures = [service.submit("jane", "g0")]
        assert service.drain() == 1
        assert self.entered.acquire(timeout=30)  # the fsync is parked
        for game_id in ("g1", "g2"):
            futures.append(service.submit("jane", game_id))
            assert service.drain() == 1
        assert [f.result().advice.cache for f in futures] == ["miss"] * 3
        assert read_state_file(path)[1].frames == 3
        stats = service.persister.stats()
        assert stats["journal_synced_bytes"] < stats["journal_bytes"]
        self.gate.release()
        service.close()
        assert read_state_file(path)[1].frames == 3

    def test_appends_within_one_interval_share_one_fsync(self, tmp_path):
        journal = CacheJournal(tmp_path / "journal.jsonl")
        journal.append([_frame(0)])
        assert self.entered.acquire(timeout=30)
        for index in range(1, 4):  # while the first fsync is parked
            journal.append([_frame(index)])
        self.gate.release()
        self.gate.release()
        _wait_for(lambda: journal.synced_bytes == journal.size_bytes())
        journal.close()  # nothing left for a final sync
        assert len(self.committed) == 2
        (__, first_returned), (second_entered, __) = self.committed
        assert (second_entered
                >= first_returned + journal_module.COMMIT_INTERVAL_S)

    def test_a_sync_straddling_a_compaction_covers_none_of_the_new_file(
        self, tmp_path
    ):
        journal = CacheJournal(tmp_path / "journal.jsonl")
        journal.append([_frame(index) for index in range(5)])
        old_end = journal.size_bytes()
        assert self.entered.acquire(timeout=30)  # syncing the old file
        compacted = journal.replace([_frame(9)])
        assert compacted < old_end
        assert journal.synced_bytes == compacted
        journal.append([_frame(10)])
        self.gate.release()  # the old file's sync completes...
        assert self.entered.acquire(timeout=30)  # ...and the next begins
        assert journal.synced_bytes == compacted
        self.gate.release()
        _wait_for(lambda: journal.synced_bytes == journal.size_bytes())
        journal.close()

    def test_a_failed_fsync_costs_one_compaction(
        self, tmp_path, monkeypatch
    ):
        """The drain after a failed fsync compacts once, without
        retrying appends the journal refuses, and the journal then
        takes appends again."""
        gated = os.fsync
        failed = []

        def failing_once(fd):
            if _on_committer() and not failed:
                failed.append(fd)
                raise OSError(errno.EIO, "fsync failed")
            return gated(fd)

        monkeypatch.setattr(os, "fsync", failing_once)
        for __ in range(64):
            self.gate.release()  # later committer fsyncs run ungated
        authority = _authority("g", games=12)
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        persister = service.persister
        cold = [service.submit("jane", "g0").result()]

        def refused() -> bool:
            try:
                persister.journal.append([])
            except PersistenceError:
                return True
            return False

        _wait_for(refused)  # appends wait for a compaction
        cold.append(service.submit("jane", "g1").result())
        assert persister.snapshots == 1 and persister.degraded
        assert not refused()  # the compaction rewrote the file
        flushed = persister.frames_flushed
        cold += [service.submit("jane", f"g{i}").result()
                 for i in range(2, 12)]
        assert persister.frames_flushed == flushed + 10
        assert persister.snapshots == 1
        assert not persister.degraded
        (degraded,) = authority.audit.events_of(EVENT_DURABILITY_DEGRADED)
        assert set(degraded.details) == {"kind", "reason"}
        assert degraded.details["kind"] == "degraded"
        assert "fsync failed" in degraded.details["reason"]
        assert service.close() == 12
        authority.close()

        restarted = _authority("h", games=12)  # same payoffs, new game ids
        warm_service = AuthorityService(restarted, state_dir=tmp_path / "state")
        warm = [warm_service.submit("jane", f"h{i}").result()
                for i in range(12)]
        assert [o.advice.cache for o in warm] == ["hit"] * 12
        assert [o.advice.suggestion for o in warm] == [
            o.advice.suggestion for o in cold
        ]
        warm_service.close()

    def test_no_committer_outlives_close(self, tmp_path):
        for __ in range(8):
            self.gate.release()
        authority = _authority("g", games=2)
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        service.submit("jane", "g0").result()
        path = service.persister.journal.path
        assert len(_committers(path)) == 1
        service.close()
        assert _committers(path) == []
        # The default service's drain reopens the journal; its close,
        # through the authority's, stops the committer again.
        authority.consult("jane", "g1")
        assert len(_committers(path)) == 1
        authority.close()
        assert _committers(path) == []
        assert read_state_file(path)[1].frames == 2


class TestCrashRecoveryInProcess:
    """Journal-only recovery (no compaction yet): the SIGKILL shape."""

    def test_the_first_drain_writes_a_header_over_no_frames(self, tmp_path):
        authority = _authority("g", games=1)
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        service.submit("jane", "g0")
        service.drain()
        header, *frames = (
            (tmp_path / "state" / "journal.jsonl").read_bytes().splitlines()
        )
        assert json.loads(header)["schema"] == 2
        assert json.loads(header)["frames"] == 0
        assert len(frames) == 1 and json.loads(frames[0])["body"]
        service.close()
        authority.close()

    def test_replayed_entries_serve_bit_identical_hits(self, tmp_path):
        journal_path = state_path(tmp_path / "state")
        authority = _authority("g")
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        futures = [service.submit("jane", f"g{i}") for i in range(3)]
        service.drain()
        cold = [
            [str(p) for p in f.result().advice.suggestion] for f in futures
        ]
        # Simulate SIGKILL: no snapshot(), no close() — only the journal
        # frames flushed at drain-end survive.
        service.persister.journal.close()
        assert _header(journal_path)["frames"] == 0

        fresh_authority = _authority("h")  # same payoffs, new game ids
        fresh_service = AuthorityService(
            fresh_authority, state_dir=tmp_path / "state"
        )
        (loaded,) = fresh_authority.audit.events_of(EVENT_CACHE_LOADED)
        assert loaded.details["journal_frames"] > 0
        assert loaded.details["journal_rejected"] == 0
        futures = [fresh_service.submit("jane", f"h{i}") for i in range(3)]
        fresh_service.drain()
        outcomes = [f.result() for f in futures]
        assert all(o.advice.cache == "hit" for o in outcomes)
        warm = [[str(p) for p in o.advice.suggestion] for o in outcomes]
        assert warm == cold
        fresh_service.close()

    def test_a_service_dropped_without_close_restarts_into_hits(
        self, tmp_path
    ):
        # One drain per consultation, then a crash before any
        # compaction: every drain's frame is on disk behind the header.
        authority = _authority("g")
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        cold = []
        for i in range(3):
            future = service.submit("jane", f"g{i}")
            assert service.drain() == 1
            cold.append(future.result().advice.suggestion)
        assert service.persister.snapshots == 0
        service.persister.journal.close()  # the crash

        fresh_authority = _authority("h")
        fresh = AuthorityService(fresh_authority, state_dir=tmp_path / "state")
        (loaded,) = fresh_authority.audit.events_of(EVENT_CACHE_LOADED)
        assert loaded.details["journal_frames"] == 3
        assert loaded.details["journal_rejected"] == 0
        outcomes = [fresh.submit("jane", f"h{i}").result() for i in range(3)]
        assert [o.advice.cache for o in outcomes] == ["hit"] * 3
        assert [o.advice.suggestion for o in outcomes] == cold
        assert all(
            type(p) is Fraction for o in outcomes for p in o.advice.suggestion
        )
        fresh.close()

    def test_tampered_journal_frame_is_audited_not_served(self, tmp_path):
        journal_path = state_path(tmp_path / "state")
        authority = _authority("g", games=1)
        service = AuthorityService(authority, state_dir=tmp_path / "state")
        service.submit("jane", "g0")
        service.drain()
        service.persister.journal.close()
        # Flip one byte inside the first frame's body (line 0 is the
        # header): the digest no longer matches, so replay must reject
        # exactly that frame.
        with open(journal_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = lines[1][:20] + b"X" + lines[1][21:]
        with open(journal_path, "wb") as handle:
            handle.write(b"".join(lines))

        fresh_authority = _authority("h", games=1)
        fresh_service = AuthorityService(
            fresh_authority, state_dir=tmp_path / "state"
        )
        rejected = fresh_authority.audit.events_of(EVENT_CACHE_LOAD_REJECTED)
        assert len(rejected) >= 1
        assert rejected and rejected[0].details["kind"] == "journal-frame"
        # The consultation still succeeds — as a cold solve, never as
        # unverified warm advice.
        future = fresh_service.submit("jane", "h0")
        fresh_service.drain()
        outcome = future.result()
        assert outcome.majority.accepted
        fresh_service.close()


def _equilibria_by_key() -> list:
    """Six 2x2 coordination games, each with three exact equilibria:
    ``(cache key, game, equilibria)``."""
    found = []
    for a, b in ((3, 2), (2, 3), (4, 1), (5, 2), (3, 1), (1, 4)):
        game = BimatrixGame([[a, 0], [0, b]], [[b, 0], [0, a]])
        key = (game.payoff_fingerprint, "support-enumeration", "exact")
        found.append((key, game, support_enumeration(game)))
    return found


_EQUILIBRIA = _equilibria_by_key()


class _FourEntryCache(SolveCache):
    max_entries = 4


class PersisterMachine(RuleBasedStateMachine):
    """One persister over a 4-entry cache and six keys (so stores
    evict), driven by random steps.

    The model is the file: ``log`` holds ``(key, value, end)`` in the
    order the file holds them, ``end`` being the file offset at which
    the flush or compaction that wrote the entry ended.  A flush
    appends what was stored since the last flush, a compaction replaces
    the log with the cache's entries, and a store that was never
    flushed is lost to a crash.  Power loss keeps only the entries
    wholly below the offset the journal's last completed fsync or
    compaction covers.  A flush whose append fails compacts at once; a
    compaction whose write fails leaves the file, and what it encoded
    waits for the next flush.  After every recovery the cache must hold
    exactly the newest four keys of the folded log, with their exact
    values, and after every step the persister is degraded exactly from
    a failed append until an append of frames lands.
    """

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="persister-model-")
        self.path = os.path.join(self.directory, "journal.jsonl")
        self.log: list = []
        self._open()

    def _open(self) -> None:
        self.cache = _FourEntryCache()
        self.persister = WriteBehindPersister(self.cache, self.path)
        self.persister.recover()
        self.stored: list = []  # committed since the last flush
        self.degraded = False
        folded: dict = {}
        for key, value, __ in self.log:
            folded.pop(key, None)
            folded[key] = value
        expected = list(folded.items())[-4:]
        recovered = self.cache.entries()
        assert [key for key, __ in recovered] == [key for key, __ in expected]
        for (__, got), (__, want) in zip(recovered, expected):
            assert got.distributions == want.distributions
            assert all(type(p) is Fraction
                       for dist in got.distributions for p in dist)

    @rule(game=st.integers(0, 5), which=st.integers(0, 2))
    def store(self, game, which):
        key, __, equilibria = _EQUILIBRIA[game]
        value = equilibria[which]
        self.cache.store_profile(*key, value)
        self.stored.append((key, value))

    @rule(game=st.integers(0, 5))
    def hit(self, game):
        key, payoffs, __ = _EQUILIBRIA[game]
        self.cache.lookup_profile(*key, game=payoffs)

    def _file_end(self) -> int:
        return self.persister.journal.size_bytes()

    def _compacted(self) -> None:
        end = self._file_end()
        self.log = [(key, value, end) for key, value in self.cache.entries()]
        self.stored = []

    @rule()
    def flush(self):
        self.persister.flush()
        end = self._file_end()
        self.log.extend((key, value, end) for key, value in self.stored)
        if self.stored:
            self.degraded = False
        self.stored = []

    @rule()
    def failed_append(self):
        with faults.armed("journal.append:raise:oserror@1"):
            self.persister.flush()
        if self.stored:  # an append of no frames never reaches the hook
            self.degraded = True
            self._compacted()

    @rule()
    def failed_compaction(self):
        with faults.armed("snapshot.write:raise:oserror@1"):
            assert self.persister.guarded_snapshot() is None

    @invariant()
    def degraded_from_a_failed_append_until_frames_land(self):
        assert self.persister.degraded == self.degraded

    @rule()
    def compact(self):
        self.persister.snapshot()
        self._compacted()

    @rule()
    def commit(self):
        """Wait for the committer to sync what was appended."""
        journal = self.persister.journal
        if _committers(self.path):
            _wait_for(lambda: journal.synced_bytes >= journal.size_bytes())

    @rule()
    def crash(self):
        self.persister.journal.close()  # releases the fd, writes nothing
        self._open()

    @rule()
    def power_loss(self):
        """The file keeps only what the last completed fsync or
        compaction covers."""
        synced = self.persister.stats()["journal_synced_bytes"]
        self.persister.journal.close()
        if os.path.exists(self.path):
            os.truncate(self.path, synced)
        self.log = [entry for entry in self.log if entry[2] <= synced]
        self._open()

    @rule()
    def close_and_reopen(self):
        self.persister.close()
        self._compacted()
        self._open()

    def teardown(self):
        self.persister.journal.close()
        shutil.rmtree(self.directory, ignore_errors=True)


PersisterMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestPersisterModel = PersisterMachine.TestCase
