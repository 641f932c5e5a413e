"""Persistent warm state: exact round trips, tamper-rejecting loads.

The contract under test is the restart half of proof-preserving
caching: a compacted-then-recovered cache serves profiles
*bit-identical* to its in-memory hits, every loaded profile passes the
Lemma-1 lattice gate before its first serve, and any tampered,
truncated, version-mismatched or older-format file degrades to an
empty cache (clean misses) plus a ``cache.load.rejected`` audit record
— never to unverified advice.

A compacted file is a header line (format, schema, count and digest of
the frames) over one digest-framed line per entry; the tamper tests
edit the header or a covered frame and, where a forger would, reseal
every digest with the real writer.  Files are written and recovered
through the one path to disk, the write-behind persister that
``AuthorityService(state_dir=)`` owns.
"""

from __future__ import annotations

import json
import os
import threading
from fractions import Fraction

import pytest

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import (
    EVENT_CACHE_LOAD_REJECTED,
    EVENT_CACHE_LOADED,
    EVENT_CACHE_SAVED,
    EVENT_DURABILITY_DEGRADED,
)
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.errors import PersistenceError
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.linalg.backend import (
    MODE_EXACT,
    MODE_FLOAT_CERTIFY,
    MODE_NUMPY,
    BackendPolicy,
)
from repro.service import AuthorityService, SolveCache, faults
from repro.service.journal import WriteBehindPersister
from repro.service.persistence import (
    FORMAT_NAME,
    SCHEMA_VERSION,
    decode_fraction,
    decode_profile,
    encode_fraction,
    encode_journal_frame,
    encode_profile,
    payload_digest,
    read_state_file,
    write_state_file,
)

MODES = [
    BackendPolicy(MODE_EXACT),
    BackendPolicy(MODE_FLOAT_CERTIFY),
    BackendPolicy(MODE_NUMPY),  # falls back to the stdlib float path sans numpy
]


def _bit_identical(left, right) -> bool:
    """Equal values AND exact types — every probability is a Fraction."""
    if left.distributions != right.distributions:
        return False
    return all(
        type(value) is Fraction
        for dist in left.distributions
        for value in dist
    )


def _degenerate_and_rank_deficient():
    """Degenerate and rank-deficient games — the hard serialization cases.

    Duplicate rows/columns and the all-zero game give rank-deficient
    payoff matrices and several (often continuum-edge) equilibria, so
    which profile is stored depends on deterministic enumeration order —
    exactly what a round trip must preserve bit for bit.
    """
    zero = [[0, 0], [0, 0]]
    return [
        BimatrixGame.fig5_example(),
        BimatrixGame(
            [[3, 0], [3, 0], [0, 2]], [[1, 2], [1, 2], [4, 0]],
            name="DuplicateRows",
        ),
        BimatrixGame(
            [[1, 1, 4], [2, 2, 0]], [[3, 3, 1], [0, 0, 5]],
            name="IdenticalColumns",
        ),
        BimatrixGame(zero, zero, name="AllZero"),
        BimatrixGame(
            [[Fraction(1, 3), Fraction(1, 3)], [Fraction(1, 7), 1]],
            [[Fraction(2, 3), Fraction(1, 9)], [1, Fraction(1, 7)]],
            name="SmallFractions",
        ),
    ]


def _battle_of_the_sexes() -> BimatrixGame:
    return BimatrixGame([[3, 0], [0, 2]], [[2, 0], [0, 3]], name="BoS")


_BOS_FINGERPRINT = (
    "db684689d8aad4a0cfe8c78e1ae8227a4ee79376c7761eb418281a594adeab9d"
)

#: A schema-1 document of one cached Battle-of-the-Sexes solve and its
#: enumeration set, as the writer that still kept support hints saved
#: it (the digest is that writer's).
_OLDER_SNAPSHOT = {
    "digest": "sha256:9409afd5d7678126b36c28d784fab879"
              "df444d55d2227fb33a2a4838b6a90d2a",
    "format": "repro.solve-cache",
    "payload": {
        "hints": [{"pairs": [[[0], [0]]], "shape": [2, 2]}],
        "profiles": [{
            "fingerprint": _BOS_FINGERPRINT,
            "method": "support-enumeration",
            "mode": "exact",
            "profile": [["1/1", "0/1"], ["1/1", "0/1"]],
        }],
        "sets": [{
            "equal_size_only": False,
            "fingerprint": _BOS_FINGERPRINT,
            "profiles": [
                [["1/1", "0/1"], ["1/1", "0/1"]],
                [["0/1", "1/1"], ["0/1", "1/1"]],
                [["3/5", "2/5"], ["2/5", "3/5"]],
            ],
        }],
    },
    "schema": 1,
}

_OLDER_SET = _OLDER_SNAPSHOT["payload"]["sets"][0]

#: Frame bodies of the kinds an older writer also journaled.
_RETIRED_FRAME_BODIES = {
    "set": {
        "equal_size_only": False,
        "fingerprint": _BOS_FINGERPRINT,
        "format": "repro.solve-cache-journal",
        "kind": "set",
        "profiles": _OLDER_SET["profiles"],
        "schema": 1,
    },
    "hint": {
        "format": "repro.solve-cache-journal",
        "kind": "hint",
        "pair": [[0], [0]],
        "schema": 1,
        "shape": [2, 2],
    },
}


def _cached(name, cache, **kwargs) -> BimatrixInventor:
    """A ``BimatrixInventor`` solving through ``cache``."""
    inventor = BimatrixInventor(name, **kwargs)
    inventor.attach_solve_cache(cache)
    return inventor


def _persisted(path):
    """A fresh cache and the persister of ``path`` over it."""
    cache = SolveCache()
    return cache, WriteBehindPersister(cache, path)


def _recovered(path):
    """A fresh cache recovered from ``path``: ``(cache, report)``."""
    cache, persister = _persisted(path)
    return cache, persister.recover()


def _header_and_bodies(path) -> tuple[dict, list[dict]]:
    """A compacted file's header and its covered frames' bodies."""
    lines = path.read_bytes().splitlines()
    return json.loads(lines[0]), [json.loads(line)["body"] for line in lines[1:]]


def _reseal(path, edit) -> None:
    """Let ``edit`` change the covered frame bodies, then rewrite the
    file with every digest recomputed — what a forger would do."""
    __, bodies = _header_and_bodies(path)
    edit(bodies)
    write_state_file(path, [
        json.dumps({"body": body, "digest": payload_digest(body)},
                   sort_keys=True, separators=(",", ":")).encode() + b"\n"
        for body in bodies
    ])


def _edit_header(path, **changes) -> None:
    header, __, rest = path.read_bytes().partition(b"\n")
    document = json.loads(header)
    document.update(changes)
    path.write_bytes(json.dumps(document).encode() + b"\n" + rest)


class TestExactEncoding:
    """num/den strings, strict decoding — the serialize.py discipline."""

    def test_fraction_round_trip_is_exact(self):
        for value in (Fraction(0), Fraction(1), Fraction(-7, 3),
                      Fraction(10**40 + 1, 10**40)):
            assert decode_fraction(encode_fraction(value)) == value

    @pytest.mark.parametrize("bad", ["0.5", "1", 3, 0.5, None, "1/0", "a/b", "1//2"])
    def test_non_canonical_encodings_are_rejected(self, bad):
        with pytest.raises(PersistenceError):
            decode_fraction(bad)

    def test_profile_round_trip_is_bit_identical(self):
        profile = BimatrixGame.fig5_example()  # just for a valid shape
        from repro.games.profiles import MixedProfile

        mixed = MixedProfile.from_rows(
            [[Fraction(1, 3), Fraction(2, 3)], [Fraction(1), Fraction(0)]]
        )
        restored = decode_profile(encode_profile(mixed))
        assert _bit_identical(restored, mixed)
        del profile

    def test_non_stochastic_profiles_are_rejected(self):
        with pytest.raises(PersistenceError):
            decode_profile([["1/2", "1/3"], ["1/1", "0/1"]])  # sums to 5/6
        with pytest.raises(PersistenceError):
            decode_profile([])


class TestRoundTrip:
    """Compacted-then-recovered caches serve bit-identical, re-certified
    hits."""

    @pytest.mark.parametrize("policy", MODES, ids=[p.mode for p in MODES])
    def test_profiles_bit_identical_across_modes(self, tmp_path, policy):
        path = tmp_path / "journal.jsonl"
        cache, persister = _persisted(path)
        inventor = _cached(
            "inv", cache, method="support-enumeration", backend=policy
        )
        games = _degenerate_and_rank_deficient() + [
            random_bimatrix(4, 4, seed=900 + i) for i in range(3)
        ]
        cold = [inventor.solve(g).profile for g in games]
        persister.close()  # the final compaction

        loaded, report = _recovered(path)
        assert report.accepted
        restarted = _cached(
            "inv2", loaded, method="support-enumeration", backend=policy
        )
        for i, game in enumerate(games):
            clone = BimatrixGame(game.row_matrix, game.column_matrix)
            warm, cache_state, __ = restarted.solve(clone)
            assert cache_state == "hit", game.name
            assert _bit_identical(warm, cold[i]), game.name
        assert loaded.stats.hits == len(games)
        assert loaded.stats.load_rejected == 0

    def test_lru_order_survives_the_round_trip(self, tmp_path, monkeypatch):
        path = tmp_path / "journal.jsonl"
        cache, persister = _persisted(path)
        inventor = _cached("inv", cache, method="support-enumeration")
        games = [random_bimatrix(3, 3, seed=700 + i) for i in range(3)]
        for i, game in enumerate(games):
            inventor.solve(game)
        persister.close()

        # Reload into a 2-entry cache: only the two *newest* survive.
        monkeypatch.setattr(SolveCache, "max_entries", 2)
        loaded, __ = _recovered(path)
        probe = _cached("probe", loaded, method="support-enumeration")
        p0 = BimatrixGame(games[0].row_matrix, games[0].column_matrix)
        assert probe.solve(p0).cache == "miss"  # oldest was dropped
        p2 = BimatrixGame(games[2].row_matrix, games[2].column_matrix)
        assert probe.solve(p2).cache == "hit"

    def test_save_preserves_the_target_file_mode(self, tmp_path):
        # mkstemp temp files are 0600; the atomic replace must not
        # silently revoke other readers' access to the warm state.
        import stat

        path, _ = _populated_file(tmp_path)
        os.chmod(path, 0o644)
        cache, persister = _persisted(path)
        persister.recover()
        persister.snapshot()
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644

    def test_pending_entries_ride_along_on_save(self, tmp_path):
        # Load warm state, serve none of it, compact again: nothing is
        # lost.
        path = tmp_path / "journal.jsonl"
        cache, persister = _persisted(path)
        inventor = _cached("inv", cache, method="support-enumeration")
        game = random_bimatrix(3, 3, seed=77)
        inventor.solve(game)
        persister.close()
        intermediate, persister = _persisted(path)
        persister.recover()  # loads, serves nothing
        persister.close()
        final, report = _recovered(path)
        assert report.profiles == 1
        served = _cached("inv2", final, method="support-enumeration")
        clone = BimatrixGame(game.row_matrix, game.column_matrix)
        assert served.solve(clone).cache == "hit"


def _populated_file(tmp_path, count=2):
    path = tmp_path / "journal.jsonl"
    cache, persister = _persisted(path)
    inventor = _cached("inv", cache, method="support-enumeration")
    games = [random_bimatrix(3, 3, seed=40 + i) for i in range(count)]
    for i, game in enumerate(games):
        inventor.solve(game)
    persister.close()
    return path, games


class TestTamperRejection:
    """Corruption of any kind loads as empty-with-rejection, never advice."""

    def _assert_rejected(self, path, reason_fragment=""):
        cache, report = _recovered(path)
        assert not report.accepted
        if reason_fragment:
            assert reason_fragment in report.reason
        assert len(cache) == 0  # clean misses from here on
        assert cache.stats.load_rejected == 1
        rejections = cache.drain_rejections()
        assert len(rejections) == 1 and rejections[0]["kind"] == "file"
        return report

    def test_truncated_file_is_rejected(self, tmp_path):
        path, _ = _populated_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        self._assert_rejected(path)

    def test_bit_flip_anywhere_is_rejected(self, tmp_path):
        path, _ = _populated_file(tmp_path)
        data = bytearray(path.read_bytes())
        # Flip a digit inside the payload body (keeps the JSON valid in
        # the common case; the digest must catch it regardless).
        for offset in (len(data) // 3, len(data) // 2, 2 * len(data) // 3):
            tampered = bytearray(data)
            tampered[offset] ^= 0x01
            path.write_bytes(bytes(tampered))
            cache, report = _recovered(path)
            assert not report.accepted
            assert len(cache) == 0

    def test_wrong_schema_version_is_rejected(self, tmp_path):
        # Even with a *valid* digest, an unknown schema must not load.
        path, _ = _populated_file(tmp_path)
        _edit_header(path, schema=SCHEMA_VERSION + 1)
        self._assert_rejected(path, "schema")

    def test_wrong_format_tag_is_rejected(self, tmp_path):
        path, _ = _populated_file(tmp_path)
        _edit_header(path, format="some.other.format")
        self._assert_rejected(path, "not a solve-cache")

    def test_garbage_and_empty_files_are_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        for blob in (b"", b"not json at all", b"\x00\xff\xfe", b"[1, 2, 3]"):
            path.write_bytes(blob)
            cache, report = _recovered(path)
            assert not report.accepted
            assert len(cache) == 0
            cache.drain_rejections()

    def test_forged_digest_profile_fails_the_gate_at_serve(self, tmp_path):
        # An adversary who *recomputes* the digest can get structurally
        # valid junk loaded — but the Lemma-1 gate rejects it at first
        # serve and the solve falls back to a certified cold answer.
        from repro.equilibria.mixed import certify_mixed_profile

        path, games = _populated_file(tmp_path, count=1)

        def uniform(bodies):
            # Not an equilibrium of these random games.
            bodies[0]["profile"] = [["1/3", "1/3", "1/3"],
                                    ["1/3", "1/3", "1/3"]]

        _reseal(path, uniform)

        cache, report = _recovered(path)
        assert report.accepted  # structurally fine
        inventor = _cached("inv", cache, method="support-enumeration")
        game = games[0]
        profile, cache_state, __ = inventor.solve(
            BimatrixGame(game.row_matrix, game.column_matrix)
        )
        assert cache_state == "miss"  # not served
        assert certify_mixed_profile(game, profile) is not None
        assert cache.stats.load_rejected == 1
        (rejection,) = cache.drain_rejections()
        assert rejection["kind"] == "profile"

    @pytest.mark.parametrize("kind", sorted(_RETIRED_FRAME_BODIES))
    def test_a_retired_frame_kind_refuses_the_whole_file(
        self, tmp_path, kind
    ):
        # An older writer's set or support-hint frame among the covered
        # ones, every digest recomputed: the file is refused whole.
        path, _ = _populated_file(tmp_path)
        _reseal(path, lambda bodies: bodies.append(
            dict(_RETIRED_FRAME_BODIES[kind])
        ))
        assert _header_and_bodies(path)[0]["frames"] == 3
        self._assert_rejected(path, f"unknown journal frame kind {kind!r}")

    def test_wrong_game_shape_under_a_forged_key_is_rejected(self, tmp_path):
        # Forge a pending profile under some *other* game's fingerprint:
        # the gate raises on the shape mismatch, which must read as a
        # rejection (cold solve), not a crash.
        path, games = _populated_file(tmp_path, count=1)

        def wrong_shape(bodies):
            bodies[0]["profile"] = [["1/2", "1/2"], ["1/2", "1/2"]]  # 2x2

        _reseal(path, wrong_shape)
        cache, __ = _recovered(path)
        inventor = _cached("inv", cache, method="support-enumeration")
        game = games[0]
        clone = BimatrixGame(game.row_matrix, game.column_matrix)
        assert inventor.solve(clone).cache == "miss"
        assert cache.stats.load_rejected == 1


def _older_files() -> dict:
    """What older writers left, by name: frames without a header, and
    the schema-1 document on one line and over several."""
    profile = (_BOS_FINGERPRINT, "support-enumeration", "exact")
    frame = encode_journal_frame(
        profile, decode_profile(_OLDER_SNAPSHOT["payload"]["profiles"][0]
                                ["profile"])
    )
    return {
        "headerless-journal": frame,
        "schema-1-line": json.dumps(_OLDER_SNAPSHOT).encode() + b"\n",
        "schema-1-document": json.dumps(_OLDER_SNAPSHOT, indent=1).encode(),
    }


class TestOlderFormats:
    """The reader speaks only the schema-2 header format: an older
    writer's file is refused whole, audited once, and compacted over.
    It is only warm state, so the refusal costs a re-solve."""

    @pytest.mark.parametrize("name", sorted(_older_files()))
    def test_an_older_file_is_refused_whole(self, tmp_path, name):
        state = tmp_path / "state"
        state.mkdir()
        (state / "journal.jsonl").write_bytes(_older_files()[name])
        authority, service = _service_fixture(
            state, [("bos", _battle_of_the_sexes())]
        )
        rejected = authority.audit.events_of(EVENT_CACHE_LOAD_REJECTED)
        assert [r.details["kind"] for r in rejected] == ["file"]
        (loaded,) = authority.audit.events_of(EVENT_CACHE_LOADED)
        assert loaded.details["journal_accepted"] is False
        assert loaded.details["entries"] == 0
        # Compacted over before serving: a header over no frames.
        header, body = _header_and_bodies(state / "journal.jsonl")
        assert header["frames"] == 0 and body == []
        outcome = service.submit("jane", "bos").result()
        assert outcome.adopted and outcome.advice.cache == "miss"
        service.close()
        authority.close()


def _service_fixture(state_dir=None, games=None, **kwargs):
    authority = RationalityAuthority(seed=3)
    authority.register_verifiers(standard_procedures())
    inventor = BimatrixInventor("inv", method="support-enumeration")
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for game_id, game in games or ():
        authority.publish_game("inv", game_id, game)
    service = AuthorityService(authority, state_dir=state_dir, **kwargs)
    return authority, service


class TestServiceIntegration:
    """state_dir end-to-end: recovery, audit records, compaction on
    close."""

    def test_restart_round_trip_through_the_service(self, tmp_path):
        state = tmp_path / "state"
        bases = [random_bimatrix(4, 4, seed=80 + i) for i in range(3)]
        games = [(f"c{i}", g) for i, g in enumerate(bases)]
        authority, service = _service_fixture(state, games)
        cold = [service.submit("jane", f"c{i}").result() for i in range(3)]
        service.close()
        saved = authority.audit.events_of(EVENT_CACHE_SAVED)
        assert saved and saved[-1].details["entries"] == len(service.cache)
        assert (state / "journal.jsonl").exists()

        clones = [
            (f"w{i}", BimatrixGame(g.row_matrix, g.column_matrix))
            for i, g in enumerate(bases)
        ]
        authority2, service2 = _service_fixture(state, clones)
        loaded = authority2.audit.events_of(EVENT_CACHE_LOADED)
        assert loaded and loaded[-1].details["journal_profiles"] == 3
        warm = [service2.submit("jane", f"w{i}").result() for i in range(3)]
        assert all(o.advice.cache == "hit" for o in warm)
        for c, w in zip(cold, warm):
            assert w.advice.suggestion == c.advice.suggestion
        assert not authority2.audit.events_of(EVENT_CACHE_LOAD_REJECTED)
        service2.close()
        authority.close()
        authority2.close()

    def test_rejected_load_is_audited_and_still_serves(self, tmp_path):
        state = tmp_path / "state"
        game = random_bimatrix(3, 3, seed=91)
        authority, service = _service_fixture(state, [("g", game)])
        service.submit("jane", "g").result()
        service.close()
        path = state / "journal.jsonl"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x02
        path.write_bytes(bytes(data))

        clone = BimatrixGame(game.row_matrix, game.column_matrix)
        authority2, service2 = _service_fixture(state, [("g", clone)])
        rejected = authority2.audit.events_of(EVENT_CACHE_LOAD_REJECTED)
        assert len(rejected) == 1
        assert rejected[0].details["kind"] == "file"
        outcome = service2.submit("jane", "g").result()
        assert outcome.adopted and outcome.advice.cache == "miss"
        service2.close()
        authority.close()
        authority2.close()

    def test_a_missing_journal_is_a_quiet_cold_start(self, tmp_path):
        authority, service = _service_fixture(tmp_path / "state")
        # One record of the load, no rejection to audit.
        (loaded,) = authority.audit.events_of(EVENT_CACHE_LOADED)
        assert loaded.details["journal_accepted"] is False
        assert loaded.details["journal_reason"] == "file not found"
        assert loaded.details["entries"] == 0
        assert not authority.audit.events_of(EVENT_CACHE_LOAD_REJECTED)
        assert service.cache.stats.load_rejected == 0
        # Nothing is written, not even the directory, until a drain
        # appends or a compaction lands.
        assert not (tmp_path / "state").exists()
        authority.close()

    def test_leaving_a_with_block_persists_too(self, tmp_path):
        state = tmp_path / "state"
        game = random_bimatrix(3, 3, seed=92)
        authority, service = _service_fixture(state, [("g", game)])
        with service:
            future = service.submit("jane", "g")
        # Leaving the block closed the service: drained, then compacted.
        assert future.done() and future.result().adopted
        header, bodies = _header_and_bodies(state / "journal.jsonl")
        assert header["frames"] == 1 and len(bodies) == 1
        assert _recovered(state / "journal.jsonl")[1].accepted
        authority.close()

    def test_a_consultation_after_close_still_reaches_the_journal(
        self, tmp_path
    ):
        # close() is not final: tracking stays armed, and the next
        # drain's flush reopens the journal it closed.
        state = tmp_path / "state"
        bases = [random_bimatrix(3, 3, seed=95 + i) for i in range(2)]
        authority, service = _service_fixture(
            state, [(f"g{i}", g) for i, g in enumerate(bases)]
        )
        service.submit("jane", "g0").result()
        assert service.close() == 1
        service.submit("jane", "g1").result()
        service.persister.journal.close()  # a crash: no second close()
        state_file, report = read_state_file(state / "journal.jsonl")
        assert report.accepted and report.frames == 2
        assert _header_and_bodies(state / "journal.jsonl")[0]["frames"] == 1
        assert len(state_file.profiles) == 2
        authority.close()

    def test_a_failed_close_compaction_is_reported_not_saved(self, tmp_path):
        state = tmp_path / "state"
        game = random_bimatrix(3, 3, seed=94)
        authority, service = _service_fixture(state, [("g", game)])
        service.submit("jane", "g").result()
        with faults.armed("snapshot.write:raise:oserror@1"):
            assert service.close() == 0
        assert not authority.audit.events_of(EVENT_CACHE_SAVED)
        (failed,) = authority.audit.events_of(EVENT_DURABILITY_DEGRADED)
        assert failed.details["kind"] == "snapshot-failed"
        assert service.persister.snapshot_failures == 1
        # The journal the drain flushed still holds the entry.
        assert _recovered(state / "journal.jsonl")[1].frames == 1
        authority.close()

    def test_concurrent_save_during_active_drain_is_consistent(self, tmp_path):
        # A saver thread hammers compactions while the service drains a
        # stream: every file written must be complete and loadable
        # (atomic replace), and the final state round-trips.
        state = tmp_path / "state"
        path = state / "journal.jsonl"
        bases = [random_bimatrix(4, 4, seed=120 + i) for i in range(6)]
        games = [(f"g{i}", g) for i, g in enumerate(bases)]
        authority, service = _service_fixture(state, games)
        futures = [service.submit("jane", f"g{i}") for i in range(6)]
        stop = threading.Event()
        failures: list[BaseException] = []

        def saver():
            while not stop.is_set():
                try:
                    service.persister.snapshot()
                    report = read_state_file(path)[1]
                    assert report.accepted, report.reason
                except BaseException as exc:  # pragma: no cover - fails the test
                    failures.append(exc)
                    return

        thread = threading.Thread(target=saver)
        thread.start()
        try:
            outcomes = [future.result() for future in futures]
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not failures, failures
        assert all(o.adopted for o in outcomes)
        service.close()
        __, report = _recovered(path)
        assert report.accepted
        assert report.profiles == 6
        authority.close()


class TestFormat:
    def test_format_constants_are_stable(self):
        # The wire format is a compatibility surface: changing either
        # constant must be a conscious schema bump, not an accident.
        assert FORMAT_NAME == "repro.solve-cache"
        assert SCHEMA_VERSION == 2  # header over frames


class TestDurability:
    """The save path's crash-safety: fsync data, replace, fsync dir."""

    def test_atomic_save_fsyncs_the_containing_directory(
        self, tmp_path, monkeypatch
    ):
        # Regression guard: the atomic writer once stopped at the
        # os.replace — the data was on stable storage but the *rename*
        # lived only in the unsynced directory entry, so a power loss
        # right after a "successful" save could resurrect the old file.
        import stat

        synced_dirs = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced_dirs.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        write_state_file(tmp_path / "cache.json", [])
        assert False in synced_dirs, "the temp file's data must be fsynced"
        assert True in synced_dirs, "the directory entry must be fsynced"
        # Ordering matters: the rename's durability (directory) comes
        # after the data's, never before.
        assert synced_dirs[-1] is True
