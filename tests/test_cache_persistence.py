"""Persistent SolveCache: exact round trips, tamper-rejecting loads.

The contract under test is the restart half of proof-preserving
caching: a saved-then-loaded cache serves profiles *bit-identical* to
its in-memory hits, every loaded profile passes the Lemma-1 lattice
gate before its first serve, and any tampered, truncated or
version-mismatched file degrades to an empty cache (clean misses) plus
a ``cache.load.rejected`` audit record — never to unverified advice.

A saved file is a header line (format, schema, count and digest of the
frames) over one digest-framed line per entry; the tamper tests edit
the header or a covered frame and, where a forger would, reseal every
digest with the real writer.
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
from repro.service import AuthorityService, SolveCache
from repro.service.persistence import (
    DOCUMENT_SCHEMA_VERSION,
    FORMAT_NAME,
    SCHEMA_VERSION,
    decode_fraction,
    decode_profile,
    encode_fraction,
    encode_profile,
    payload_digest,
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

#: A snapshot of one cached Battle-of-the-Sexes solve and its
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


def _header_and_bodies(path) -> tuple[dict, list[dict]]:
    """A saved file's header and its covered frames' bodies."""
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
    """Saved-then-loaded caches serve bit-identical, re-certified hits."""

    @pytest.mark.parametrize("policy", MODES, ids=[p.mode for p in MODES])
    def test_profiles_bit_identical_across_modes(self, tmp_path, policy):
        path = tmp_path / "cache.json"
        cache = SolveCache(path=path)
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", backend=policy,
            solve_cache=cache,
        )
        games = _degenerate_and_rank_deficient() + [
            random_bimatrix(4, 4, seed=900 + i) for i in range(3)
        ]
        cold = [inventor.solve(g).profile for g in games]
        cache.close()  # autosave

        loaded = SolveCache(path=path)
        assert loaded.last_load_report.accepted
        restarted = BimatrixInventor(
            "inv2", method="support-enumeration", backend=policy,
            solve_cache=loaded,
        )
        for i, game in enumerate(games):
            clone = BimatrixGame(game.row_matrix, game.column_matrix)
            warm, cache_state, __ = restarted.solve(clone)
            assert cache_state == "hit", game.name
            assert _bit_identical(warm, cold[i]), game.name
        assert loaded.stats.hits == len(games)
        assert loaded.stats.load_rejected == 0

    def test_snapshot_with_support_hints_still_loads(self, tmp_path):
        # An older writer's file: its payload also carries a support-hint
        # list and an enumeration set.  Both are ignored and the digest,
        # which covers them, still verifies; the profile serves as a hit.
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(_OLDER_SNAPSHOT))
        cache = SolveCache(path=path)
        report = cache.last_load_report
        assert report.accepted, report.reason
        assert report.profiles == 1
        assert len(cache) == 1
        game = _battle_of_the_sexes()
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
        profile, cache_state, __ = inventor.solve(game)
        assert cache_state == "hit"
        assert profile.distributions == ((1, 0), (1, 0))
        assert cache.stats.load_rejected == 0
        cache.save()  # rewritten in the current format, set and hints dropped
        header, bodies = _header_and_bodies(path)
        assert header["schema"] == SCHEMA_VERSION
        assert [body["kind"] for body in bodies] == ["profile"]

    @pytest.mark.parametrize("sets", [
        [{**_OLDER_SET, "equal_size_only": "false"}],
        [{**_OLDER_SET, "equal_size_only": None}],
        [{**_OLDER_SET, "profiles": [[["1/3", "1/3", "1/3"],
                                      ["1/2", "1/2"]]]}],
        "not a list",
        [{"fingerprint": 7}],
    ], ids=[
        "string-flag", "null-flag", "forged-member", "not-a-list",
        "malformed-entry",
    ])
    def test_schema_one_sets_are_ignored_whatever_they_hold(
        self, tmp_path, sets
    ):
        # Under a recomputed digest, a schema-1 document's sets are never
        # decoded, so not even a malformed one refuses the file.
        payload = {**_OLDER_SNAPSHOT["payload"], "sets": sets}
        document = {**_OLDER_SNAPSHOT, "payload": payload,
                    "digest": payload_digest(payload)}
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(document))
        cache = SolveCache(path=path)
        report = cache.last_load_report
        assert report.accepted, report.reason
        assert report.profiles == 1 and not report.rejections
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
        assert inventor.solve(_battle_of_the_sexes()).cache == "hit"
        assert cache.stats.load_rejected == 0 and len(cache) == 1

    def test_lru_order_survives_the_round_trip(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        cache = SolveCache(path=path)
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
        games = [random_bimatrix(3, 3, seed=700 + i) for i in range(3)]
        for i, game in enumerate(games):
            inventor.solve(game)
        cache.save()

        # Reload into a 2-entry cache: only the two *newest* survive.
        monkeypatch.setattr(SolveCache, "max_entries", 2)
        loaded = SolveCache(path=path)
        probe = BimatrixInventor(
            "probe", method="support-enumeration", solve_cache=loaded
        )
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
        cache = SolveCache(path=path)
        cache.save()
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644

    def test_pending_entries_ride_along_on_save(self, tmp_path):
        # Load warm state, serve none of it, save again: nothing is lost.
        path = tmp_path / "cache.json"
        cache = SolveCache(path=path)
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
        game = random_bimatrix(3, 3, seed=77)
        inventor.solve(game)
        cache.save()
        intermediate = SolveCache(path=path)  # loads, serves nothing
        intermediate.save()
        final = SolveCache(path=path)
        assert final.last_load_report.profiles == 1
        served = BimatrixInventor(
            "inv2", method="support-enumeration", solve_cache=final
        )
        clone = BimatrixGame(game.row_matrix, game.column_matrix)
        assert served.solve(clone).cache == "hit"


def _populated_file(tmp_path, count=2):
    path = tmp_path / "cache.json"
    cache = SolveCache(path=path)
    inventor = BimatrixInventor(
        "inv", method="support-enumeration", solve_cache=cache
    )
    games = [random_bimatrix(3, 3, seed=40 + i) for i in range(count)]
    for i, game in enumerate(games):
        inventor.solve(game)
    cache.save()
    return path, games


class TestTamperRejection:
    """Corruption of any kind loads as empty-with-rejection, never advice."""

    def _assert_rejected(self, path, reason_fragment=""):
        cache = SolveCache(path=path)
        report = cache.last_load_report
        assert report is not None and not report.accepted
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
            cache = SolveCache(path=path)
            assert not cache.last_load_report.accepted
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
        path = tmp_path / "cache.json"
        for blob in (b"", b"not json at all", b"\x00\xff\xfe", b"[1, 2, 3]"):
            path.write_bytes(blob)
            cache = SolveCache(path=path)
            assert not cache.last_load_report.accepted
            assert len(cache) == 0
            cache.drain_rejections()

    def test_missing_file_is_a_quiet_cold_start(self, tmp_path):
        cache = SolveCache(path=tmp_path / "never-written.json")
        # No load happened (nothing to reject, nothing to audit)...
        assert cache.last_load_report is None
        assert cache.drain_rejections() == []
        # ...and an explicit load reports not-found without a rejection.
        report = cache.load()
        assert not report.accepted and report.reason == "file not found"
        assert cache.stats.load_rejected == 0

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

        cache = SolveCache(path=path)
        assert cache.last_load_report.accepted  # structurally fine
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
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
        cache = SolveCache(path=path)
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
        game = games[0]
        clone = BimatrixGame(game.row_matrix, game.column_matrix)
        assert inventor.solve(clone).cache == "miss"
        assert cache.stats.load_rejected == 1


def _service_fixture(tmp_path, cache_path=None, games=None, **kwargs):
    authority = RationalityAuthority(seed=3)
    authority.register_verifiers(standard_procedures())
    inventor = BimatrixInventor("inv", method="support-enumeration")
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for game_id, game in games or ():
        authority.publish_game("inv", game_id, game)
    service = AuthorityService(authority, cache_path=cache_path, **kwargs)
    return authority, service


class TestServiceIntegration:
    """cache_path end-to-end: warm load, audit records, save on close."""

    def test_restart_round_trip_through_the_service(self, tmp_path):
        path = tmp_path / "service-cache.json"
        bases = [random_bimatrix(4, 4, seed=80 + i) for i in range(3)]
        games = [(f"c{i}", g) for i, g in enumerate(bases)]
        authority, service = _service_fixture(tmp_path, path, games)
        cold = [service.submit("jane", f"c{i}").result() for i in range(3)]
        service.close()
        saved = authority.audit.events_of(EVENT_CACHE_SAVED)
        assert saved and saved[-1].details["entries"] == len(service.cache)
        assert path.exists()

        clones = [
            (f"w{i}", BimatrixGame(g.row_matrix, g.column_matrix))
            for i, g in enumerate(bases)
        ]
        authority2, service2 = _service_fixture(tmp_path, path, clones)
        loaded = authority2.audit.events_of(EVENT_CACHE_LOADED)
        assert loaded and loaded[-1].details["profiles"] == 3
        warm = [service2.submit("jane", f"w{i}").result() for i in range(3)]
        assert all(o.advice.cache == "hit" for o in warm)
        for c, w in zip(cold, warm):
            assert w.advice.suggestion == c.advice.suggestion
        assert not authority2.audit.events_of(EVENT_CACHE_LOAD_REJECTED)
        service2.close()
        authority.close()
        authority2.close()

    def test_rejected_load_is_audited_and_still_serves(self, tmp_path):
        path = tmp_path / "service-cache.json"
        game = random_bimatrix(3, 3, seed=91)
        authority, service = _service_fixture(
            tmp_path, path, [("g", game)]
        )
        service.submit("jane", "g").result()
        service.close()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x02
        path.write_bytes(bytes(data))

        clone = BimatrixGame(game.row_matrix, game.column_matrix)
        authority2, service2 = _service_fixture(tmp_path, path, [("g", clone)])
        rejected = authority2.audit.events_of(EVENT_CACHE_LOAD_REJECTED)
        assert len(rejected) == 1
        assert rejected[0].details["kind"] == "file"
        outcome = service2.submit("jane", "g").result()
        assert outcome.adopted and outcome.advice.cache == "miss"
        authority.close()
        authority2.close()

    def test_caller_owned_cache_is_not_saved_by_the_service(self, tmp_path):
        # A cache the caller constructed manages its own persistence:
        # service.close() must not write (or audit) its file behind
        # the caller's back — only service-created caches autosave.
        path = tmp_path / "caller-owned.json"
        cache = SolveCache(path=path)
        game = random_bimatrix(3, 3, seed=93)
        authority, service = _service_fixture(
            tmp_path, games=[("g", game)], solve_cache=cache
        )
        service.submit("jane", "g").result()
        service.close()
        assert not path.exists()
        assert not authority.audit.events_of(EVENT_CACHE_SAVED)
        cache.close()  # the caller's own flush point still works
        assert path.exists()
        authority.close()

    def test_cache_path_and_solve_cache_are_mutually_exclusive(self, tmp_path):
        from repro.errors import ProtocolError

        authority = RationalityAuthority(seed=1)
        with pytest.raises(ProtocolError):
            AuthorityService(
                authority, solve_cache=SolveCache(),
                cache_path=tmp_path / "x.json",
            )

    def test_leaving_a_with_block_persists_too(self, tmp_path):
        path = tmp_path / "context-cache.json"
        game = random_bimatrix(3, 3, seed=92)
        authority, service = _service_fixture(tmp_path, path, [("g", game)])
        with service:
            future = service.submit("jane", "g")
        # Leaving the block closed the service: drained, then saved.
        assert future.done() and future.result().adopted
        assert path.exists()
        assert SolveCache(path=path).last_load_report.accepted
        authority.close()

    def test_concurrent_save_during_active_drain_is_consistent(self, tmp_path):
        # A saver thread hammers save() while the service drains a
        # stream: every snapshot written must be a complete, loadable
        # document (atomic replace), and the final state round-trips.
        path = tmp_path / "concurrent.json"
        bases = [random_bimatrix(4, 4, seed=120 + i) for i in range(6)]
        games = [(f"g{i}", g) for i, g in enumerate(bases)]
        authority, service = _service_fixture(tmp_path, path, games)
        futures = [service.submit("jane", f"g{i}") for i in range(6)]
        stop = threading.Event()
        failures: list[BaseException] = []

        def saver():
            while not stop.is_set():
                try:
                    service.cache.save()
                    if path.exists():
                        report = SolveCache(path=path).last_load_report
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
        final = SolveCache(path=path)
        assert final.last_load_report.accepted
        assert final.last_load_report.profiles == 6
        authority.close()


class TestAutosaveSemantics:
    def test_close_and_context_manager_autosave(self, tmp_path):
        path = tmp_path / "auto.json"
        with SolveCache(path=path) as cache:
            inventor = BimatrixInventor(
                "inv", method="support-enumeration", solve_cache=cache
            )
            inventor.solve(random_bimatrix(3, 3, seed=71))
        assert path.exists()
        assert SolveCache(path=path).last_load_report.profiles == 1

    def test_pathless_cache_refuses_save_and_load(self):
        cache = SolveCache()
        with pytest.raises(PersistenceError):
            cache.save()
        with pytest.raises(PersistenceError):
            cache.load()

    def test_format_constants_are_stable(self):
        # The wire format is a compatibility surface: changing either
        # constant must be a conscious schema bump, not an accident.
        assert FORMAT_NAME == "repro.solve-cache"
        assert SCHEMA_VERSION == 2  # header over frames
        assert DOCUMENT_SCHEMA_VERSION == 1  # the older writers' document


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
