"""On-disk warm state for the cross-run solve cache.

The paper's central asymmetry — equilibrium *search* is PPAD-hard,
*verification* is polynomial — is what makes a restartable authority
sound: certified solutions may outlive the process that computed them
because re-checking a candidate on load is cheap (a handful of integer
dot products on the Lemma-1 lattice gate), while recomputing it is not.
This module is that idea as a wire format:

* **Exact.**  Every probability is serialized as a ``"num/den"`` string
  (the same canonicalization discipline as
  :func:`repro.fractions_util.exact_fingerprint` and the certificate
  wire format in :mod:`repro.proofs.serialize`): no float ever touches
  the file, so a round trip is bit-identical — the loaded profile *is*
  the stored profile.

* **Versioned.**  The document carries a format name and a schema
  version; a reader refuses anything it does not understand instead of
  guessing.  Decoding is strict throughout: unknown shapes, missing
  fields or malformed fractions raise :class:`PersistenceError`.

* **Tamper-evident.**  The document embeds a SHA-256 digest of its
  canonical payload encoding.  A truncated or bit-flipped file — or
  one whose entry *lists* are reordered or altered — fails the digest
  check and the whole load is rejected; the cache degrades to a clean
  miss, never to unverified advice.  (JSON object *key* order is
  immaterial by construction: the digest commits to the sorted-key
  canonical form, so re-keying an object changes nothing it protects.)

* **Atomic.**  :func:`write_cache_file` writes a temporary file in the
  target directory and ``os.replace``\\ s it into place — then fsyncs
  the *directory* as well, so the rename itself is on stable storage:
  a reader never observes a half-written document even if the writer
  dies mid-save, and a completed save survives power loss, not just a
  process crash.

Besides the whole-file snapshot format, this module speaks the
**journal frame** format used by :mod:`repro.server.journal` for
write-behind durability: one cache entry per frame, each frame a
single JSON line carrying its own SHA-256 digest.  A snapshot is
all-or-nothing; a journal degrades per frame — a torn tail (the normal
crash case) or a bit-flipped line rejects *that frame only*, and every
rejection is surfaced for the ``cache.load.rejected`` audit trail.

The digest is an *integrity* line, not the soundness line: soundness is
the Lemma-1 gate, which :class:`~repro.service.cache.SolveCache` runs
on every loaded profile against the caller's actual game before it is
first served (see the ``pending`` stores there).  A forged file with a
recomputed digest therefore still cannot make the cache serve a
non-equilibrium — its entries fail the gate at serve time and fall back
to a cold solve.  The one claim the gate cannot re-establish cheaply is
*completeness* of a stored enumeration set (that would be the PPAD-hard
step again); completeness rests on the digest, membership on the gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from repro.errors import PersistenceError
from repro.games.profiles import MixedProfile
from repro.service import faults

#: Format tag every cache document must carry.
FORMAT_NAME = "repro.solve-cache"

#: Current schema version; readers reject any other value.
SCHEMA_VERSION = 1

_DIGEST_PREFIX = "sha256:"


# ----------------------------------------------------------------------
# Exact scalar and profile encoding
# ----------------------------------------------------------------------

def encode_fraction(value: Fraction) -> str:
    """``Fraction`` → canonical ``"num/den"`` string (always with a slash)."""
    return f"{value.numerator}/{value.denominator}"


def decode_fraction(text: Any) -> Fraction:
    """Strict inverse of :func:`encode_fraction`.

    Only canonical ``"num/den"`` strings are accepted — digits (with an
    optional leading ``-`` on the numerator) around one slash, positive
    denominator, lowest terms; no floats, bare ints, whitespace, ``+``
    signs or digit-group underscores — so a file produced by anything
    but :func:`encode_fraction` (or tampered into another shape) is
    rejected rather than coerced.
    """
    if not isinstance(text, str):
        raise PersistenceError(f"fraction encoding must be a string, got {text!r}")
    num, sep, den = text.partition("/")
    digits = num[1:] if num.startswith("-") else num
    if not sep or not digits.isascii() or not digits.isdigit() \
            or not den.isascii() or not den.isdigit():
        raise PersistenceError(f"non-canonical fraction encoding: {text!r}")
    try:
        value = Fraction(int(num), int(den))
    except ZeroDivisionError as exc:
        raise PersistenceError(f"malformed fraction encoding {text!r}: {exc}") from exc
    if encode_fraction(value) != text:  # lowest terms, no leading zeros
        raise PersistenceError(f"non-canonical fraction encoding: {text!r}")
    return value


def encode_profile(profile: MixedProfile) -> list[list[str]]:
    """Mixed profile → nested ``"num/den"`` rows, one per player."""
    return [
        [encode_fraction(p) for p in dist] for dist in profile.distributions
    ]


def decode_profile(rows: Any) -> MixedProfile:
    """Strict inverse of :func:`encode_profile`.

    The :class:`~repro.games.profiles.MixedProfile` constructor enforces
    that every row is an exact probability vector, so a structurally
    valid but non-stochastic encoding is rejected here — before the
    Lemma-1 gate ever sees it.
    """
    if not isinstance(rows, list) or not rows:
        raise PersistenceError(f"profile encoding must be a non-empty list: {rows!r}")
    try:
        return MixedProfile(
            tuple(tuple(decode_fraction(p) for p in dist) for dist in rows)
        )
    except PersistenceError:
        raise
    except Exception as exc:  # ProfileError, TypeError on bad nesting
        raise PersistenceError(f"malformed profile encoding: {exc}") from exc


def _decode_set_key(entry: dict, what: str) -> tuple[str, bool]:
    """Strictly decode a set entry's ``(fingerprint, equal_size_only)``.

    ``equal_size_only`` must be a JSON boolean: coercing would read the
    string ``"false"`` as True and serve the set under the wrong key.
    """
    fingerprint = entry["fingerprint"]
    if not isinstance(fingerprint, str):
        raise PersistenceError(f"{what} fingerprint is not a string: {fingerprint!r}")
    equal_size_only = entry["equal_size_only"]
    if not isinstance(equal_size_only, bool):
        raise PersistenceError(
            f"{what} equal_size_only is not a boolean: {equal_size_only!r}"
        )
    return fingerprint, equal_size_only


# ----------------------------------------------------------------------
# The document: payload, digest, schema header
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CacheState:
    """The serializable contents of a solve cache, in LRU order.

    ``profiles`` maps ``(fingerprint, method, mode)`` to a certified
    profile; ``sets`` maps ``(fingerprint, equal_size_only)`` to a full
    enumeration result.  Iteration order is oldest-first — a save/load
    round trip preserves eviction order.
    """

    profiles: dict[tuple[str, str, str], MixedProfile] = field(default_factory=dict)
    sets: dict[tuple[str, bool], tuple[MixedProfile, ...]] = field(default_factory=dict)

    @property
    def entry_count(self) -> int:
        return len(self.profiles) + len(self.sets)


@dataclass(frozen=True)
class CacheLoadReport:
    """What a :func:`read_cache_file` / ``SolveCache.load`` attempt did.

    ``accepted`` is False for every rejection — missing file aside,
    that always means the whole document was discarded and the cache is
    serving clean misses; ``reason`` says why.
    """

    path: str
    accepted: bool
    reason: str | None = None
    profiles: int = 0
    sets: int = 0

    @property
    def entry_count(self) -> int:
        return self.profiles + self.sets

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "accepted": self.accepted,
            "reason": self.reason,
            "profiles": self.profiles,
            "sets": self.sets,
        }


def encode_cache_state(state: CacheState) -> dict[str, Any]:
    """Cache contents → the canonical JSON-able payload dict."""
    return {
        "profiles": [
            {
                "fingerprint": fingerprint,
                "method": method,
                "mode": mode,
                "profile": encode_profile(profile),
            }
            for (fingerprint, method, mode), profile in state.profiles.items()
        ],
        "sets": [
            {
                "fingerprint": fingerprint,
                "equal_size_only": equal_size_only,
                "profiles": [encode_profile(p) for p in profiles],
            }
            for (fingerprint, equal_size_only), profiles in state.sets.items()
        ],
    }


def decode_cache_state(payload: Any) -> CacheState:
    """Strict inverse of :func:`encode_cache_state`.

    Top-level keys other than ``profiles`` and ``sets`` are ignored, so
    a payload from an older writer that also carried a support-hint
    list still loads (the digest covers that list too, and verifies).
    """
    if not isinstance(payload, dict):
        raise PersistenceError("cache payload is not an object")
    state = CacheState()
    try:
        for entry in payload.get("profiles", ()):
            key = (entry["fingerprint"], entry["method"], entry["mode"])
            if not all(isinstance(part, str) for part in key):
                raise PersistenceError(f"profile key is not three strings: {key!r}")
            if key in state.profiles:
                raise PersistenceError(f"duplicate profile key {key!r}")
            state.profiles[key] = decode_profile(entry["profile"])
        for entry in payload.get("sets", ()):
            key = _decode_set_key(entry, "set")
            if key in state.sets:
                raise PersistenceError(f"duplicate set key {key!r}")
            state.sets[key] = tuple(
                decode_profile(p) for p in entry["profiles"]
            )
    except PersistenceError:
        raise
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"malformed cache payload: {exc!r}") from exc
    return state


def _canonical_payload_bytes(payload: dict[str, Any]) -> bytes:
    """The byte string the digest commits to (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def payload_digest(payload: dict[str, Any]) -> str:
    return _DIGEST_PREFIX + hashlib.sha256(_canonical_payload_bytes(payload)).hexdigest()


def encode_document(state: CacheState) -> dict[str, Any]:
    """Wrap a payload in the versioned, digest-carrying document."""
    payload = encode_cache_state(state)
    return {
        "format": FORMAT_NAME,
        "schema": SCHEMA_VERSION,
        "digest": payload_digest(payload),
        "payload": payload,
    }


def decode_document(document: Any) -> CacheState:
    """Check format, schema and digest, then decode the payload.

    Any failure — this is the tamper/staleness gate — raises
    :class:`PersistenceError`; the caller turns that into a clean-miss
    empty cache plus a ``cache.load.rejected`` audit record.
    """
    if not isinstance(document, dict):
        raise PersistenceError("cache document is not an object")
    if document.get("format") != FORMAT_NAME:
        raise PersistenceError(
            f"not a solve-cache document (format={document.get('format')!r})"
        )
    schema = document.get("schema")
    if schema != SCHEMA_VERSION:
        raise PersistenceError(
            f"unsupported schema version {schema!r} (this reader speaks {SCHEMA_VERSION})"
        )
    digest = document.get("digest")
    payload = document.get("payload")
    if not isinstance(payload, dict) or not isinstance(digest, str):
        raise PersistenceError("cache document lacks a payload or digest")
    if digest != payload_digest(payload):
        raise PersistenceError("payload digest mismatch: file corrupted or tampered")
    return decode_cache_state(payload)


# ----------------------------------------------------------------------
# Journal frames: one cache entry per digest-carrying JSON line
# ----------------------------------------------------------------------

#: Format tag every journal frame must carry.
JOURNAL_FORMAT_NAME = "repro.solve-cache-journal"

#: Journal frame schema version; readers reject any other value.
JOURNAL_SCHEMA_VERSION = 1

#: The journalable entry kinds (mirroring the cache's stores).
JOURNAL_KINDS = ("profile", "set")


def encode_journal_body(kind: str, key, value) -> dict[str, Any]:
    """One cache update → the canonical frame body (no digest yet).

    ``kind``/``key``/``value`` use the cache's own vocabulary: a
    ``"profile"`` is keyed ``(fingerprint, method, mode)``, a ``"set"``
    ``(fingerprint, equal_size_only)``.
    """
    if kind == "profile":
        fingerprint, method, mode = key
        return {
            "format": JOURNAL_FORMAT_NAME,
            "schema": JOURNAL_SCHEMA_VERSION,
            "kind": "profile",
            "fingerprint": fingerprint,
            "method": method,
            "mode": mode,
            "profile": encode_profile(value),
        }
    if kind == "set":
        fingerprint, equal_size_only = key
        return {
            "format": JOURNAL_FORMAT_NAME,
            "schema": JOURNAL_SCHEMA_VERSION,
            "kind": "set",
            "fingerprint": fingerprint,
            "equal_size_only": bool(equal_size_only),
            "profiles": [encode_profile(p) for p in value],
        }
    raise PersistenceError(f"unknown journal entry kind {kind!r}")


def encode_journal_frame(kind: str, key, value) -> bytes:
    """One cache update → one self-digesting JSON line (with newline)."""
    body = encode_journal_body(kind, key, value)
    frame = {"digest": payload_digest(body), "body": body}
    return _canonical_payload_bytes(frame) + b"\n"


def decode_journal_frame(line: bytes):
    """Strict inverse of :func:`encode_journal_frame`.

    Returns ``(kind, key, value)`` in the cache's vocabulary.  Raises
    :class:`PersistenceError` on *anything* wrong with the frame —
    torn/non-JSON line, missing or mismatching digest, wrong format tag
    or schema, malformed entry, unknown kind (an older writer's
    support-hint frames among them) — so a journal replay can reject
    the one frame and keep the rest.
    """
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"journal frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise PersistenceError("journal frame is not an object")
    digest = frame.get("digest")
    body = frame.get("body")
    if not isinstance(body, dict) or not isinstance(digest, str):
        raise PersistenceError("journal frame lacks a body or digest")
    if digest != payload_digest(body):
        raise PersistenceError("journal frame digest mismatch: torn or tampered")
    if body.get("format") != JOURNAL_FORMAT_NAME:
        raise PersistenceError(
            f"not a journal frame (format={body.get('format')!r})"
        )
    if body.get("schema") != JOURNAL_SCHEMA_VERSION:
        raise PersistenceError(
            f"unsupported journal schema {body.get('schema')!r} "
            f"(this reader speaks {JOURNAL_SCHEMA_VERSION})"
        )
    kind = body.get("kind")
    try:
        if kind == "profile":
            key = (body["fingerprint"], body["method"], body["mode"])
            if not all(isinstance(part, str) for part in key):
                raise PersistenceError(
                    f"profile frame key is not three strings: {key!r}"
                )
            return "profile", key, decode_profile(body["profile"])
        if kind == "set":
            return "set", _decode_set_key(body, "set frame"), tuple(
                decode_profile(p) for p in body["profiles"]
            )
    except PersistenceError:
        raise
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"malformed journal frame: {exc!r}") from exc
    raise PersistenceError(f"unknown journal frame kind {kind!r}")


def apply_journal_entry(state: CacheState, kind: str, key, value) -> None:
    """Fold one decoded frame into a :class:`CacheState` (latest wins)."""
    if kind == "profile":
        state.profiles[key] = value
    elif kind == "set":
        state.sets[key] = value
    else:  # pragma: no cover - decode_journal_frame already refused it
        raise PersistenceError(f"unknown journal entry kind {kind!r}")


# ----------------------------------------------------------------------
# Atomic file I/O
# ----------------------------------------------------------------------

def fsync_directory(directory) -> None:
    """fsync a directory so a rename/create inside it survives power loss.

    Platforms without directory fds (Windows) simply skip — the
    ``os.replace`` there is still atomic against process crashes, which
    is the strongest guarantee the OS offers us.
    """
    try:
        fd = os.open(os.fspath(directory) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(fd)


def write_cache_file(path, state: CacheState) -> int:
    """Atomically write ``state`` to ``path``; returns bytes written.

    The document lands via temp-file-in-the-same-directory +
    ``os.replace`` (with an fsync in between), so concurrent readers —
    and a reader after a mid-save crash — see either the old complete
    file or the new complete file, never a torn one.  The containing
    directory is fsynced after the replace: the data was already on
    stable storage, but the *rename* lives in the directory, and an
    unsynced directory entry can vanish on power loss, silently
    resurrecting the old file.
    """
    path = os.fspath(path)
    # Compact on purpose: an ``indent`` makes json fall back from its C
    # encoder to the pure-Python one, which took about 90 of the 150 ms
    # a 4096-entry snapshot cost on the draining thread.
    text = json.dumps(encode_document(state), sort_keys=True) + "\n"
    data = faults.filter_bytes("snapshot.write", text.encode("utf-8"))
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=".solve-cache-", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        # mkstemp creates 0600 files; keep the target's existing mode
        # (0644 for a fresh file — probing the umask would mutate
        # process-global state, which concurrent save() forbids) so a
        # save never silently locks other readers out of the warm state.
        try:
            mode = os.stat(path).st_mode & 0o777
        except OSError:
            mode = 0o644
        os.chmod(tmp_path, mode)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)
    return len(data)


def read_cache_file(path) -> CacheState:
    """Read, integrity-check and strictly decode a cache document.

    Raises :class:`PersistenceError` on *any* problem other than the
    underlying OS read itself — not-JSON, wrong format tag, stale
    schema, digest mismatch, malformed entries.  ``FileNotFoundError``
    propagates so callers can tell "no warm state yet" from "warm state
    rejected".
    """
    with open(os.fspath(path), "rb") as handle:
        data = handle.read()
    data = faults.filter_bytes("cache.load", data)
    try:
        document = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cache file is not valid JSON: {exc}") from exc
    return decode_document(document)
