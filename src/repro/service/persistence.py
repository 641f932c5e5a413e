"""On-disk warm state for the cross-run solve cache: one file, one format.

The paper's central asymmetry — equilibrium *search* is PPAD-hard,
*verification* is polynomial — is what makes a restartable authority
sound: certified solutions may outlive the process that computed them
because re-checking a candidate on load is cheap (a handful of integer
dot products on the Lemma-1 lattice gate), while recomputing it is not.
So the file only has to carry integrity.  It is a sequence of JSON
lines:

* **Frames.**  One certified profile per line
  (:func:`encode_journal_frame`), each carrying a SHA-256 digest of its
  own body.  Every probability is a ``"num/den"`` string (the
  canonicalization discipline of
  :func:`repro.fractions_util.exact_fingerprint` and the certificate
  wire format in :mod:`repro.proofs.serialize`): no float ever touches
  the file, so the loaded profile *is* the stored profile.

* **Header.**  A whole-file write (:func:`write_state_file`, which the
  journal's compaction calls, and its first open of a missing or empty
  file) opens the file with a header line: the format name, the schema
  version, and the count and SHA-256 of the frames that follow.  Frames
  appended later (the write-behind flushes) follow the covered ones.

One reader, :func:`read_state_file`, serves every load, and it speaks
only this format.  The covered frames are all-or-nothing: a first line
that is not a schema-2 header (an older writer's schema-1 document or
headerless journal among them), a truncated or bit-flipped prefix, or a
malformed header rejects the whole file — the boundary between covered
and later frames is then unknown.  Each later frame is judged on its
own: a torn tail (the normal crash artifact) or a tampered line
rejects that frame only.  Decoding is strict throughout — a frame
holds one certified profile, and an older writer's ``set`` and
``hint`` frames are refused like any unknown kind — and every
rejection is returned for the ``cache.load.rejected`` audit trail.

Writes are atomic: a temporary file in the target directory, fsync,
``os.replace``, then an fsync of the directory, so a reader never sees
a half-written file and a completed write survives power loss.

The digest is an *integrity* line, not the soundness line: soundness is
the Lemma-1 gate, which :class:`~repro.service.cache.SolveCache` runs
on every loaded profile against the caller's actual game before it is
first served (see the ``pending`` store there).  A forged file with a
recomputed digest therefore still cannot make the cache serve a
non-equilibrium — its entries fail the gate at serve time and fall back
to a cold solve.
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

#: Format tag of every state file header.
FORMAT_NAME = "repro.solve-cache"

#: Schema of the header this module writes and reads: a count and a
#: digest over the digest-framed lines that follow it.
SCHEMA_VERSION = 2

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


# ----------------------------------------------------------------------
# Decoded contents and the load report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CacheState:
    """Decoded cache contents, in LRU order.

    ``profiles`` maps ``(fingerprint, method, mode)`` to a certified
    profile.  Iteration order is oldest-first — a write/read round trip
    preserves eviction order.  ``frames`` maps a key to the line its
    entry was read from, so a writer can keep those bytes instead of
    encoding the entry again.
    """

    profiles: dict[tuple[str, str, str], MixedProfile] = field(default_factory=dict)
    frames: dict[tuple, bytes] = field(default_factory=dict)


@dataclass(frozen=True)
class CacheLoadReport:
    """What reading one state file found.

    ``accepted`` is False when nothing could be taken from the file: it
    is missing or empty, or it was rejected whole (``reason`` says why).
    ``frames`` counts the frame lines loaded; ``rejections`` holds one
    detail dict per refusal — ``kind="file"`` for the whole file,
    ``kind="journal-frame"`` for one frame after the covered ones — for
    the ``cache.load.rejected`` audit trail.
    """

    path: str
    accepted: bool
    reason: str | None = None
    profiles: int = 0
    frames: int = 0
    rejections: tuple = ()

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "accepted": self.accepted,
            "reason": self.reason,
            "profiles": self.profiles,
            "frames": self.frames,
            "rejected": len(self.rejections),
        }


def _canonical_payload_bytes(payload: dict[str, Any]) -> bytes:
    """The byte string the digest commits to (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def payload_digest(payload: dict[str, Any]) -> str:
    return _DIGEST_PREFIX + hashlib.sha256(_canonical_payload_bytes(payload)).hexdigest()


# ----------------------------------------------------------------------
# Journal frames: one cache entry per digest-carrying JSON line
# ----------------------------------------------------------------------

#: Format tag every journal frame must carry.
JOURNAL_FORMAT_NAME = "repro.solve-cache-journal"

#: Journal frame schema version; readers reject any other value.
JOURNAL_SCHEMA_VERSION = 1


def encode_journal_frame(key, profile: MixedProfile) -> bytes:
    """One cache entry → one self-digesting JSON line (with newline).

    ``key`` is the cache's ``(fingerprint, method, mode)``.
    """
    fingerprint, method, mode = key
    body = {
        "format": JOURNAL_FORMAT_NAME,
        "schema": JOURNAL_SCHEMA_VERSION,
        "kind": "profile",
        "fingerprint": fingerprint,
        "method": method,
        "mode": mode,
        "profile": encode_profile(profile),
    }
    frame = {"digest": payload_digest(body), "body": body}
    return _canonical_payload_bytes(frame) + b"\n"


def decode_journal_frame(line: bytes):
    """Strict inverse of :func:`encode_journal_frame`.

    Returns ``(key, profile)`` in the cache's vocabulary.  Raises
    :class:`PersistenceError` on *anything* wrong with the frame —
    torn/non-JSON line, missing or mismatching digest, wrong format tag
    or schema, malformed entry, a kind other than ``profile`` (an older
    writer's ``set`` and support-hint frames among them) — so a journal
    replay can reject the one frame and keep the rest.
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
    if kind != "profile":
        raise PersistenceError(f"unknown journal frame kind {kind!r}")
    try:
        key = (body["fingerprint"], body["method"], body["mode"])
        rows = body["profile"]
    except KeyError as exc:
        raise PersistenceError(f"malformed journal frame: {exc!r}") from exc
    if not all(isinstance(part, str) for part in key):
        raise PersistenceError(
            f"profile frame key is not three strings: {key!r}"
        )
    return key, decode_profile(rows)


def apply_journal_entry(state: CacheState, key, profile: MixedProfile,
                        line: bytes | None = None) -> None:
    """Fold one decoded entry into a :class:`CacheState`: the latest
    write wins, and becomes the newest entry."""
    state.profiles.pop(key, None)
    state.profiles[key] = profile
    if line is not None:
        state.frames[key] = line


# ----------------------------------------------------------------------
# The state file: atomic writer, one reader
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


#: :func:`write_state_file` writes through a temp file named with this
#: prefix and suffix in the target's directory.
_TEMP_PREFIX, _TEMP_SUFFIX = ".solve-cache-", ".tmp"


def remove_stale_temp_files(directory) -> None:
    """Unlink the temp files a crashed :func:`write_state_file` left in
    ``directory``.

    Only for a directory whose state file has one writer, the caller,
    and before that writer starts: a live write's temp file would go
    too.
    """
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return  # nothing was ever written there
    for name in names:
        if name.startswith(_TEMP_PREFIX) and name.endswith(_TEMP_SUFFIX):
            os.unlink(os.path.join(directory, name))


def write_state_file(path, frames) -> int:
    """Atomically replace ``path`` with a header and ``frames``; bytes written.

    ``frames`` are encoded lines (:func:`encode_journal_frame`), written
    in order under a header that carries their count and SHA-256, in a
    directory created if missing.  The file lands via
    temp-file-in-the-same-directory + fsync +
    ``os.replace``, so concurrent readers — and a reader after a
    mid-write crash — see either the old complete file or the new one;
    a crash leaves at most a stale ``.tmp`` file, which no reader opens
    (recovery deletes it: :func:`remove_stale_temp_files`).
    The directory is fsynced after the replace: the *rename* lives in
    the directory, and an unsynced entry can vanish on power loss,
    silently resurrecting the old file.
    """
    path = os.fspath(path)
    body = b"".join(frames)
    header = _canonical_payload_bytes({
        "digest": _DIGEST_PREFIX + hashlib.sha256(body).hexdigest(),
        "format": FORMAT_NAME,
        "frames": len(frames),
        "schema": SCHEMA_VERSION,
    })
    data = faults.filter_bytes("snapshot.write", header + b"\n" + body)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=_TEMP_PREFIX, suffix=_TEMP_SUFFIX, dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        # mkstemp creates 0600 files; keep the target's existing mode
        # (0644 for a fresh file — probing the umask would mutate
        # process-global state, which concurrent writes forbid) so a
        # write never silently locks other readers out of the warm state.
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


def read_state_file(path) -> tuple[CacheState, CacheLoadReport]:
    """Read, integrity-check and strictly decode one state file.

    The header-covered frames load all-or-nothing, and a file whose
    first line is not a schema-2 header is rejected whole; each later
    frame loads or is rejected on its own (see the module notes).
    Never raises for what the file holds; ``FileNotFoundError`` and
    other OS errors propagate, so callers can tell "no warm state yet"
    from "warm state rejected".
    """
    path = os.fspath(path)
    with open(path, "rb") as handle:
        data = handle.read()
    data = faults.filter_bytes("cache.load", data)
    if not data:
        return CacheState(), CacheLoadReport(
            path=path, accepted=False, reason="empty file"
        )
    lines = data.split(b"\n")
    try:
        state, start = _read_covered(data, lines)
    except PersistenceError as exc:
        return CacheState(), CacheLoadReport(
            path=path, accepted=False, reason=str(exc),
            rejections=({"kind": "file", "path": path,
                         "reason": str(exc)},),
        )
    frames = len(state.frames)
    rejections = []
    for index in range(start, len(lines)):
        line = lines[index]
        if not line:
            continue
        try:
            key, profile = decode_journal_frame(line)
        except PersistenceError as exc:
            rejections.append({"kind": "journal-frame", "path": path,
                               "frame": index, "reason": str(exc)})
            continue
        apply_journal_entry(state, key, profile, line + b"\n")
        frames += 1
    return state, CacheLoadReport(
        path=path, accepted=True, profiles=len(state.profiles),
        frames=frames, rejections=tuple(rejections),
    )


def _read_covered(data: bytes, lines: list) -> tuple[CacheState, int]:
    """The header and the frames it covers.

    Returns the decoded state and the index of the first line after the
    covered part; raises :class:`PersistenceError` on any failure.
    """
    try:
        header = json.loads(lines[0])
    except (UnicodeDecodeError, json.JSONDecodeError):
        header = None
    if not isinstance(header, dict):
        raise PersistenceError("the first line is not a state-file header")
    if header.get("format") != FORMAT_NAME:
        raise PersistenceError(
            f"not a solve-cache file (format={header.get('format')!r})"
        )
    schema = header.get("schema")
    if schema != SCHEMA_VERSION:
        raise PersistenceError(
            f"unsupported schema version {schema!r} (this reader speaks "
            f"{SCHEMA_VERSION})"
        )
    count, digest = header.get("frames"), header.get("digest")
    if type(count) is not int or count < 0 or not isinstance(digest, str):
        raise PersistenceError("malformed header: no frame count or digest")
    covered = lines[1:1 + count]
    begin = len(lines[0]) + 1
    end = begin + sum(len(line) + 1 for line in covered)
    actual = hashlib.sha256(memoryview(data)[begin:end]).hexdigest()
    if len(covered) < count or _DIGEST_PREFIX + actual != digest:
        raise PersistenceError(
            "frames digest mismatch: file truncated, corrupted or tampered"
        )
    state = CacheState()
    for line in covered:
        apply_journal_entry(state, *decode_journal_frame(line), line + b"\n")
    return state, 1 + count
