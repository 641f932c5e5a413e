"""Write-behind durability: the append-only journal and its flush policy.

PR 5 made warm state survive a *graceful* restart — the cache is saved
on ``close()``.  An always-on host needs the stronger discipline of a
periodic-checkpoint pipeline: a crash (SIGKILL, OOM, power loss) should
lose at most the configured flush interval of warm state, not the whole
process lifetime.  Two files per state directory deliver that:

* **snapshot** (``snapshot.json``) — the whole-cache document in the
  PR 5 atomic-replace format (:mod:`repro.service.persistence`):
  all-or-nothing, digest-protected, directory-fsynced;
* **journal** (``journal.jsonl``) — an append-only sequence of
  digest-framed JSON lines (:class:`CacheJournal`), one certified cache
  update per frame, flushed every N drains or T seconds by the
  :class:`WriteBehindPersister` and truncated whenever a fresh snapshot
  lands (the snapshot subsumes every frame written before it).

Recovery is ``load snapshot → replay journal → re-certify on serve``:
replayed profiles and sets enter the cache's *pending* stores and pass
the exact Lemma-1 lattice gate against the requesting caller's actual
game before they are first served — the same tamper-rejecting path
PR 5's loads take — so a forged or corrupted journal can cost cold
solves, never produce unverified advice.  A bad frame (torn tail from a
mid-write crash, flipped bit, alien format) rejects *that frame only*;
every rejection is surfaced for the ``cache.load.rejected`` audit
trail.

Crash-safety of the flush/snapshot cycle itself:

* updates are committed to the in-memory cache *before* they are queued
  for the journal, so a snapshot always subsumes every update queued
  before it — an update still queued when a snapshot lands is also
  journaled by the next flush, which can only duplicate entries
  (replay is idempotent), never lose them;
* a flush and a snapshot never overlap: a frame appended between the
  snapshot's cache copy and its truncation would land in neither file;
* journal appends are fsynced per flush batch; the journal file's
  creation and every truncation fsync the directory, like the
  snapshot's atomic replace does.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.errors import FaultInjected, PersistenceError
from repro.service import faults
from repro.service.persistence import (
    CacheState,
    apply_journal_entry,
    decode_journal_frame,
    encode_journal_frame,
    fsync_directory,
)

#: The failure dialect the durability layer retries and degrades on: a
#: refusing disk, a malformed frame, or an injected chaos fault.
DURABILITY_ERRORS = (OSError, PersistenceError, FaultInjected)

#: Default file names inside a server state directory.
SNAPSHOT_FILENAME = "snapshot.json"
JOURNAL_FILENAME = "journal.jsonl"


def state_paths(state_dir) -> tuple[str, str]:
    """``(snapshot path, journal path)`` inside a server state dir.

    Creates the directory if needed — both files must live on the same
    directory entry for the fsync discipline to cover their renames.
    """
    state_dir = os.fspath(state_dir)
    os.makedirs(state_dir, exist_ok=True)
    return (
        os.path.join(state_dir, SNAPSHOT_FILENAME),
        os.path.join(state_dir, JOURNAL_FILENAME),
    )


@dataclass
class JournalReplayReport:
    """What a :func:`replay_journal` pass found.

    ``frames`` counts well-formed frames folded into the state;
    ``rejections`` carries one detail dict per refused frame (for the
    ``cache.load.rejected`` audit trail).  A missing journal file is a
    quiet cold start: zero frames, zero rejections.
    """

    path: str
    frames: int = 0
    rejections: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "frames": self.frames,
            "rejected_frames": len(self.rejections),
        }


def replay_journal(path) -> tuple[CacheState, JournalReplayReport]:
    """Fold every valid frame of the journal at ``path`` into a state.

    Frames are applied oldest-first, later writes winning, mirroring
    the order the cache committed them.  Each bad frame — a torn tail
    is the *expected* crash artifact, not an error of the format — is
    recorded in the report and skipped; the good frames around it
    survive.
    """
    path = os.fspath(path)
    state = CacheState()
    report = JournalReplayReport(path=path)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return state, report
    for index, line in enumerate(data.split(b"\n")):
        if not line:
            continue
        try:
            kind, key, value = decode_journal_frame(line)
            apply_journal_entry(state, kind, key, value)
        except PersistenceError as exc:
            report.rejections.append(
                {"kind": "journal-frame", "path": path, "frame": index,
                 "reason": str(exc)}
            )
        else:
            report.frames += 1
    return state, report


class CacheJournal:
    """The append-only, digest-framed journal file.

    Appends are buffered per :meth:`append` call and fsynced before it
    returns — one ``write`` + one ``fsync`` per flush batch, however
    many frames it carries.  :meth:`truncate` empties the file (the
    snapshot that just landed subsumes it) and fsyncs the directory so
    the truncation itself survives power loss.  Thread-safe on its
    own; the persister also serializes its flushes and snapshots.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._handle = None
        #: Frames appended through this instance's lifetime (telemetry).
        self.frames_written = 0

    def _open(self):
        if self._handle is None:
            existed = os.path.exists(self.path)
            self._handle = open(self.path, "ab")
            if not existed:
                fsync_directory(os.path.dirname(self.path) or ".")
        return self._handle

    def append(self, entries) -> int:
        """Encode and durably append ``(kind, key, value)`` entries.

        Returns the number of frames written.  The batch is one OS
        write and one fsync; a crash mid-write tears at most the final
        frame, which replay rejects frame-locally.
        """
        if not entries:
            return 0
        blob = b"".join(
            encode_journal_frame(kind, key, value)
            for kind, key, value in entries
        )
        blob = faults.filter_bytes("journal.append", blob)
        with self._lock:
            handle = self._open()
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
            self.frames_written += len(entries)
        return len(entries)

    def truncate(self) -> None:
        """Empty the journal (a fresh snapshot subsumed its frames)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            handle = open(self.path, "wb")
            try:
                handle.flush()
                os.fsync(handle.fileno())
            finally:
                handle.close()
            fsync_directory(os.path.dirname(self.path) or ".")

    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "CacheJournal":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class WriteBehindPersister:
    """The checkpoint/journal policy around one cache and one state dir.

    Owns the durability cadence of an always-on host:

    * :meth:`recover` (once, before serving) — the cache has already
      warm-loaded the snapshot through its own ``path=``/autoload
      machinery; this replays the journal on top, into the same
      pending/re-certify stores;
    * :meth:`on_drained` (the service's drain listener) — flush the
      dirty queue to the journal every ``flush_every_drains`` drains,
      then cut a full snapshot when the journal has grown (below), at
      most once per ``snapshot_every_drains`` drains;
    * :meth:`poll` (an idle host's timer) — the same two decisions on
      wall-clock cadence (``flush_interval`` / ``snapshot_interval``
      seconds), so a trickle of traffic still reaches disk promptly;
    * :meth:`snapshot` — atomic whole-cache save + journal truncation,
      also the ``POST /admin/snapshot`` handler;
    * :meth:`close` — final snapshot (graceful shutdown).

    **The growth rule.**  A cadence snapshot is cut only when the
    journal has grown: at least one update was committed since the
    last successful snapshot, *and* the journal holds at least as many
    frames (recovered at start-up plus flushed since) as that snapshot
    held entries (the loaded snapshot's count at start-up).  A stream
    of cache hits therefore never rewrites an unchanged cache, and a
    stream of new entries pays O(1) amortized snapshot work per
    update: each snapshot writes at most twice the frames appended
    since the one before.  ``snapshot_every_drains`` and
    ``snapshot_interval`` are minimum spacings on top of the rule;
    :meth:`snapshot` itself (the admin endpoint, :meth:`close`) always
    runs.

    What each knob bounds: a crash loses at most the updates committed
    since the last flush — ``flush_every_drains`` drains or
    ``flush_interval`` seconds of them — while the snapshot cadence
    only bounds *recovery time* (journal replay length), never data
    loss.

    **Degradation.**  A journal append that keeps failing (a refusing
    or corrupting disk) is retried up to ``flush_retries`` times with
    capped exponential backoff (``backoff_base_s`` doubling up to
    ``backoff_cap_s``); past that the persister enters sticky
    **snapshot-only mode**: journaling stops, every flush cadence
    attempts a full snapshot instead whenever an update was committed
    since the last one landed (the snapshot subsumes every committed
    update, so nothing is lost while snapshots still land; a failed
    snapshot leaves the state dirty for the next cadence),
    and the ``on_event`` callback — the server wires it into the audit
    log as ``server.durability.degraded`` — plus the :meth:`stats`
    ``degraded``/``degraded_reason`` fields surface the mode.  Failed
    snapshots are counted (``snapshot_failures``), never raised into
    the serving path: durability degrades, service does not.
    """

    def __init__(self, cache, journal: CacheJournal | str | os.PathLike,
                 flush_every_drains: int = 1,
                 flush_interval: float | None = 5.0,
                 snapshot_every_drains: int | None = 256,
                 snapshot_interval: float | None = 300.0,
                 clock=time.monotonic,
                 flush_retries: int = 3,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 1.0,
                 on_event=None):
        if flush_every_drains < 1:
            raise PersistenceError("flush_every_drains must be positive")
        if flush_retries < 0:
            raise PersistenceError("flush_retries must be non-negative")
        if backoff_base_s < 0 or backoff_cap_s < 0:
            raise PersistenceError("backoff bounds must be non-negative")
        if snapshot_every_drains is not None and snapshot_every_drains < 1:
            raise PersistenceError(
                "snapshot_every_drains must be positive (or None)"
            )
        if cache.path is None:
            raise PersistenceError(
                "write-behind persistence needs a path-bound cache "
                "(the snapshot file)"
            )
        self.cache = cache
        # Arm dirty-entry tracking: from here on every committed cache
        # update queues a journal frame until close() disarms it.
        cache.set_update_tracking(True)
        self.journal = (
            journal if isinstance(journal, CacheJournal)
            else CacheJournal(journal)
        )
        self.flush_every_drains = flush_every_drains
        self.flush_interval = flush_interval
        self.snapshot_every_drains = snapshot_every_drains
        self.snapshot_interval = snapshot_interval
        self._clock = clock
        self._lock = threading.Lock()
        # Serializes flush() and snapshot() (see the module notes).
        # Reentrant: a degraded flush snapshots, and the cadence holds
        # it across its flush and snapshot decisions.
        self._persist_lock = threading.RLock()
        self._drains_since_flush = 0
        self._drains_since_snapshot = 0
        self._last_flush = clock()
        self._last_snapshot = clock()
        self.flush_retries = flush_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._on_event = on_event
        # Telemetry for /stats and the bench.
        self.flushes = 0
        self.snapshots = 0
        self.frames_flushed = 0
        self.flush_ms_total = 0.0
        self.snapshot_ms_total = 0.0
        self.last_replay: JournalReplayReport | None = None
        # The growth rule's state: an update committed since the last
        # successful snapshot, frames in the journal, and the entry
        # count of the last snapshot (the loaded one at start-up).
        self._dirty = False
        self._journal_frames = 0
        loaded = cache.last_load_report
        self._snapshot_entries = 0 if loaded is None else loaded.entry_count
        # Degradation telemetry.
        self.degraded = False
        self.degraded_reason: str | None = None
        self.flush_failures = 0
        self.snapshot_failures = 0
        self.retries_used = 0

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> JournalReplayReport:
        """Replay the journal into the (snapshot-warm) cache.

        Returns the replay report; frame rejections are also counted
        into the cache's ``load_rejected`` stat so ``/stats`` shows
        them, and the caller (the server) turns them into
        ``cache.load.rejected`` audit records.
        """
        state, report = replay_journal(self.journal.path)
        if state.entry_count:
            self.cache.merge_pending_state(state)
        for rejection in report.rejections:
            self.cache.note_rejection(**rejection)
        with self._lock:
            self._journal_frames += report.frames
        self.last_replay = report
        return report

    # ------------------------------------------------------------------
    # The write-behind cycle
    # ------------------------------------------------------------------

    def on_drained(self, summary=None) -> None:
        """The service drain listener: count, then flush/snapshot as due."""
        with self._persist_lock:
            with self._lock:
                self._drains_since_flush += 1
                self._drains_since_snapshot += 1
                flush_due = (
                    self._drains_since_flush >= self.flush_every_drains
                )
                spaced = (
                    self.snapshot_every_drains is not None
                    and self._drains_since_snapshot
                    >= self.snapshot_every_drains
                )
            self._cadence(flush_due, spaced)

    def poll(self) -> None:
        """Timer-driven cadence: flush/snapshot when the interval lapsed."""
        now = self._clock()
        with self._persist_lock:
            with self._lock:
                flush_due = (
                    self.flush_interval is not None
                    and now - self._last_flush >= self.flush_interval
                )
                spaced = (
                    self.snapshot_interval is not None
                    and now - self._last_snapshot >= self.snapshot_interval
                )
            self._cadence(flush_due, spaced)

    def _cadence(self, flush_due: bool, spaced: bool) -> None:
        """Flush when due, then snapshot by the growth rule (see the
        class notes) when the minimum spacing has passed.

        Degraded, the journal takes no frames and each flush snapshots a
        dirty state itself, so the rule stays quiet.
        """
        if flush_due:
            self.flush()
        if not spaced:
            return
        with self._lock:
            grown = (
                not self.degraded
                and self._dirty
                and self._journal_frames >= self._snapshot_entries
            )
        if grown:
            self.guarded_snapshot()

    def flush(self) -> int:
        """Append the cache's dirty updates to the journal; frame count.

        Never raises into the serving path: a persistently failing
        append (after the retry/backoff ladder) flips the persister
        into snapshot-only mode and attempts an immediate snapshot so
        the frames the journal refused still reach disk.  Degraded,
        every flush cadence *is* a (guarded) snapshot attempt whenever
        an update was committed since the last snapshot landed.
        """
        with self._persist_lock:
            if self.degraded:
                # The snapshot subsumes the queued updates; draining
                # them only tells whether there is anything to save.
                committed = bool(self.cache.drain_updates())
                with self._lock:
                    self._dirty = self._dirty or committed
                    self._drains_since_flush = 0
                    self._last_flush = self._clock()
                    dirty = self._dirty
                if dirty:
                    self.guarded_snapshot()
                return 0
            started = self._clock()
            entries = self.cache.drain_updates()
            try:
                frames = self._append_with_retry(entries)
            except DURABILITY_ERRORS as exc:
                # The drained entries are still committed in the cache
                # stores; a snapshot subsumes them, so degrading loses
                # nothing while snapshots still land.
                self._enter_degraded(exc)
                with self._lock:
                    self._dirty = True
                self.guarded_snapshot()
                return 0
            with self._lock:
                self._drains_since_flush = 0
                self._last_flush = self._clock()
                self.flushes += 1
                self.frames_flushed += frames
                self._journal_frames += frames
                self._dirty = self._dirty or frames > 0
                self.flush_ms_total += (self._clock() - started) * 1000.0
            return frames

    def _append_with_retry(self, entries) -> int:
        """One journal append, retried on the durability error dialect.

        ``flush_retries`` bounds the retries (not the attempts); the
        sleep between them doubles from ``backoff_base_s`` up to
        ``backoff_cap_s``.  The final failure propagates to the caller,
        which degrades.
        """
        attempt = 0
        while True:
            try:
                return self.journal.append(entries)
            except DURABILITY_ERRORS:
                attempt += 1
                if attempt > self.flush_retries:
                    raise
                with self._lock:
                    self.retries_used += 1
                delay = min(
                    self.backoff_cap_s,
                    self.backoff_base_s * (2 ** (attempt - 1)),
                )
                if delay > 0:
                    time.sleep(delay)

    def _enter_degraded(self, exc: BaseException) -> None:
        with self._lock:
            already = self.degraded
            self.degraded = True
            self.degraded_reason = f"{type(exc).__name__}: {exc}"
            self.flush_failures += 1
        if not already:
            self._emit({
                "kind": "degraded",
                "mode": "snapshot-only",
                "reason": f"{type(exc).__name__}: {exc}",
                "retries": self.flush_retries,
            })

    def guarded_snapshot(self) -> int | None:
        """A snapshot attempt that degrades instead of raising.

        Returns the entry count, or ``None`` when the snapshot failed
        (counted in ``snapshot_failures``; the committed state stays in
        memory for the next attempt).
        """
        try:
            return self.snapshot()
        except DURABILITY_ERRORS as exc:
            with self._lock:
                self.snapshot_failures += 1
            self._emit({
                "kind": "snapshot-failed",
                "reason": f"{type(exc).__name__}: {exc}",
            })
            return None

    def set_event_handler(self, handler) -> None:
        """Install the degradation-event observer (``on_event``)."""
        self._on_event = handler

    @property
    def has_event_handler(self) -> bool:
        return self._on_event is not None

    def _emit(self, event: dict) -> None:
        if self._on_event is None:
            return
        try:
            self._on_event(dict(event))
        except Exception:  # pragma: no cover - observer must not wedge us
            pass

    def snapshot(self) -> int:
        """Cut a full snapshot and truncate the journal; entry count.

        The atomic whole-cache save, then the truncation, both under the
        lock that flushes take, so no frame is appended between the
        save's copy of the cache and the truncation.  Updates still
        queued for the journal stay queued: the save subsumes them, and
        the next flush journals them as well, so a failed save leaves no
        committed update outside both files.  A crash between save and
        truncate leaves frames that duplicate snapshot entries; replay
        is idempotent, so recovery is unaffected.
        """
        with self._persist_lock:
            started = self._clock()
            entries = self.cache.save()
            self.journal.truncate()
            with self._lock:
                self._drains_since_flush = 0
                self._drains_since_snapshot = 0
                now = self._clock()
                self._last_flush = now
                self._last_snapshot = now
                self._dirty = False
                self._journal_frames = 0
                self._snapshot_entries = entries
                self.snapshots += 1
                self.snapshot_ms_total += (now - started) * 1000.0
        return entries

    def close(self) -> int:
        """Final (guarded) snapshot + journal close; entry count.

        A dead disk at shutdown is counted and reported like any other
        snapshot failure — it must not wedge the server's stop
        sequence; the warm state it could not save is simply lost.
        """
        try:
            entries = self.guarded_snapshot()
        finally:
            self.cache.set_update_tracking(False)
            self.journal.close()
        return 0 if entries is None else entries

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Counters for ``/stats`` and the bench."""
        with self._lock:
            return {
                "snapshot_path": self.cache.path,
                "journal_path": self.journal.path,
                "journal_bytes": self.journal.size_bytes(),
                "flushes": self.flushes,
                "frames_flushed": self.frames_flushed,
                "snapshots": self.snapshots,
                "flush_ms_total": self.flush_ms_total,
                "snapshot_ms_total": self.snapshot_ms_total,
                "flush_every_drains": self.flush_every_drains,
                "flush_interval_s": self.flush_interval,
                "snapshot_every_drains": self.snapshot_every_drains,
                "snapshot_interval_s": self.snapshot_interval,
                "degraded": self.degraded,
                "degraded_reason": self.degraded_reason,
                "flush_failures": self.flush_failures,
                "snapshot_failures": self.snapshot_failures,
                "flush_retries": self.flush_retries,
                "retries_used": self.retries_used,
            }
