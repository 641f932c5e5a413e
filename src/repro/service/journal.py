"""Write-behind durability: the journal is the service's state file.

An always-on host should lose little warm state to a crash, never the
whole process lifetime.  One file per state directory delivers that:
``journal.jsonl``, in the format of :mod:`repro.service.persistence` —
a header covering the frames of the last compaction, then one
digest-framed line per certified profile stored since, written at the
end of every drain by the :class:`WriteBehindPersister` and fsynced by
the journal's committer thread.  ``AuthorityService(state_dir=)``
builds the persister and recovers it before its constructor returns;
every drain over its cache flushes it, and that service's ``close()``
compacts it.  A cache takes one persister: a second would split its
updates, and is refused.

The two crash contracts:

* **A process crash** (SIGKILL, OOM) loses at most the frames of the
  drain it interrupts: each drain ends with one ``write`` of what it
  stored, which the kernel keeps once the call returns.
* **Power loss** (or a kernel crash) loses at most the frames written
  in the last :data:`COMMIT_INTERVAL_S` plus one fsync: the committer
  fsyncs what was written at most once per interval, off the draining
  thread, so every drain in that interval shares one fsync and no
  consultation waits on the disk.

Lost frames cost only re-solves: recovery re-certifies every frame,
and the digest framing refuses a torn tail.

Every file the journal writes opens with a header: its first open of a
missing or empty file writes a header over no frames before the first
append, so a crash before the first compaction leaves a file the
reader takes, and the reader can refuse whole any file that does not
open with one.

A compaction (:meth:`WriteBehindPersister.snapshot`) atomically
rewrites the file as a header and the cache's entries in LRU order.
The persister keeps the bytes of the last frame it flushed or recovered
for each cache key and encodes only entries it holds no bytes for, so a
compaction costs a join, a hash, a write and an fsync, not an encode of
the whole cache.

Recovery (:meth:`WriteBehindPersister.recover`) reads the file through
:func:`~repro.service.persistence.read_state_file`: replayed profiles
enter the cache's *pending* store and pass the exact Lemma-1 lattice
gate against the requesting caller's actual game before they are first
served, so a forged or corrupted journal can cost cold solves, never
produce unverified advice.  A file the reader refuses whole is
compacted over before serving, since frames appended behind its prefix
would be refused with it.

Crash-safety of the flush/compaction cycle:

* updates are committed to the in-memory cache *before* they are queued
  for the journal, and a compaction encodes the queue first, so it
  subsumes every update committed before it; one committed while it
  runs is appended by the next flush, which can only duplicate an entry
  (the latest frame wins on replay), never lose it;
* a flush and a compaction never overlap: a frame appended to the old
  file between the compaction's copy of the cache and its rename would
  vanish with that file;
* appends are written per flush batch and fsynced by the committer;
  the header write and every compaction fsync the file and the
  directory, and count as a sync;
* a failed append is not retried, whether its write, its flush or the
  committer's fsync of it failed: the file may end in a torn frame, or
  the kernel may have dropped the pages it could not write, so the
  journal refuses every append until a compaction rewrites the file
  from memory, and the persister compacts at once.
"""

from __future__ import annotations

import os
import threading
import time

from repro.errors import FaultInjected, PersistenceError
from repro.service import faults
from repro.service.persistence import (
    CacheLoadReport,
    CacheState,
    encode_journal_frame,
    read_state_file,
    remove_stale_temp_files,
    write_state_file,
)

#: The failure dialect the durability layer degrades on: a refusing
#: disk, a malformed frame, or an injected chaos fault.
DURABILITY_ERRORS = (OSError, PersistenceError, FaultInjected)

#: The state file inside a state directory.
JOURNAL_FILENAME = "journal.jsonl"

#: A cadence compaction waits until the file holds this many frames per
#: cache entry, so it writes no more frames than it drops.
COMPACT_RATIO = 2

#: The committer fsyncs at most once per this many seconds, so every
#: append in one interval shares one fsync, and power loss costs at
#: most the frames written in the last interval plus one fsync.
COMMIT_INTERVAL_S = 0.02


def state_path(state_dir) -> str:
    """The state file of a state directory.

    The directory is created where the file is first written
    (:func:`~repro.service.persistence.write_state_file`), so a
    persister refused before it writes leaves nothing behind.
    """
    return os.path.join(os.fspath(state_dir), JOURNAL_FILENAME)


class CacheJournal:
    """The state file's one writer: appends, group commit, compaction.

    :meth:`append` writes a batch of encoded frames with one ``write``,
    after a header over no frames when the file is missing or empty,
    and returns once the OS holds them: it never waits on the disk.
    The first append after construction or :meth:`close` starts the
    journal's committer, one daemon thread that fsyncs a duplicate of
    the handle's fd outside the lock once :data:`COMMIT_INTERVAL_S`
    has passed since its last fsync, so every append in that interval
    shares one fsync.  :meth:`replace` rewrites the file as a header
    and the given frames, with its own file and directory fsyncs, then
    closes the append handle; the next append reopens it.

    The two crash contracts (see the module notes): a process crash
    loses nothing an append returned for; power loss loses at most the
    frames written in the last ``COMMIT_INTERVAL_S`` plus one fsync.
    :attr:`synced_bytes` is the offset the last completed fsync or
    compaction covers.  A failed append (its fault hook, its write or
    flush, or the committer's fsync of it) is not retried: every later
    append raises :class:`~repro.errors.PersistenceError` until a
    compaction rewrites the file.  :meth:`close` stops the committer,
    which first syncs what is left, and joins it.  Thread-safe on its
    own; the persister also serializes its flushes and compactions.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        # Wakes an idle committer when an append leaves bytes unsynced,
        # and a retired one at close().
        self._wake = threading.Condition(self._lock)
        self._handle = None
        self._committer: threading.Thread | None = None
        # The file's end after the last write, the offset the last
        # fsync or compaction covers, the compactions so far (a sync
        # that straddles one covers nothing of the new file), and a
        # failed write or fsync, which stands until a compaction lands.
        self._end = 0
        self._synced = 0
        self._generation = 0
        self._failure: BaseException | None = None

    def _open(self):
        if self._handle is None:
            if self.size_bytes() == 0:
                self._rewritten(write_state_file(self.path, []))
            self._handle = open(self.path, "ab")
            self._end = self._handle.tell()
        return self._handle

    def _close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _rewritten(self, size: int) -> None:
        """A whole-file write of ``size`` bytes landed, fsynced (lock
        held)."""
        self._generation += 1
        self._end = self._synced = size
        self._failure = None

    def _refuse_after_failure(self) -> None:
        failure = self._failure
        if failure is not None:
            raise PersistenceError(
                f"a write or fsync of {self.path} failed ({failure}); "
                f"appends wait for a compaction"
            ) from failure

    def append(self, frames) -> int:
        """Append encoded frames with one write; returns how many.

        The write reaches the OS before this returns; a crash mid-write
        tears at most the final frame, which recovery rejects alone.
        The committer fsyncs it within ``COMMIT_INTERVAL_S`` plus one
        fsync.  Refused, even with no frames, from a failed append
        until a compaction lands.
        """
        if not frames:
            # No lock: an empty flush ends every drain, warm ones too.
            self._refuse_after_failure()
            return 0
        with self._lock:
            self._refuse_after_failure()
            try:
                blob = faults.filter_bytes("journal.append", b"".join(frames))
                handle = self._open()
                handle.write(blob)
                handle.flush()
            except BaseException as exc:
                # The file may now end in part of a frame, which a
                # later append would run into: only a compaction
                # writes to it again.
                self._failure = exc
                raise
            idle = self._synced >= self._end
            self._end = handle.tell()
            if self._committer is None:
                committer = threading.Thread(
                    target=self._commit, daemon=True,
                    name=f"repro-journal-commit {self.path}",
                )
                committer.start()  # it waits for this lock
                self._committer = committer
            if idle:
                # Only an idle committer waits for news: one counting
                # down its interval is not woken by every append.
                self._wake.notify()
        return len(frames)

    def _commit(self) -> None:
        """The committer thread: fsync what was written, at most once
        per ``COMMIT_INTERVAL_S``, until :meth:`close` retires it; a
        retired committer syncs what is left before it returns."""
        me = threading.current_thread()
        synced_at = time.monotonic()
        while True:
            with self._lock:
                if not self._await_unsynced(me, synced_at):
                    return
                end, generation = self._end, self._generation
                try:
                    fd = os.dup(self._handle.fileno())
                except OSError as exc:
                    self._failure = exc
                    continue
            error = None
            try:
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            except OSError as exc:
                error = exc
            synced_at = time.monotonic()
            with self._lock:
                if generation != self._generation:
                    continue  # a compaction rewrote the file meanwhile
                if error is None:
                    self._synced = max(self._synced, end)
                else:
                    self._failure = error

    def _await_unsynced(self, me, synced_at: float) -> bool:
        """Wait (lock held) until a sync is due; False once ``me`` is
        retired with nothing left to sync."""
        while True:
            retired = self._committer is not me
            if (self._failure is not None or self._handle is None
                    or self._synced >= self._end):
                if retired:
                    return False
                self._wake.wait()
                continue
            wait = synced_at + COMMIT_INTERVAL_S - time.monotonic()
            if retired or wait <= 0:
                return True
            self._wake.wait(wait)

    def replace(self, frames) -> int:
        """Atomically rewrite the file as a header and ``frames``.

        The append handle closes only once the new file is in place: a
        failed rewrite leaves the old file open, so the committer still
        syncs what was appended to it.
        """
        with self._lock:
            size = write_state_file(self.path, frames)
            self._close()
            self._rewritten(size)
            return size

    @property
    def synced_bytes(self) -> int:
        """The offset the last completed fsync or compaction covers:
        power loss keeps the file's bytes below it."""
        with self._lock:
            return self._synced

    def size_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0

    def close(self) -> None:
        """Retire the committer, which syncs what is left, join it,
        then close the handle; the next append reopens both."""
        while True:
            with self._lock:
                committer = self._committer
                if committer is None:
                    self._close()
                    return
                self._committer = None
                self._wake.notify_all()
            committer.join()


class WriteBehindPersister:
    """The flush and compaction policy around one cache and its file.

    * :meth:`recover` (once, before serving) — load the state file into
      the cache's pending/re-certify store;
    * :meth:`on_drained` (the end of every drain over the cache,
      through any service, and an HTTP host's idle timer, so a profile
      stored outside a drain still reaches disk) — flush the dirty
      queue to the journal, then compact when the rule below says so;
    * :meth:`snapshot` — compact now, also the ``POST /admin/snapshot``
      handler;
    * :meth:`close` — a final compaction, then the journal's handle
      closes and its committer stops; tracking stays armed, so a later
      store still reaches the next flush.

    The persister is the file's only writer.

    **The compaction rule.**  A cadence compaction runs when an update
    was committed since the last one and the file holds at least
    ``COMPACT_RATIO`` (2) frames per cache entry.  Cache hits never
    rewrite the file, nor does a stream of new entries while the cache
    fills (every frame is live); once evictions and repeats leave half
    the file stale, each compaction writes no more frames than it
    drops, so its cost per update stays constant.  :meth:`snapshot`
    itself always runs.  A process crash loses at most the updates
    committed since the last flush — the current drain's; power loss,
    at most those and the ones flushed in the last
    ``COMMIT_INTERVAL_S`` plus one fsync, the journal's group commit.
    Compaction bounds the file's size and recovery time, never data
    loss.

    **The failure rule.**  A flush tries its append once.  When it
    fails, or the journal refuses it after a failed write or fsync, the
    flush compacts at once: the compaction writes every frame the
    journal refused (the persister keeps each key's frame) and
    rewrites what the kernel may have dropped, and appends resume once
    it lands.  A failed compaction leaves the journal refusing, so the
    next flush compacts again.  ``degraded`` holds from a failed append
    until an append of frames lands, and each such episode emits one
    ``degraded`` event to the handler (:meth:`set_event_handler` — the
    service wires it into the audit log as
    ``server.durability.degraded``); the :meth:`stats`
    ``degraded``/``degraded_reason`` fields surface it.  Failed
    compactions are counted (``snapshot_failures``), never raised into
    the serving path: durability degrades, service does not.
    """

    def __init__(self, cache, path: str | os.PathLike):
        self.cache = cache
        self.journal = CacheJournal(path)
        self._lock = threading.Lock()
        # Serializes flush() and snapshot() (see the module notes), and
        # guards the two frame stores below.  Reentrant: a failed flush
        # compacts, and on_drained() holds it across both steps.
        self._persist_lock = threading.RLock()
        # The last frame encoded or recovered for each cache key, and
        # the frames encoded but not yet appended, oldest first.
        self._frames: dict[tuple, bytes] = {}
        self._unwritten: list[bytes] = []
        self._on_event = None
        # Telemetry for /stats and the bench.
        self.flushes = 0
        self.snapshots = 0
        self.frames_flushed = 0
        self.flush_ms_total = 0.0
        self.snapshot_ms_total = 0.0
        # The compaction rule's state: an update committed since the
        # last compaction, and the frames the file holds.
        self._dirty = False
        self._file_frames = 0
        # Degradation telemetry.
        self.degraded = False
        self.degraded_reason: str | None = None
        self.flush_failures = 0
        self.snapshot_failures = 0
        # Arm dirty-entry tracking, last, so every drain over the cache
        # finds this persister whole: from here on every committed
        # update queues a journal frame.  A cache that already has a
        # journal refuses (ProtocolError) before this one writes a file.
        cache.track_updates(self)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> CacheLoadReport:
        """Load the state file into the cache; returns its load report.

        What the file yields enters the cache's pending store, and every
        rejection is counted into the cache's ``load_rejected`` stat and
        queued for the ``cache.load.rejected`` audit trail.  A file
        rejected whole is compacted over at once: a frame appended
        behind a prefix the reader refuses would be refused with it.  A
        missing file restores nothing and rejects nothing.  The temp
        files of compactions a crash cut short are deleted first: the
        persister is the file's only writer, so none of them belongs to
        a live write.
        """
        path = self.journal.path
        with self._persist_lock:
            remove_stale_temp_files(os.path.dirname(path) or ".")
            try:
                state, report = read_state_file(path)
            except FileNotFoundError:
                state, report = CacheState(), CacheLoadReport(
                    path=path, accepted=False, reason="file not found"
                )
            except OSError as exc:
                state, report = CacheState(), CacheLoadReport(
                    path=path, accepted=False, reason=str(exc),
                    rejections=({"kind": "file", "path": path,
                                 "reason": str(exc)},),
                )
            self.cache.merge_pending_state(state, report.rejections)
            self._frames.update(state.frames)
            with self._lock:
                self._file_frames = report.frames + len(report.rejections)
            if any(r["kind"] == "file" for r in report.rejections):
                self.guarded_snapshot()
        return report

    # ------------------------------------------------------------------
    # The write-behind cycle
    # ------------------------------------------------------------------

    def on_drained(self) -> None:
        """The end of a drain, or an idle host's timer: flush, then
        compact by the rule (see the class notes).  Degraded, a flush
        compacts by the failure rule itself, so the rule stays quiet."""
        with self._persist_lock:
            self.flush()
            entries = len(self.cache)
            with self._lock:
                due = (
                    not self.degraded
                    and self._dirty
                    and self._file_frames >= COMPACT_RATIO * entries
                )
            if due:
                self.guarded_snapshot()

    def _encode_updates(self) -> None:
        """Encode the cache's queued updates (persist lock held): each
        becomes its key's kept frame and waits for the next append."""
        for key, profile in self.cache.drain_updates():
            line = encode_journal_frame(key, profile)
            self._frames[key] = line
            self._unwritten.append(line)

    def flush(self) -> int:
        """Append the cache's dirty updates to the journal; frame count.

        Never raises into the serving path: an append that fails, or
        that the journal refuses, is not retried; the flush compacts at
        once instead (the failure rule, see the class notes) and
        returns 0.
        """
        with self._persist_lock:
            started = time.monotonic()
            self._encode_updates()
            unwritten, self._unwritten = self._unwritten, []
            try:
                frames = self.journal.append(unwritten)
            except DURABILITY_ERRORS as exc:
                # The journal takes no append until a compaction lands,
                # and a landed compaction writes every kept frame.
                reason = f"{type(exc).__name__}: {exc}"
                with self._lock:
                    episode = not self.degraded
                    self.degraded = True
                    self.degraded_reason = reason
                    self.flush_failures += 1
                if episode:
                    self._emit({"kind": "degraded", "reason": reason})
                self.guarded_snapshot()
                return 0
            with self._lock:
                self.flushes += 1
                self.frames_flushed += frames
                self._file_frames += frames
                if frames:
                    self._dirty = True
                    self.degraded = False
                    self.degraded_reason = None
                self.flush_ms_total += (time.monotonic() - started) * 1000.0
            return frames

    def guarded_snapshot(self) -> int | None:
        """A compaction attempt that degrades instead of raising.

        Returns the entry count, or ``None`` when the compaction failed
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
        """Install the degradation-event observer: it is called with
        one dict per ``degraded`` or ``snapshot-failed`` event."""
        self._on_event = handler

    def _emit(self, event: dict) -> None:
        if self._on_event is None:
            return
        try:
            self._on_event(dict(event))
        except Exception:  # pragma: no cover - observer must not wedge us
            pass

    def snapshot(self) -> int:
        """Compact the state file now; returns the entry count.

        Encodes the queued updates, then atomically replaces the file
        with a header and the cache's frames in LRU order — each
        entry's kept bytes, encoded afresh only where none are kept —
        and keeps frames for the cache's keys only, even when the write
        fails (so a disk that refuses every compaction cannot grow
        them).  Runs under the lock flushes take.  A failed compaction
        leaves the file as it was and the frames it encoded waiting for
        the next append.
        """
        with self._persist_lock:
            started = time.monotonic()
            self._encode_updates()
            frames = {}
            for key, profile in self.cache.entries():
                line = self._frames.get(key)
                if line is None:
                    line = encode_journal_frame(key, profile)
                frames[key] = line
            self._frames = frames
            self.journal.replace(list(frames.values()))
            self._unwritten = []
            with self._lock:
                self._dirty = False
                self._file_frames = len(frames)
                self.snapshots += 1
                self.snapshot_ms_total += (
                    (time.monotonic() - started) * 1000.0
                )
        return len(frames)

    def close(self) -> int | None:
        """A final guarded compaction, then the journal closes: its
        committer thread stops after a last sync, and its handle closes.

        Returns the entry count, or ``None`` when the compaction failed:
        a dead disk at shutdown is counted and reported like any other
        compaction failure — it must not wedge the server's stop
        sequence.  Tracking stays armed and the next append reopens the
        file and restarts the committer, so closing is not final.
        """
        try:
            return self.guarded_snapshot()
        finally:
            self.journal.close()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Counters for ``/stats`` and the bench."""
        synced = self.journal.synced_bytes
        with self._lock:
            return {
                "journal_path": self.journal.path,
                "journal_bytes": self.journal.size_bytes(),
                "journal_synced_bytes": synced,
                "flushes": self.flushes,
                "frames_flushed": self.frames_flushed,
                "snapshots": self.snapshots,
                "flush_ms_total": self.flush_ms_total,
                "snapshot_ms_total": self.snapshot_ms_total,
                "degraded": self.degraded,
                "degraded_reason": self.degraded_reason,
                "flush_failures": self.flush_failures,
                "snapshot_failures": self.snapshot_failures,
            }
