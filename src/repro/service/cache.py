"""The cross-run solve cache: certified solutions keyed by payoff bytes.

The PPAD-hard step of a consultation is the inventor's equilibrium
search; a production authority answering a stream of queries sees the
same games over and over.  This cache makes exact repeats cheap without
touching the soundness story:

* **Keys are exact.**  A game is identified by the canonical fingerprint
  of its exact payoff matrices
  (:func:`repro.fractions_util.exact_fingerprint`, via
  ``BimatrixGame.payoff_fingerprint``) — two games share an entry iff
  every payoff is the same rational number.  There is no tolerance
  anywhere in the key, so a cache hit is a *proof-preserving* event: the
  stored solution was certified for bit-identical inputs.

* **Values are certified.**  The cache stores what the solvers
  returned — exact, Lemma-1-gated profiles (and whole enumeration
  sets).  Serving one skips the search phase only; the verification a
  consultation performs downstream is identical either way.

* **History-free.**  A game that is not an exact repeat gets a cold
  search, never a warm start from other games' answers, so what the
  cache holds can change how fast an answer comes, never which answer
  it is.

* **Warm state survives restarts.**  With ``path=`` set the cache
  warm-loads the file on construction and saves to it on
  :meth:`~SolveCache.close`, in the one format of
  :mod:`repro.service.persistence` — exact ``num/den`` strings, a
  digest per frame and a header digest over them all, atomic replace.
  (A server's cache is pathless: its write-behind persister owns the
  state file and loads it through the same reader.)  Loaded entries
  are *pending*: each one is re-certified through the Lemma-1 lattice
  gate against the caller's actual game before it is first served, so
  a forged file can cost cold solves, never produce unverified advice;
  a corrupted, truncated or version-mismatched file is rejected
  outright and the cache starts empty (a clean miss), with the
  rejection recorded for the service's audit log.

Entries are keyed by ``(fingerprint, method, mode)`` for single
solutions: a hit returns exactly the certified profile this cache
stored for those payoff bytes under that configuration, which is
bit-identical to a fresh cold solve (the solvers are deterministic
given the three key parts).  Enumeration *sets* are keyed
by fingerprint alone — the backend-parity guarantee (sets are
bit-identical across every search mode) makes the mode irrelevant to
the value.

The cache is thread-safe and intended to be shared: one instance can
back several services, inventors and runs (that is the "cross-run" in
the name).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.errors import PersistenceError
from repro.games.bimatrix import BimatrixGame
from repro.games.profiles import MixedProfile
from repro.service.persistence import (
    CacheLoadReport,
    CacheState,
    encode_journal_frame,
    read_state_file,
    write_state_file,
)


def game_fingerprint(game) -> str | None:
    """The canonical exact-payoff fingerprint of ``game``, or ``None``.

    Games expose their own cached ``payoff_fingerprint`` (see
    :attr:`repro.games.bimatrix.BimatrixGame.payoff_fingerprint`, which
    delegates to the single canonicalization helper in
    :mod:`repro.fractions_util`); game kinds that do not are simply not
    cacheable and every lookup for them misses harmlessly.
    """
    return getattr(game, "payoff_fingerprint", None)


@dataclass
class CacheStats:
    """Lifetime counters, reported by ``GET /stats``.

    ``set_misses`` means "cacheable but absent" — a set solved cold for
    a game that *could* have hit.  Games without a payoff fingerprint
    are counted under ``uncacheable`` instead, so the set-hit rate is
    computed over lookups the cache could ever have answered.
    ``load_rejected`` counts persisted state the cache refused to
    serve: whole files that failed the integrity/schema checks and
    individual loaded entries that failed the Lemma-1 gate at first
    serve.
    """

    hits: int = 0
    misses: int = 0
    set_hits: int = 0
    set_misses: int = 0
    uncacheable: int = 0
    load_rejected: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Exact-hit fraction of all solution lookups (0.0 when none)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            # Always 0: perfbench/workloads.py still reads this key from
            # /stats; it goes with the next benchmark change.
            "warm_hits": 0,
            "misses": self.misses,
            "set_hits": self.set_hits,
            "set_misses": self.set_misses,
            "uncacheable": self.uncacheable,
            "load_rejected": self.load_rejected,
            "hit_rate": self.hit_rate,
        }


class SolveCache:
    """Cross-run cache of certified solves and equilibrium sets.

    ``max_entries`` bounds the profiles and the sets, live and pending
    together for each (pending loaded entries are evicted first, then
    the least-recently-used live ones) so an always-on service
    answering a long stream of mostly-distinct games holds steady
    memory; ``None`` removes the bound.  Eviction only ever costs a
    re-solve — an evicted entry's next lookup is an ordinary miss.

    ``path`` makes the cache persistent: :meth:`load` restores warm
    state from the file (done at construction when the file exists)
    and :meth:`save` / :meth:`close` write it back atomically.  Loading
    is tamper-rejecting — see :mod:`repro.service.persistence` and
    :attr:`last_load_report` — and every loaded profile passes the
    exact Lemma-1 gate against the requesting caller's game before its
    first serve.
    """

    DEFAULT_MAX_ENTRIES = 4096

    def __init__(self, max_entries: int | None = DEFAULT_MAX_ENTRIES,
                 path: str | os.PathLike | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")
        self._profiles: dict[tuple[str, str, str], MixedProfile] = {}
        self._sets: dict[tuple[str, bool], tuple[MixedProfile, ...]] = {}
        # Entries restored from disk, awaiting their first-serve
        # re-certification through the Lemma-1 gate (they promote into
        # the live stores above on success, and are dropped — counted
        # as load_rejected — on failure).
        self._pending_profiles: dict[tuple[str, str, str], MixedProfile] = {}
        self._pending_sets: dict[tuple[str, bool], tuple[MixedProfile, ...]] = {}
        self._max_entries = max_entries
        self._lock = threading.Lock()
        # Write-behind seam: with tracking on, every committed update
        # (profile store, cold set store) is queued as a ``(kind, key,
        # value)`` tuple for a journal to flush.  Off by default so a
        # journal-less cache never grows an unbounded list.
        self._track_updates = False
        self._updates: list[tuple] = []
        self.stats = CacheStats()
        self.path = None if path is None else os.fspath(path)
        #: Outcome of the most recent :meth:`load` (None before any).
        self.last_load_report: CacheLoadReport | None = None
        self._load_rejections: list[dict] = []
        if self.path is not None and os.path.exists(self.path):
            self.load()

    def _touch(self, store: dict, key) -> None:
        """Mark ``key`` most-recently-used (dicts iterate oldest-first)."""
        store[key] = store.pop(key)

    def _evict(self, live: dict, pending: dict) -> None:
        """Bound one kind's live plus pending entries by ``max_entries``:
        pending entries go first, oldest first, then the oldest live."""
        if self._max_entries is None:
            return
        while len(live) + len(pending) > self._max_entries:
            store = pending if pending else live
            store.pop(next(iter(store)))

    def _note_rejection(self, **details) -> None:
        """Record (under the lock) persisted state refused at load/serve."""
        self.stats.load_rejected += 1  # repro: allow[R5] -- private helper: every caller holds _lock
        self._load_rejections.append(details)

    def _note_update(self, kind: str, key, value) -> None:
        """Queue (under the lock) one committed update for write-behind."""
        if self._track_updates:
            self._updates.append((kind, key, value))

    # ------------------------------------------------------------------
    # The write-behind seam: dirty-entry tracking
    # ------------------------------------------------------------------

    def set_update_tracking(self, enabled: bool) -> None:
        """Arm (or disarm) dirty-entry tracking for write-behind flushes.

        A :class:`~repro.server.journal.WriteBehindPersister` arms this
        and periodically :meth:`drain_updates`; disarming also discards
        anything queued, so tracking can never leak unbounded memory
        after its consumer goes away.
        """
        with self._lock:
            self._track_updates = bool(enabled)
            if not self._track_updates:
                self._updates = []

    def drain_updates(self) -> list[tuple]:
        """Pop the queued ``(kind, key, value)`` updates (oldest first)."""
        with self._lock:
            updates = self._updates
            self._updates = []
        return updates

    # ------------------------------------------------------------------
    # Single certified solutions (the inventor's find-one path)
    # ------------------------------------------------------------------

    def lookup_profile(
        self, fingerprint: str, method: str, mode: str,
        game: BimatrixGame | None = None,
    ) -> MixedProfile | None:
        """The cached certified profile for this exact configuration.

        ``game`` is the game the caller fingerprinted (used only to
        re-certify entries restored from disk: a pending loaded profile
        runs the Lemma-1 lattice gate against *this* game's exact
        payoffs and either promotes to a live hit or is rejected and
        dropped).  Without a game, pending entries are not servable and
        the lookup falls through to a miss — live entries are
        unaffected.

        A miss is *not* counted here — the caller reports the cold solve
        that follows via :meth:`note_solved`.
        """
        key = (fingerprint, method, mode)
        with self._lock:
            profile = self._profiles.get(key)
            if profile is not None:
                self.stats.hits += 1
                self._touch(self._profiles, key)
                return profile
            if game is None:
                # Game-less lookups cannot run the gate; the pending
                # entry stays put for a caller that can.
                return None
            pending = self._pending_profiles.pop(key, None)
        if pending is None:
            return None
        # The first-serve gate: certify outside the lock (pure reads of
        # the game's cached integer lattice), then commit the verdict.
        from repro.equilibria.mixed import certify_mixed_profile

        certified = _gate(certify_mixed_profile, game, pending)
        with self._lock:
            if certified is None:
                self._note_rejection(
                    kind="profile", fingerprint=fingerprint, method=method,
                    mode=mode, reason="loaded profile failed the Lemma-1 gate",
                )
                return None
            self.stats.hits += 1
            self._profiles[key] = certified
            self._evict(self._profiles, self._pending_profiles)
        return certified

    def store_profile(
        self, fingerprint: str, method: str, mode: str, profile: MixedProfile
    ) -> None:
        with self._lock:
            key = (fingerprint, method, mode)
            self._pending_profiles.pop(key, None)
            self._profiles[key] = profile
            self._evict(self._profiles, self._pending_profiles)
            self._note_update("profile", key, profile)

    def note_solved(self) -> None:
        """Count one cold solve after a lookup that missed."""
        with self._lock:
            self.stats.misses += 1

    def note_hint(self, shape, pair) -> None:
        """A no-op: perfbench/layers.py's traced mode still wraps this
        name; it goes with the next benchmark change."""

    # ------------------------------------------------------------------
    # Certified equilibrium sets (full enumeration results)
    # ------------------------------------------------------------------

    def equilibrium_set(
        self,
        game: BimatrixGame,
        policy=None,
        equal_size_only: bool = False,
    ) -> tuple[MixedProfile, ...]:
        """All equilibria of ``game``, served from cache on exact repeats.

        Keyed by payoff fingerprint only: every search mode provably
        returns the same (bit-identical, exact) set, so a set computed
        under one policy answers for all of them.  Cold calls delegate
        to :func:`repro.equilibria.support_enumeration.support_enumeration`
        with the given policy and store the certified result.
        A set restored from disk re-certifies every member through the
        Lemma-1 gate against ``game`` before its first serve (the
        membership half of the contract; completeness of a stored set
        is covered by the file digest — see
        :mod:`repro.service.persistence`).
        """
        from repro.equilibria.support_enumeration import support_enumeration

        fingerprint = game_fingerprint(game)
        key = (fingerprint, equal_size_only)
        pending = None
        if fingerprint is not None:
            with self._lock:
                cached = self._sets.get(key)
                if cached is not None:
                    self.stats.set_hits += 1
                    self._touch(self._sets, key)
                    return cached
                pending = self._pending_sets.pop(key, None)
        if pending is not None:
            from repro.equilibria.mixed import certify_many

            verdicts = _gate(certify_many, game, pending) or []
            if len(verdicts) == len(pending) and all(
                v is not None for v in verdicts
            ):
                with self._lock:
                    self.stats.set_hits += 1
                    self._sets[key] = pending
                    self._evict(self._sets, self._pending_sets)
                return pending
            with self._lock:
                self._note_rejection(
                    kind="set", fingerprint=fingerprint,
                    equal_size_only=equal_size_only,
                    reason="loaded set member failed the Lemma-1 gate",
                )
        result = support_enumeration(
            game, equal_size_only=equal_size_only, policy=policy,
        )
        with self._lock:
            if fingerprint is None:
                self.stats.uncacheable += 1
            else:
                self.stats.set_misses += 1
                self._sets[key] = result
                self._evict(self._sets, self._pending_sets)
                self._note_update("set", key, result)
        return result

    # ------------------------------------------------------------------
    # Persistence: exact on-disk warm state
    # ------------------------------------------------------------------

    def entries(self) -> list[tuple]:
        """Every entry as ``(kind, key, value)``, in the order a save
        writes them: profiles, then sets, each oldest-first.

        Still-pending loaded entries come before the live ones (they
        were on disk already and keep their not-yet-re-certified status
        on the next load), so a save/load round trip preserves LRU
        order.  Copied under the lock: the list is a consistent view of
        some recent state, safe to encode while drains go on.
        """
        with self._lock:
            profiles = {**self._pending_profiles, **self._profiles}
            sets = {**self._pending_sets, **self._sets}
        return [("profile", key, value) for key, value in profiles.items()] \
            + [("set", key, value) for key, value in sets.items()]

    def save(self) -> int:
        """Atomically write the cache to its path; returns entry count.

        A header and one frame per :meth:`entries` item, landing via
        temp file + ``os.replace`` — a save concurrent with an active
        drain yields a complete, loadable file of some recent state.
        """
        if self.path is None:
            raise PersistenceError("this SolveCache has no path to save to")
        entries = self.entries()
        write_state_file(
            self.path, [encode_journal_frame(*entry) for entry in entries]
        )
        return len(entries)

    def load(self) -> CacheLoadReport:
        """Restore warm state from the cache's path; tamper-rejecting.

        What the file yields enters the *pending* stores — each entry is
        re-certified through the exact Lemma-1 gate against the
        requesting caller's game before its first serve.  A file
        rejected whole (integrity, schema or decoding failure) restores
        nothing: the cache keeps serving clean misses, the report says
        why, and the rejection is queued for the service's
        ``cache.load.rejected`` audit record.
        """
        if self.path is None:
            raise PersistenceError("this SolveCache has no path to load from")
        __, report = self.restore(self.path)
        self.last_load_report = report
        return report

    def restore(self, path) -> tuple[CacheState, CacheLoadReport]:
        """Read one state file into the pending stores.

        The shared back half of :meth:`load` and a server's recovery
        (:meth:`repro.server.journal.WriteBehindPersister.recover`):
        returns the decoded state and the report, and queues every
        rejection.  A missing file restores nothing and rejects nothing.
        """
        path = os.fspath(path)
        try:
            state, report = read_state_file(path)
        except FileNotFoundError:
            return CacheState(), CacheLoadReport(
                path=path, accepted=False, reason="file not found"
            )
        except OSError as exc:
            state, report = CacheState(), CacheLoadReport(
                path=path, accepted=False, reason=str(exc),
                rejections=({"kind": "file", "path": path,
                             "reason": str(exc)},),
            )
        self.merge_pending_state(state)
        with self._lock:
            for rejection in report.rejections:
                self._note_rejection(**rejection)
        return state, report

    def merge_pending_state(self, state: CacheState) -> int:
        """Merge decoded warm state into the *pending* stores; returns
        how many of its entries the cache now holds pending.

        Profiles and sets become pending — each re-certified through the
        Lemma-1 gate against the requesting caller's actual game before
        first serve.  Live entries are never displaced by loaded ones.
        """
        with self._lock:
            limit = self._max_entries
            for key, profile in _newest(state.profiles, limit).items():
                if key not in self._profiles:
                    self._pending_profiles[key] = profile
                    self._evict(self._profiles, self._pending_profiles)
            for key, profiles in _newest(state.sets, limit).items():
                if key not in self._sets:
                    self._pending_sets[key] = profiles
                    self._evict(self._sets, self._pending_sets)
            return (
                sum(key in self._pending_profiles for key in state.profiles)
                + sum(key in self._pending_sets for key in state.sets)
            )

    def drain_rejections(self) -> list[dict]:
        """Pop the queued load/serve rejection details (for audit)."""
        with self._lock:
            rejections = self._load_rejections
            self._load_rejections = []
        return rejections

    def close(self) -> None:
        """Save (when a path is set) and return; idempotent.

        The cache stays usable after closing — ``close`` is a flush
        point, mirroring the service's own non-final ``close``.
        """
        if self.path is not None:
            self.save()

    def __enter__(self) -> "SolveCache":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Servable entries: live + pending profiles and sets."""
        with self._lock:
            return (
                len(self._profiles) + len(self._sets)
                + len(self._pending_profiles) + len(self._pending_sets)
            )

    def clear(self) -> None:
        with self._lock:
            self._profiles.clear()
            self._sets.clear()
            self._pending_profiles.clear()
            self._pending_sets.clear()
            self._load_rejections.clear()
            self._updates.clear()
            self.stats = CacheStats()


def _newest(store: dict, limit: int | None) -> dict:
    """The last ``limit`` items of an oldest-first mapping (all if None)."""
    if limit is None or len(store) <= limit:
        return store
    keys = list(store)[-limit:]
    return {key: store[key] for key in keys}


def _gate(check, game, value):
    """Run a certification check, treating *any* failure as rejection.

    A loaded entry whose shape does not even fit the game (possible
    only with a forged digest) raises from deep in the gate; that is a
    rejection, not a crash — the caller falls back to a cold solve.
    """
    try:
        return check(game, value)
    except Exception:
        return None
