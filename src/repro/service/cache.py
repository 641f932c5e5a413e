"""The cross-run solve cache: certified profiles keyed by payoff bytes.

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
  returned — exact, Lemma-1-gated profiles.  Serving one skips the
  search phase only; the verification a consultation performs
  downstream is identical either way.

* **History-free.**  A game that is not an exact repeat gets a cold
  search, never a warm start from other games' answers, so what the
  cache holds can change how fast an answer comes, never which answer
  it is.

* **Warm state survives restarts.**  The cache itself holds no file:
  ``AuthorityService(state_dir=)`` attaches a write-behind persister
  (:mod:`repro.service.journal`) that journals every profile stored
  from then on (those stored before reach the file at its next
  compaction) and recovers the file into
  :meth:`~SolveCache.merge_pending_state` on restart, in the one
  format of :mod:`repro.service.persistence`.
  Loaded entries are *pending*: each one is re-certified through the
  Lemma-1 lattice gate against the caller's actual game before it is
  first served, so a forged file can cost cold solves, never produce
  unverified advice; a corrupted, truncated or version-mismatched file
  is rejected outright and the cache starts empty (a clean miss), with
  the rejection recorded for the service's audit log.

Entries are keyed by ``(fingerprint, method, mode)``: a hit returns
exactly the certified profile this cache stored for those payoff bytes
under that configuration, which is bit-identical to a fresh cold solve
(the solvers are deterministic given the three key parts).  No entry
is shared across methods or modes, so the cache relies on no claim
that two configurations find the same equilibrium.

The cache is thread-safe.  Each
:class:`~repro.core.authority.RationalityAuthority` owns one and hands
it to every inventor it registers, so every service over that
authority serves the same warm state.  At most one journal carries it
across runs (the "cross-run" in the name): :meth:`SolveCache
.track_updates` arms once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.games.bimatrix import BimatrixGame
from repro.games.profiles import MixedProfile
from repro.service.persistence import CacheState


@dataclass
class CacheStats:
    """Lifetime counters, reported by ``GET /stats``.

    ``load_rejected`` counts persisted state the cache refused to
    serve: whole files that failed the integrity/schema checks and
    individual loaded entries that failed the Lemma-1 gate at first
    serve.
    """

    hits: int = 0
    misses: int = 0
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
            "load_rejected": self.load_rejected,
            "hit_rate": self.hit_rate,
        }


class SolveCache:
    """Cross-run cache of certified solves.

    ``max_entries`` bounds the live and pending profiles together
    (pending loaded entries are evicted first, then the
    least-recently-used live ones) so an always-on service answering a
    long stream of mostly-distinct games holds steady memory.  Eviction
    only ever costs a re-solve — an evicted entry's next lookup is an
    ordinary miss.

    Warm state loaded from disk (:meth:`merge_pending_state`) is
    pending: every loaded profile passes the exact Lemma-1 gate against
    the requesting caller's game before its first serve.
    """

    #: The entry bound (live and pending together).
    max_entries = 4096

    def __init__(self):
        self._profiles: dict[tuple[str, str, str], MixedProfile] = {}
        # Entries restored from disk, awaiting their first-serve
        # re-certification through the Lemma-1 gate (they promote into
        # the live store above on success, and are dropped — counted
        # as load_rejected — on failure).
        self._pending: dict[tuple[str, str, str], MixedProfile] = {}
        self._lock = threading.Lock()
        #: The write-behind seam: the cache's one persister, None until
        #: one arms tracking.  From then on every stored profile is
        #: queued as a ``(key, profile)`` pair for it, and every drain
        #: over the cache flushes it; a journal-less cache grows no
        #: queue.
        self.persister = None
        self._updates: list[tuple] = []
        self.stats = CacheStats()
        self._load_rejections: list[dict] = []

    def _evict(self) -> None:
        """Bound the live plus pending entries by ``max_entries``:
        pending entries go first, oldest first, then the oldest live."""
        while len(self._profiles) + len(self._pending) > self.max_entries:
            store = self._pending if self._pending else self._profiles
            store.pop(next(iter(store)))

    def _note_rejection(self, **details) -> None:
        """Record (under the lock) persisted state refused at load/serve."""
        self.stats.load_rejected += 1  # repro: allow[R5] -- private helper: every caller holds _lock
        self._load_rejections.append(details)

    # ------------------------------------------------------------------
    # The write-behind seam: dirty-entry tracking
    # ------------------------------------------------------------------

    def track_updates(self, persister) -> None:
        """Arm dirty-entry tracking for ``persister``, the cache's one
        write-behind journal, and record it as :attr:`persister`.

        A :class:`~repro.service.journal.WriteBehindPersister` arms this
        and takes the queue (:meth:`drain_updates`) at every flush,
        which every drain over the cache runs.  A cache has at most one
        journal: a second arm raises :class:`~repro.errors.ProtocolError`,
        since two journals would split the updates between them.
        """
        with self._lock:
            if self.persister is not None:
                raise ProtocolError(
                    "this solve cache already has a journal: a second "
                    "would split its updates"
                )
            self.persister = persister

    def drain_updates(self) -> list[tuple]:
        """Pop the queued ``(key, profile)`` updates (oldest first)."""
        with self._lock:
            updates = self._updates
            self._updates = []
        return updates

    # ------------------------------------------------------------------
    # Lookups and stores
    # ------------------------------------------------------------------

    def lookup_profile(
        self, fingerprint: str, method: str, mode: str, game: BimatrixGame,
    ) -> MixedProfile | None:
        """The cached certified profile for this exact configuration.

        ``game`` is the game the caller fingerprinted; a pending loaded
        profile runs the Lemma-1 lattice gate against *this* game's
        exact payoffs and either promotes to a live hit or is rejected
        and dropped.

        A miss is *not* counted here — the caller reports the cold solve
        that follows via :meth:`note_solved`.
        """
        key = (fingerprint, method, mode)
        with self._lock:
            profile = self._profiles.get(key)
            if profile is not None:
                self.stats.hits += 1
                self._profiles[key] = self._profiles.pop(key)  # now newest
                return profile
            pending = self._pending.pop(key, None)
        if pending is None:
            return None
        # The first-serve gate: certify outside the lock (pure reads of
        # the game's cached integer lattice), then commit the verdict.
        from repro.equilibria.mixed import certify_mixed_profile

        try:
            certified = certify_mixed_profile(game, pending)
        except Exception:
            # A loaded profile that does not even fit the game (possible
            # only with a forged digest) raises from deep in the gate:
            # a rejection, not a crash — the caller solves cold.
            certified = None
        with self._lock:
            if certified is None:
                self._note_rejection(
                    kind="profile", fingerprint=fingerprint, method=method,
                    mode=mode, reason="loaded profile failed the Lemma-1 gate",
                )
                return None
            self.stats.hits += 1
            self._profiles[key] = certified
            self._evict()
        return certified

    def store_profile(
        self, fingerprint: str, method: str, mode: str, profile: MixedProfile
    ) -> None:
        with self._lock:
            key = (fingerprint, method, mode)
            self._pending.pop(key, None)
            self._profiles[key] = profile
            self._evict()
            if self.persister is not None:
                self._updates.append((key, profile))

    def note_solved(self) -> None:
        """Count one cold solve after a lookup that missed."""
        with self._lock:
            self.stats.misses += 1

    def note_hint(self, shape, pair) -> None:
        """A no-op: perfbench/layers.py's traced mode still wraps this
        name; it goes with the next benchmark change."""

    # ------------------------------------------------------------------
    # Warm state: what a compaction writes and a recovery loads
    # ------------------------------------------------------------------

    def entries(self) -> list[tuple]:
        """Every entry as ``(key, profile)``, oldest first: the order a
        compaction writes them.

        Still-pending loaded entries come before the live ones (they
        were on disk already and keep their not-yet-re-certified status
        on the next load), so a write/read round trip preserves LRU
        order.  Copied under the lock: the list is a consistent view of
        some recent state, safe to encode while drains go on.
        """
        with self._lock:
            return list({**self._pending, **self._profiles}.items())

    def merge_pending_state(self, state: CacheState,
                            rejections=()) -> int:
        """Merge decoded warm state into the *pending* store; returns
        how many of its entries the cache now holds pending.

        Each becomes pending — re-certified through the Lemma-1 gate
        against the requesting caller's actual game before first serve.
        Live entries are never displaced by loaded ones.
        ``rejections`` (the load report's) are counted into
        ``load_rejected`` and queued for the audit trail.
        """
        with self._lock:
            for rejection in rejections:
                self._note_rejection(**rejection)
            newest = list(state.profiles.items())[-self.max_entries:]
            for key, profile in newest:
                if key not in self._profiles:
                    self._pending[key] = profile
                    self._evict()
            return sum(key in self._pending for key in state.profiles)

    def drain_rejections(self) -> list[dict]:
        """Pop the queued load/serve rejection details (for audit)."""
        with self._lock:
            rejections = self._load_rejections
            self._load_rejections = []
        return rejections

    def __len__(self) -> int:
        """Servable entries: live + pending."""
        with self._lock:
            return len(self._profiles) + len(self._pending)

