"""The cross-run solve cache: fingerprints, hits and the entry bound.

The cache's contract is proof-preserving caching: keys are exact
payoff fingerprints (no tolerance anywhere) with the search method and
mode, values are certified profiles, and a hit is bit-identical to
what a cold solve of the same configuration returns.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.actors import BimatrixInventor
from repro.equilibria.support_enumeration import find_one_equilibrium
from repro.fractions_util import exact_fingerprint
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.games.profiles import MixedProfile
from repro.service import CacheState, SolveCache


#: A pure profile to store under made-up keys (never served).
_PURE = MixedProfile.from_rows(
    [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
)


def _cached(name, cache, **kwargs) -> BimatrixInventor:
    """A ``BimatrixInventor`` solving through ``cache``."""
    inventor = BimatrixInventor(name, **kwargs)
    inventor.attach_solve_cache(cache)
    return inventor


def _pending_profiles(*fingerprints) -> CacheState:
    """Loaded state holding ``_PURE`` under each fingerprint, in order."""
    return CacheState(profiles={
        (fingerprint, "m", "exact"): _PURE for fingerprint in fingerprints
    })


def _scaled(game: BimatrixGame, factor) -> BimatrixGame:
    """Scale both payoff matrices by a positive rational.

    Positive scaling preserves every equilibrium (best-reply order is
    unchanged) but changes the payoff bytes — the canonical near-repeat.
    """
    scale = Fraction(factor)
    a = [[x * scale for x in row] for row in game.row_matrix]
    b = [[x * scale for x in row] for row in game.column_matrix]
    return BimatrixGame(a, b, name=f"{game.name}-x{factor}")


def _degenerate_instances():
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
            [[2, 2], [2, 2], [0, 1]], [[1, 1], [1, 1], [3, 0]],
            name="DegenerateTall",
        ),
    ]


class TestFingerprint:
    """One canonicalization helper; exact-equality keys that cannot drift."""

    def test_same_payoffs_same_fingerprint(self):
        g1 = random_bimatrix(4, 4, seed=5)
        g2 = BimatrixGame(g1.row_matrix, g1.column_matrix, name="other-name")
        assert g1.payoff_fingerprint == g2.payoff_fingerprint

    def test_value_representation_is_canonical(self):
        # 0.5 converts exactly to 1/2: equal rationals, equal keys.
        g1 = BimatrixGame([[0.5, 1], [0, 2]], [[1, 1], [1, 0]])
        g2 = BimatrixGame(
            [[Fraction(1, 2), 1], [0, 2]], [[1, 1], [1, 0]]
        )
        assert g1.payoff_fingerprint == g2.payoff_fingerprint

    def test_any_payoff_change_changes_the_key(self):
        g1 = BimatrixGame([[1, 1], [0, 2]], [[1, 1], [1, 0]])
        g2 = BimatrixGame(
            [[1, 1], [0, Fraction(2000000001, 1000000000)]],
            [[1, 1], [1, 0]],
        )
        assert g1.payoff_fingerprint != g2.payoff_fingerprint

    def test_shape_and_matrix_order_matter(self):
        flat = BimatrixGame([[1, 2, 3, 4]], [[4, 3, 2, 1]])
        tall = BimatrixGame([[1], [2], [3], [4]], [[4], [3], [2], [1]])
        assert flat.payoff_fingerprint != tall.payoff_fingerprint
        swapped = BimatrixGame([[4, 3, 2, 1]], [[1, 2, 3, 4]])
        assert flat.payoff_fingerprint != swapped.payoff_fingerprint

    def test_game_property_delegates_to_the_shared_helper(self):
        # The dedup satellite: the game's cached fingerprint IS the
        # fractions_util canonicalization — no second implementation.
        game = random_bimatrix(3, 3, seed=9)
        assert game.payoff_fingerprint == exact_fingerprint(
            game.row_matrix, game.column_matrix, label="bimatrix"
        )


class TestProfileCache:
    """Exact repeats serve the stored certified profile."""

    def test_exact_repeat_hits_across_game_ids(self):
        cache = SolveCache()
        inventor = _cached("inv", cache, method="support-enumeration")
        game = random_bimatrix(4, 4, seed=21)
        clone = BimatrixGame(game.row_matrix, game.column_matrix)
        cold = inventor.solve(game)
        warm = inventor.solve(clone)
        assert warm.profile is cold.profile  # the stored certified object
        assert cold.cache == "miss"
        assert warm.cache == "hit"
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert warm.solve_ms >= 0.0

    def test_keys_include_method_and_mode(self):
        cache = SolveCache()
        game = random_bimatrix(3, 3, seed=22)
        se = _cached("se", cache, method="support-enumeration")
        lh = _cached("lh", cache, method="lemke-howson")
        se.solve(game)
        # A different method: no cross-contamination.
        assert lh.solve(game).cache == "miss"
        assert cache.stats.misses == 2
        # A different mode: on near-tie games the modes can certify
        # different equilibria, so none is served another's entry.
        modes = SolveCache()
        exact, numpy = (
            _cached(mode, modes, method="support-enumeration", backend=mode)
            for mode in ("exact", "numpy")
        )
        assert exact.solve(game).cache == "miss"
        assert numpy.solve(game).cache == "miss"
        assert len(modes) == 2

    def test_without_cache_state_is_blank(self):
        inventor = BimatrixInventor("inv", method="support-enumeration")
        assert inventor.solve(random_bimatrix(3, 3, seed=23)).cache == ""

    # Without numpy the "numpy" mode falls back to the stdlib float path.
    @pytest.mark.parametrize("mode", ["exact", "float+certify", "numpy"])
    def test_hits_are_bit_identical_to_a_fresh_cold_solve(self, mode):
        cache = SolveCache()
        inventor = _cached(
            "inv", cache, method="support-enumeration", backend=mode
        )
        sizes = [(3, 3), (4, 3), (3, 4), (4, 4)]
        games = [
            random_bimatrix(*sizes[i % len(sizes)], seed=7000 + i)
            for i in range(20)
        ] + _degenerate_instances()
        for game in games:
            cold = inventor.solve(game).profile
            clone = BimatrixGame(game.row_matrix, game.column_matrix)
            hit, cache_state, __ = inventor.solve(clone)
            assert cache_state == "hit" and hit is cold, game.name
            fresh = find_one_equilibrium(game, policy=mode)  # no cache
            assert hit.distributions == fresh.distributions, game.name
            assert all(
                type(value) is Fraction
                for dist in hit.distributions for value in dist
            ), game.name
        assert cache.stats.hits == cache.stats.misses == len(games) == 25

    def test_unfingerprinted_games_bypass_the_cache(self):
        # A game without a payoff fingerprint can never hit: it is
        # solved cold each time, stored nowhere, and counted as neither
        # a hit nor a miss.
        class _Unfingerprinted(BimatrixGame):
            payoff_fingerprint = None

        cache = SolveCache()
        inventor = _cached("inv", cache, method="support-enumeration")
        opaque = _Unfingerprinted([[1, 1], [0, 2]], [[1, 1], [1, 0]])
        first = inventor.solve(opaque)
        again = inventor.solve(opaque)
        assert (first.cache, again.cache) == ("", "")
        assert first.profile.distributions == again.profile.distributions
        assert cache.stats.lookups == 0 and len(cache) == 0


class TestHistoryFree:
    """A cached service answers every game as a lone cold solve would."""

    @pytest.mark.parametrize("size", [5, 4, 3])
    def test_answers_do_not_depend_on_earlier_solves(self, size):
        cache = SolveCache()
        inventor = _cached(
            "inv", cache, method="support-enumeration", backend="auto"
        )
        differ = []
        for seed in range(7000, 7100):
            game = random_bimatrix(size, size, seed=seed)
            served = inventor.solve(game).profile
            alone = find_one_equilibrium(game, policy="auto")
            if served.distributions != alone.distributions:
                differ.append(seed)
        assert differ == []
        assert cache.stats.misses == 100 and cache.stats.hits == 0

    def test_near_repeat_is_a_cold_miss(self):
        cache = SolveCache()
        inventor = _cached("inv", cache, method="support-enumeration")
        game = random_bimatrix(4, 4, seed=31)
        cold = inventor.solve(game).profile
        near, cache_state, __ = inventor.solve(_scaled(game, 3))
        assert cache_state == "miss"
        # Positive scaling preserves the equilibrium exactly.
        assert near.distributions == cold.distributions
        # Cached under the near game's own fingerprint: a repeat hits.
        again, cache_state, __ = inventor.solve(_scaled(game, 3))
        assert cache_state == "hit"
        assert again is near

    def test_names_perfbench_reads_stay_inert(self):
        cache = SolveCache()
        inventor = _cached("inv", cache, method="support-enumeration")
        inventor.solve(random_bimatrix(3, 3, seed=32))
        assert cache.note_hint((3, 3), ((0,), (0,))) is None
        assert len(cache) == 1
        stats = cache.stats.as_dict()
        assert stats["warm_hits"] == 0
        assert stats["misses"] == 1 and cache.stats.lookups == 1


class TestStatsAndLifecycle:
    def test_hit_rate(self):
        cache = SolveCache()
        inventor = _cached("inv", cache, method="support-enumeration")
        game = random_bimatrix(3, 3, seed=41)
        inventor.solve(game)
        inventor.solve(BimatrixGame(game.row_matrix, game.column_matrix))
        stats = cache.stats.as_dict()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert cache.stats.lookups == 2

    def test_lru_eviction_bounds_the_stores(self, monkeypatch):
        monkeypatch.setattr(SolveCache, "max_entries", 2)
        cache = SolveCache()
        inventor = _cached("inv", cache, method="support-enumeration")
        games = [random_bimatrix(3, 3, seed=600 + i) for i in range(3)]
        for i, game in enumerate(games):
            inventor.solve(game)
        # Three distinct fingerprints through a 2-entry store: the
        # oldest (g0) was evicted, the newer two still hit.
        fresh = _cached("fresh", cache, method="support-enumeration")
        r0 = BimatrixGame(games[0].row_matrix, games[0].column_matrix)
        assert fresh.solve(r0).cache == "miss"  # evicted
        r2 = BimatrixGame(games[2].row_matrix, games[2].column_matrix)
        assert fresh.solve(r2).cache == "hit"
        assert len(cache) == 2

    def test_lookup_refreshes_lru_order(self, monkeypatch):
        monkeypatch.setattr(SolveCache, "max_entries", 2)
        cache = SolveCache()
        inventor = _cached("inv", cache, method="support-enumeration")
        g0 = random_bimatrix(3, 3, seed=610)
        g1 = random_bimatrix(3, 3, seed=611)
        inventor.solve(g0)
        inventor.solve(g1)
        # Touch g0 so g1 becomes the LRU entry...
        inventor.solve(BimatrixGame(g0.row_matrix, g0.column_matrix))
        # ...then insert a third fingerprint, evicting g1, not g0.
        inventor.solve(random_bimatrix(3, 3, seed=612))
        probe = _cached("probe", cache, method="support-enumeration")
        p0 = BimatrixGame(g0.row_matrix, g0.column_matrix)
        assert probe.solve(p0).cache == "hit"
        p1 = BimatrixGame(g1.row_matrix, g1.column_matrix)
        assert probe.solve(p1).cache == "miss"

    @staticmethod
    def _keys(cache) -> list:
        return [key[0] for key, __ in cache.entries()]

    @staticmethod
    def _store(cache, *fingerprints) -> None:
        for fingerprint in fingerprints:
            cache.store_profile(fingerprint, "m", "exact", _PURE)

    def test_pending_entries_are_evicted_first_then_the_oldest_live(
        self, monkeypatch
    ):
        monkeypatch.setattr(SolveCache, "max_entries", 3)
        cache = SolveCache()
        assert cache.merge_pending_state(_pending_profiles("p0", "p1")) == 2
        self._store(cache, "l0")
        assert self._keys(cache) == ["p0", "p1", "l0"]
        self._store(cache, "l1")
        assert self._keys(cache) == ["p1", "l0", "l1"]
        self._store(cache, "l2")
        assert self._keys(cache) == ["l0", "l1", "l2"]
        self._store(cache, "l3")
        assert self._keys(cache) == ["l1", "l2", "l3"]

    def test_a_full_cache_keeps_no_loaded_entry(self, monkeypatch):
        # Loaded entries never displace live ones.
        monkeypatch.setattr(SolveCache, "max_entries", 2)
        cache = SolveCache()
        self._store(cache, "l0", "l1")
        assert cache.merge_pending_state(_pending_profiles("p0", "p1")) == 0
        assert self._keys(cache) == ["l0", "l1"]
        assert len(cache) == 2

    def test_misadvising_wrapper_forwards_the_cache(self):
        from repro.core.actors import MisadvisingInventor

        cache = SolveCache()
        inner = BimatrixInventor("inner", method="support-enumeration")
        wrapper = MisadvisingInventor("wrap", inner, corrupt=lambda s: s)
        wrapper.attach_solve_cache(cache)
        game = random_bimatrix(3, 3, seed=42)
        assert inner.solve(game).cache == "miss"
        assert inner.solve(game).cache == "hit"
        assert cache.stats.misses == 1 and cache.stats.hits == 1
