"""The cross-run solve cache: fingerprints, hits and sets.

The cache's contract is proof-preserving caching: keys are exact
payoff fingerprints (no tolerance anywhere), values are certified
solutions, and a hit is bit-identical to what a cold solve of the same
configuration returns — including across backend modes, where the
backend-parity guarantee makes enumeration sets mode-invariant.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.actors import BimatrixInventor
from repro.equilibria.support_enumeration import support_enumeration
from repro.fractions_util import exact_fingerprint
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.games.profiles import MixedProfile
from repro.linalg.backend import (
    MODE_EXACT,
    MODE_FLOAT_CERTIFY,
    MODE_NUMPY,
    BackendPolicy,
)
from repro.service import CacheState, SolveCache, game_fingerprint


#: A pure profile to store under made-up keys (never served).
_PURE = MixedProfile.from_rows(
    [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
)


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


def _bit_identical(left, right) -> bool:
    """Equal values AND exact types — every probability is a Fraction."""
    left = [p.distributions for p in left]
    right = [p.distributions for p in right]
    if left != right:
        return False
    for profile in left:
        for dist in profile:
            for value in dist:
                if type(value) is not Fraction:
                    return False
    return True


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
        assert game_fingerprint(game) == game.payoff_fingerprint

    def test_uncacheable_games_fingerprint_as_none(self):
        assert game_fingerprint(object()) is None


class TestProfileCache:
    """Exact repeats serve the stored certified profile."""

    def test_exact_repeat_hits_across_game_ids(self):
        cache = SolveCache()
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
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
        se = BimatrixInventor(
            "se", method="support-enumeration", solve_cache=cache
        )
        lh = BimatrixInventor("lh", method="lemke-howson", solve_cache=cache)
        se.solve(game)
        # A different method: no cross-contamination.
        assert lh.solve(game).cache == "miss"
        assert cache.stats.misses == 2

    def test_without_cache_state_is_blank(self):
        inventor = BimatrixInventor("inv", method="support-enumeration")
        assert inventor.solve(random_bimatrix(3, 3, seed=23)).cache == ""


class TestHistoryFree:
    """A cached service answers every game as a lone cold solve would."""

    @pytest.mark.parametrize("size", [5, 4, 3])
    def test_answers_do_not_depend_on_earlier_solves(self, size):
        from repro.equilibria.support_enumeration import find_one_equilibrium

        cache = SolveCache()
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", backend="auto",
            solve_cache=cache,
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
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
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
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
        inventor.solve(random_bimatrix(3, 3, seed=32))
        assert cache.note_hint((3, 3), ((0,), (0,))) is None
        assert len(cache) == 1
        stats = cache.stats.as_dict()
        assert stats["warm_hits"] == 0
        assert stats["misses"] == 1 and cache.stats.lookups == 1


class TestEquilibriumSetCache:
    """Satellite: cache hits are bit-identical to cold exact solves.

    25 games (20 random + 5 degenerate), each populated under a
    rotating search mode and then served from cache — the served set
    must equal a *fresh cold exact* enumeration bit for bit, which is
    exactly the cross-mode guarantee that makes fingerprint-only set
    keys sound.
    """

    MODES = [
        BackendPolicy(MODE_EXACT),
        BackendPolicy(MODE_FLOAT_CERTIFY),
        BackendPolicy(MODE_NUMPY),  # falls back to float without numpy
    ]

    def _games(self):
        sizes = [(3, 3), (4, 3), (3, 4), (4, 4)]
        games = [
            random_bimatrix(*sizes[i % len(sizes)], seed=7000 + i)
            for i in range(20)
        ]
        games.extend(_degenerate_instances())
        assert len(games) == 25
        return games

    def test_cache_hits_bit_identical_to_cold_exact(self):
        cache = SolveCache()
        for i, game in enumerate(self._games()):
            populate_policy = self.MODES[i % len(self.MODES)]
            cold = cache.equilibrium_set(game, policy=populate_policy)
            hit = cache.equilibrium_set(
                game, policy=self.MODES[(i + 1) % len(self.MODES)]
            )
            assert hit is cold  # fingerprint hit, any mode
            exact_reference = support_enumeration(game)  # fresh, no cache
            assert _bit_identical(hit, exact_reference), game.name
        assert cache.stats.set_hits == 25
        assert cache.stats.set_misses == 25

    def test_set_hits_survive_reconstruction_of_the_game(self):
        cache = SolveCache()
        game = BimatrixGame.fig5_example()
        cold = cache.equilibrium_set(game, policy=BackendPolicy(MODE_NUMPY))
        clone = BimatrixGame(game.row_matrix, game.column_matrix, name="x")
        assert cache.equilibrium_set(clone) is cold

    def test_uncacheable_games_do_not_skew_set_miss_telemetry(self):
        # The bugfix: a game without a payoff fingerprint can never hit,
        # so counting it as a set miss would drag the set-hit rate down
        # for lookups the cache was never offered.  It lands in its own
        # counter; set_misses keeps meaning "cacheable but absent".
        class _Unfingerprinted(BimatrixGame):
            payoff_fingerprint = None

        cache = SolveCache()
        opaque = _Unfingerprinted([[1, 1], [0, 2]], [[1, 1], [1, 0]])
        first = cache.equilibrium_set(opaque)
        again = cache.equilibrium_set(opaque)  # still no caching possible
        assert first == again
        assert cache.stats.uncacheable == 2
        assert cache.stats.set_misses == 0 and cache.stats.set_hits == 0
        assert cache.stats.as_dict()["uncacheable"] == 2
        assert len(cache) == 0  # nothing was stored


class TestStatsAndLifecycle:
    def test_hit_rate_and_clear(self):
        cache = SolveCache()
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
        game = random_bimatrix(3, 3, seed=41)
        inventor.solve(game)
        inventor.solve(BimatrixGame(game.row_matrix, game.column_matrix))
        stats = cache.stats.as_dict()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_lru_eviction_bounds_the_stores(self):
        cache = SolveCache(max_entries=2)
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
        games = [random_bimatrix(3, 3, seed=600 + i) for i in range(3)]
        for i, game in enumerate(games):
            inventor.solve(game)
        # Three distinct fingerprints through a 2-entry store: the
        # oldest (g0) was evicted, the newer two still hit.
        fresh = BimatrixInventor(
            "fresh", method="support-enumeration", solve_cache=cache
        )
        r0 = BimatrixGame(games[0].row_matrix, games[0].column_matrix)
        assert fresh.solve(r0).cache == "miss"  # evicted
        r2 = BimatrixGame(games[2].row_matrix, games[2].column_matrix)
        assert fresh.solve(r2).cache == "hit"
        assert SolveCache(max_entries=None)._max_entries is None
        with pytest.raises(ValueError):
            SolveCache(max_entries=0)

    def test_lookup_refreshes_lru_order(self):
        cache = SolveCache(max_entries=2)
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", solve_cache=cache
        )
        g0 = random_bimatrix(3, 3, seed=610)
        g1 = random_bimatrix(3, 3, seed=611)
        inventor.solve(g0)
        inventor.solve(g1)
        # Touch g0 so g1 becomes the LRU entry...
        inventor.solve(BimatrixGame(g0.row_matrix, g0.column_matrix))
        # ...then insert a third fingerprint, evicting g1, not g0.
        inventor.solve(random_bimatrix(3, 3, seed=612))
        probe = BimatrixInventor(
            "probe", method="support-enumeration", solve_cache=cache
        )
        p0 = BimatrixGame(g0.row_matrix, g0.column_matrix)
        assert probe.solve(p0).cache == "hit"
        p1 = BimatrixGame(g1.row_matrix, g1.column_matrix)
        assert probe.solve(p1).cache == "miss"

    @staticmethod
    def _keys(cache) -> list:
        return [key[0] for __, key, __ in cache.entries()]

    @staticmethod
    def _store(cache, *fingerprints) -> None:
        for fingerprint in fingerprints:
            cache.store_profile(fingerprint, "m", "exact", _PURE)

    def test_pending_entries_are_evicted_first_then_the_oldest_live(self):
        cache = SolveCache(max_entries=3)
        assert cache.merge_pending_state(_pending_profiles("p0", "p1")) == 2
        self._store(cache, "l0")
        assert self._keys(cache) == ["p0", "p1", "l0"]
        self._store(cache, "l1")
        assert self._keys(cache) == ["p1", "l0", "l1"]
        self._store(cache, "l2")
        assert self._keys(cache) == ["l0", "l1", "l2"]
        self._store(cache, "l3")
        assert self._keys(cache) == ["l1", "l2", "l3"]

    def test_a_full_cache_keeps_no_loaded_entry(self):
        # Loaded entries never displace live ones.
        cache = SolveCache(max_entries=2)
        self._store(cache, "l0", "l1")
        assert cache.merge_pending_state(_pending_profiles("p0", "p1")) == 0
        assert self._keys(cache) == ["l0", "l1"]
        assert len(cache) == 2

    def test_loaded_sets_share_the_bound_with_live_ones(self):
        games = [random_bimatrix(2, 2, seed=620 + i) for i in range(3)]
        keys = [(game_fingerprint(game), False) for game in games]
        cache = SolveCache(max_entries=2)
        cache.merge_pending_state(CacheState(sets={
            key: tuple(support_enumeration(game))
            for key, game in zip(keys[:2], games[:2])
        }))
        cache.equilibrium_set(games[2])  # cold: evicts the older loaded set
        assert [key for __, key, __ in cache.entries()] == keys[1:]
        cache.equilibrium_set(games[0])
        assert cache.stats.set_misses == 2  # its loaded set was gone
        assert len(cache) == 2

    def test_misadvising_wrapper_forwards_the_cache(self):
        from repro.core.actors import MisadvisingInventor

        cache = SolveCache()
        inner = BimatrixInventor("inner", method="support-enumeration")
        wrapper = MisadvisingInventor("wrap", inner, corrupt=lambda s: s)
        wrapper.attach_solve_cache(cache)
        assert inner.solve_cache is cache
        assert wrapper.solve_cache is cache
