"""The consultation service: futures, admission queue, shims, asyncio.

Covers the acceptance demo (≥ 100 concurrent submissions over a
50%-repeat game stream, every advice certified, cache hit-rate in the
audit log), behavior-identity of the synchronous shims, the authority
close() regression, and the future-based online burst adapter.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import threading
import weakref

import pytest

from repro.core import AuditLog
from repro.core.actors import AuthorityAgent, BimatrixInventor, PureNashInventor
from repro.core.audit_events import (
    EVENT_BATCH_CONSULTATION,
    EVENT_SERVICE_COMPLETED,
    EVENT_SERVICE_DRAINED,
)
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.crypto import KeyRegistry
from repro.errors import ProtocolError
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import prisoners_dilemma, random_bimatrix
from repro.linalg.backend import MODE_NUMPY, BackendPolicy
from repro.online.consultation import (
    DeviousLinkInventor,
    OnlineLinkInventorService,
    run_verified_session,
)
from repro.service import (
    AuthorityService,
    BurstLinkAdviser,
    ConsultationFuture,
    SolveCache,
)


def _authority(inventor, games, seed=9):
    authority = RationalityAuthority(seed=seed)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(inventor)
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for game_id, game in games:
        authority.publish_game(inventor.name, game_id, game)
    return authority


def _repeat_stream(count=100, distinct=50, size=4, seed=500):
    """``count`` published games over ``distinct`` payoff matrices.

    Ids ``g0..g{distinct-1}`` are fresh; the rest reuse earlier payoff
    matrices under new ids — a 50%-repeat stream when
    ``count == 2 * distinct``.
    """
    bases = [
        random_bimatrix(size, size, seed=seed + i) for i in range(distinct)
    ]
    games = [(f"g{i}", bases[i]) for i in range(distinct)]
    games.extend(
        (
            f"g{i}",
            BimatrixGame(
                bases[i - distinct].row_matrix,
                bases[i - distinct].column_matrix,
            ),
        )
        for i in range(distinct, count)
    )
    return games


class TestSubmitAndFutures:
    def test_submit_returns_pending_future_then_resolves(self):
        inventor = BimatrixInventor("inv", method="support-enumeration")
        authority = _authority(inventor, _repeat_stream(4, 2, size=3))
        service = authority.service
        future = service.submit("jane", "g0")
        assert isinstance(future, ConsultationFuture)
        assert not future.done()
        assert service.pending_count == 1
        outcome = future.result()
        assert outcome.majority.accepted and outcome.adopted
        assert future.done()
        assert service.pending_count == 0
        assert future.latency_ms is not None and future.latency_ms >= 0.0
        authority.close()

    def test_queue_depth_recorded_per_future(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        service = authority.service
        futures = [service.submit("jane", "pd") for __ in range(3)]
        assert [f.queue_depth for f in futures] == [0, 1, 2]
        assert service.drain() == 3
        assert all(f.done() for f in futures)
        assert service.completed_count == 3

    def test_unknown_agent_and_game_rejected_at_admission(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        with pytest.raises(ProtocolError):
            authority.service.submit("ghost", "pd")
        with pytest.raises(ProtocolError):
            authority.service.submit("jane", "ghost-game")
        with pytest.raises(ProtocolError):
            authority.service.submit_many("jane", ["pd", "ghost-game"])

    def test_submission_failures_land_in_the_future(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        future = authority.service.submit("jane", "pd", privacy="bogus")
        assert isinstance(future.exception(), ProtocolError)
        with pytest.raises(ProtocolError):
            future.result()
        # The failed submission does not poison later ones.
        assert authority.service.submit("jane", "pd").result().adopted

    def test_empty_submit_many(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        assert authority.service.submit_many("jane", []) == ()

    def test_done_callback_fires(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        seen = []
        future = authority.service.submit("jane", "pd")
        future.add_done_callback(lambda f: seen.append(f.game_id))
        future.result()
        assert seen == ["pd"]

    def test_raising_done_callback_cannot_poison_the_drain(self):
        # Callbacks run on whatever thread resolves the inner future —
        # the draining thread included.  The stdlib future would catch
        # and log a raising callback invisibly; the fix records it as
        # an audit warning, and this pins that the drain completes and
        # every queued submission still resolves.
        from repro.core.audit_events import EVENT_CALLBACK_FAILED

        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        service = authority.service
        first = service.submit("jane", "pd")
        first.add_done_callback(lambda f: 1 / 0)
        rest = [service.submit("jane", "pd") for __ in range(3)]
        assert service.drain() == 4  # the drain survives the callback
        assert first.result().adopted
        assert all(f.result().adopted for f in rest)
        (warning,) = authority.audit.events_of(EVENT_CALLBACK_FAILED)
        assert warning.details["game_id"] == "pd"
        assert "ZeroDivisionError" in warning.details["error"]
        authority.close()

    def test_raising_callback_on_resolved_future_is_isolated_too(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        future = authority.service.submit("jane", "pd")
        future.result()
        future.add_done_callback(lambda f: 1 / 0)  # fires immediately
        from repro.core.audit_events import EVENT_CALLBACK_FAILED

        assert authority.audit.events_of(EVENT_CALLBACK_FAILED)
        authority.close()

    def test_resolved_future_with_a_callback_dies_by_reference_count(self):
        # A callback that closes over its own future is a reference
        # cycle until the future resolves; after that, nothing but the
        # caller may hold the future, so with the cyclic collector off
        # it and its outcome still die as soon as the caller lets go.
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        seen = []
        gc.collect()
        gc.disable()
        try:
            future = authority.service.submit("jane", "pd")
            future.add_done_callback(
                lambda f: seen.append(future.game_id)
            )
            outcome = weakref.ref(future.result())
            resolved = weakref.ref(future)
            del future
            assert resolved() is None and outcome() is None
        finally:
            gc.enable()
        assert seen == ["pd"]
        authority.close()

    def test_callbacks_racing_the_resolution_each_run_exactly_once(self):
        adders, per_adder = 4, 25
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(100):
                future = ConsultationFuture(
                    round_, "jane", "pd", service=None, queue_depth=0
                )
                calls = []
                start = threading.Barrier(adders + 1)

                def add(first):
                    start.wait(10)
                    for key in range(first, first + per_adder):
                        future.add_done_callback(
                            lambda f, key=key: calls.append(key)
                        )

                def resolve():
                    start.wait(10)
                    future._resolve("outcome")

                threads = [
                    threading.Thread(target=add, args=(i * per_adder,))
                    for i in range(adders)
                ] + [threading.Thread(target=resolve)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(calls) == list(range(adders * per_adder))
        finally:
            sys.setswitchinterval(previous)

    def test_callback_added_once_seen_done_runs_before_add_returns(self):
        # The stdlib future wakes its waiters, then runs the callbacks
        # registered on ``inner``.  One that stalls holds the resolving
        # thread in that window; a caller whose wait() has returned
        # must still have its new callback run at once, on its own
        # thread, not later on the resolver's.
        future = ConsultationFuture(
            0, "jane", "pd", service=None, queue_depth=0
        )
        added = threading.Event()
        future.inner.add_done_callback(lambda f: added.wait(0.3))
        resolver = threading.Thread(target=future._resolve, args=("o",))
        resolver.start()
        try:
            assert future.wait(10)
            ran_on = []
            future.add_done_callback(
                lambda f: ran_on.append(threading.get_ident())
            )
            assert ran_on == [threading.get_ident()]
        finally:
            added.set()
            resolver.join(10)
        assert not resolver.is_alive()
        assert ran_on == [threading.get_ident()]

    def test_inner_callback_may_register_a_callback(self):
        # Callbacks on ``inner`` run while the resolution holds the
        # callback lock; one that registers here must not deadlock.
        future = ConsultationFuture(
            0, "jane", "pd", service=None, queue_depth=0
        )
        calls = []
        future.inner.add_done_callback(
            lambda f: future.add_done_callback(lambda g: calls.append(g))
        )
        resolver = threading.Thread(target=future._resolve, args=("o",))
        resolver.start()
        resolver.join(10)
        assert not resolver.is_alive()
        assert calls == [future]


class TestShimEquivalence:
    """consult/consult_many are thin shims and stay behavior-identical."""

    def test_consult_emits_no_batch_event_and_consult_many_one(self):
        inventor = BimatrixInventor("inv", method="support-enumeration")
        authority = _authority(inventor, _repeat_stream(4, 2, size=3))
        authority.consult("jane", "g0")
        assert authority.audit.events_of(EVENT_BATCH_CONSULTATION) == ()
        authority.consult_many("jane", ["g1", "g2"])
        assert len(authority.audit.events_of(EVENT_BATCH_CONSULTATION)) == 1
        authority.close()

    def test_shim_and_service_outcomes_match(self):
        games = _repeat_stream(4, 2, size=3)
        shim_auth = _authority(
            BimatrixInventor("inv", method="support-enumeration"), games
        )
        shim = [
            shim_auth.consult("jane", gid) for gid, __ in games
        ]
        svc_auth = _authority(
            BimatrixInventor("inv", method="support-enumeration"), games
        )
        futures = [
            svc_auth.service.submit("jane", gid) for gid, __ in games
        ]
        via_service = [f.result() for f in futures]
        assert [o.advice.suggestion for o in shim] == [
            o.advice.suggestion for o in via_service
        ]
        assert [o.advice.cache for o in shim] == [
            o.advice.cache for o in via_service
        ]
        shim_auth.close()
        svc_auth.close()

    def test_consult_and_server_wiring_serve_the_same_advice(self, tmp_path):
        # Answers depend only on the game and the policy: the lazy
        # default service behind consult() and the service
        # `python -m repro.server --state-dir` builds agree, game by
        # game, in the same consultation order.
        from repro.server.__main__ import (
            DEFAULT_AGENT,
            build_demo_authority,
            build_server,
            parse_args,
        )

        flags = ["--games", "30", "--size", "5", "--seed", "7000"]
        shim_auth = build_demo_authority(30, 5, 7000)
        __, service = build_server(
            parse_args(flags + ["--state-dir", str(tmp_path)])
        )
        assert service.cache is not shim_auth.service.cache
        for i in range(30):
            shim = shim_auth.consult(DEFAULT_AGENT, f"g{i}")
            served = service.submit(DEFAULT_AGENT, f"g{i}").result()
            assert served.advice.suggestion == shim.advice.suggestion, i
            assert served.advice.cache == shim.advice.cache == "miss"
        assert shim_auth.service is shim_auth.service  # one instance
        service.close()
        service.authority.close()
        shim_auth.close()

    def test_wire_summary_carries_cache_but_never_timings(self):
        from repro.core.session import advice_wire_summary

        inventor = BimatrixInventor("inv", method="support-enumeration")
        authority = _authority(inventor, _repeat_stream(2, 1, size=3))
        authority.consult("jane", "g0")  # populate the cache
        outcome = authority.consult("jane", "g1")  # exact payoff repeat
        summary = advice_wire_summary(outcome.advice)
        assert summary["cache"] == "hit"
        # Wall-clock telemetry must stay off the wire: the bus accounts
        # protocol bytes exactly, and timings vary run to run.
        assert "solve_ms" not in summary
        assert outcome.advice.solve_ms >= 0.0  # ...but lives on the advice
        authority.close()

    def test_drain_and_completion_events_in_audit(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        authority.consult("jane", "pd")
        drained = authority.audit.events_of(EVENT_SERVICE_DRAINED)
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert len(drained) == 1 and len(completed) == 1
        assert drained[0].details["submissions"] == 1
        assert "cache_hit_rate" in drained[0].details
        assert completed[0].details["latency_ms"] >= 0.0


class TestConcurrentServiceDemo:
    """The acceptance demo: 100 concurrent submissions, 50% repeats."""

    def test_hundred_submissions_half_repeats(self):
        games = _repeat_stream(count=100, distinct=50, size=3)
        inventor = BimatrixInventor(
            "inv",
            method="support-enumeration",
            backend=BackendPolicy(MODE_NUMPY, chunk_size=64),
        )
        authority = _authority(inventor, games)
        service = AuthorityService(authority)
        futures = [service.submit("jane", gid) for gid, __ in games]
        assert service.pending_count == 100
        outcomes = [future.result() for future in futures]

        # Every advice certified (majority accepted) and adopted.
        assert all(o.majority.accepted and o.adopted for o in outcomes)
        # The second half of the stream repeats the first half's payoff
        # bytes exactly: all 50 are cache hits, served without search.
        hits = [o for o in outcomes if o.advice.cache == "hit"]
        assert len(hits) == 50
        assert all(o.advice.cache == "miss" for o in outcomes[:50])
        assert service.cache.stats.hits == 50
        # The audit log reports the drain's hit rate.
        drained = authority.audit.events_of(EVENT_SERVICE_DRAINED)
        assert drained and drained[-1].details["cache_hits"] == 50
        assert drained[-1].details["cache_hit_rate"] == pytest.approx(0.5)
        assert drained[-1].details["queue_depth"] == 100
        # Hits carry the stored certified solution: bit-identical to
        # the cold solve of the same payoffs earlier in the stream.
        by_id = {o.advice.game_id: o for o in outcomes}
        for i in range(50, 100):
            cold = by_id[f"g{i - 50}"].advice.suggestion
            assert by_id[f"g{i}"].advice.suggestion == cold
        service.close()
        authority.close()


class TestAsyncAPI:
    def test_async_consult_and_gather(self):
        games = _repeat_stream(8, 4, size=3)
        inventor = BimatrixInventor("inv", method="support-enumeration")
        authority = _authority(inventor, games)

        async def main():
            async with AuthorityService(authority) as service:
                outcomes = await asyncio.gather(
                    *(
                        service.async_consult("jane", gid)
                        for gid, __ in games
                    )
                )
                batch = await service.async_consult_many(
                    "jane", [gid for gid, __ in games[:3]]
                )
                return outcomes, batch

        outcomes, batch = asyncio.run(main())
        assert len(outcomes) == 8 and len(batch) == 3
        assert all(o.majority.accepted for o in outcomes)
        assert all(o.majority.accepted for o in batch)
        authority.close()

    def test_aclose_and_async_drain(self):
        inventor = PureNashInventor("pure")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])

        async def main():
            service = AuthorityService(authority)
            future = service.submit("jane", "pd")
            drained = await service.async_drain()
            await service.aclose()
            return drained, future.result()

        drained, outcome = asyncio.run(main())
        assert drained == 1 and outcome.adopted


class TestAuthorityCloseRegression:
    """close() is idempotent and non-final, also across late inventors."""

    def test_close_is_idempotent_and_non_final(self):
        authority = RationalityAuthority(seed=4)
        authority.register_verifiers(standard_procedures())
        authority.register_agent(AuthorityAgent("jane", player_role=0))
        early = BimatrixInventor("early", method="support-enumeration")
        authority.register_inventor(early)
        authority.publish_game("early", "g0", random_bimatrix(3, 3, seed=1))
        authority.consult("jane", "g0")
        authority.close()
        authority.close()  # idempotent

        late = BimatrixInventor(
            "late",
            method="support-enumeration",
            backend=BackendPolicy(MODE_NUMPY, chunk_size=32),
        )
        authority.register_inventor(late)
        authority.publish_game(
            "late", "g1", random_bimatrix(12, 12, seed=2)
        )
        outcome = authority.consult("jane", "g1")
        assert outcome.majority.accepted
        authority.close()
        authority.close()
        assert authority.consult("jane", "g0").adopted  # still usable

    def test_context_manager_closes_service_and_inventors(self):
        with RationalityAuthority(seed=5) as authority:
            authority.register_verifiers(standard_procedures())
            inventor = BimatrixInventor("inv", method="support-enumeration")
            authority.register_inventor(inventor)
            authority.register_agent(AuthorityAgent("jane", player_role=0))
            authority.publish_game(
                "inv", "g", random_bimatrix(3, 3, seed=3)
            )
            future = authority.service.submit("jane", "g")
        # Exiting drained the queue before releasing resources.
        assert future.done() and future.result().adopted


class TestDrainAbort:
    def test_keyboard_interrupt_aborts_the_drain_and_fails_futures(self):
        class InterruptingInventor(PureNashInventor):
            def advise(self, game_id, game, agent, privacy):
                raise KeyboardInterrupt

        inventor = InterruptingInventor("rude")
        authority = _authority(inventor, [("pd", prisoners_dilemma())])
        service = authority.service
        first = service.submit("jane", "pd")
        second = service.submit("jane", "pd")
        with pytest.raises(KeyboardInterrupt):
            service.drain()
        # The interrupt propagated immediately (shim semantics), and
        # both outstanding futures were failed, not left hanging.
        assert first.done() and second.done()
        assert isinstance(first.inner.exception(), KeyboardInterrupt)
        assert isinstance(second.inner.exception(), KeyboardInterrupt)


class TestSharedCacheAcrossRuns:
    def test_one_cache_serves_two_authorities(self):
        cache = SolveCache()
        games = _repeat_stream(2, 2, size=3)

        def run():
            inventor = BimatrixInventor(
                "inv", method="support-enumeration"
            )
            authority = _authority(inventor, games)
            service = AuthorityService(authority, solve_cache=cache)
            outcomes = [
                service.submit("jane", gid).result() for gid, __ in games
            ]
            authority.close()
            return outcomes

        first = run()
        second = run()  # fresh authority, same payoffs: all hits
        assert all(o.advice.cache == "miss" for o in first)
        assert all(o.advice.cache == "hit" for o in second)
        assert [o.advice.suggestion for o in first] == [
            o.advice.suggestion for o in second
        ]


class TestBurstLinkAdviser:
    """The online game's burst advising rides the same future pattern."""

    def _loads(self, count=30):
        import random

        rng = random.Random(99)
        return [rng.uniform(0, 100) for _ in range(count)]

    def test_honest_service_matches_session_driver(self):
        loads = self._loads()
        adviser_service = OnlineLinkInventorService(
            4, len(loads), KeyRegistry()
        )
        adviser = BurstLinkAdviser(adviser_service, num_links=4)
        for start in range(0, len(loads), 5):
            futures = [adviser.submit(w) for w in loads[start:start + 5]]
            adviser.drain()
            assert all(f.result().verified for f in futures)
        reference = run_verified_session(
            loads, 4, OnlineLinkInventorService(4, len(loads), KeyRegistry()),
            batch_size=5,
        )
        assert tuple(adviser.loads) == reference.final_loads
        assert adviser.makespan == reference.makespan
        assert adviser.verified_count == len(loads)
        assert adviser.rejected_count == 0

    def test_failed_burst_fails_every_future(self):
        # Over-budget arrivals: the service raises mid-burst; every
        # pending future must resolve (with the error), never hang.
        service = OnlineLinkInventorService(2, 3, KeyRegistry())
        adviser = BurstLinkAdviser(service, num_links=2)
        futures = [adviser.submit(w) for w in (1.0, 2.0, 3.0, 4.0)]
        adviser.drain()
        from repro.errors import GameError

        assert all(f.done() for f in futures)
        assert all(isinstance(f.exception() , GameError) for f in futures)

    def test_devious_inventor_is_caught_and_blamed(self):
        loads = self._loads(40)
        audit = AuditLog()
        service = DeviousLinkInventor(
            3, len(loads), KeyRegistry(), deviate_p=0.5
        )
        adviser = BurstLinkAdviser(service, num_links=3, audit=audit)
        results = []
        for start in range(0, len(loads), 8):
            futures = [adviser.submit(w) for w in loads[start:start + 8]]
            adviser.drain()
            results.extend(f.result() for f in futures)
        assert service.deviations > 0
        assert adviser.rejected_count >= service.deviations
        rejected = [r for r in results if not r.verified]
        assert rejected
        # A rejected suggestion was replaced by the greedy fallback.
        assert audit.blame_counts().get(service.identity, 0) > 0
