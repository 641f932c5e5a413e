"""The deterministic fault-injection harness itself.

The chaos tests lean on this module's guarantees — plans fire on exact
call indices, corruption is seeded, hangs are interruptible, disarmed
hooks are free — so those guarantees get their own direct coverage
before anything uses them against the service.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import FaultInjected, PersistenceError, ProtocolError
from repro.service import faults
from repro.service.faults import FaultPlan, FaultSpec, parse_plan


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            FaultSpec("nonsense", "raise")
        with pytest.raises(ProtocolError):
            FaultSpec("solve", "explode")
        with pytest.raises(ProtocolError):
            FaultSpec("solve", "raise", nth=0)
        with pytest.raises(ProtocolError):
            FaultSpec("solve", "raise", times=-1)
        with pytest.raises(ProtocolError):
            FaultSpec("solve", "hang", seconds=-1.0)
        with pytest.raises(ProtocolError):
            FaultSpec("solve", "raise", error="made-up")

    def test_covers_window(self):
        spec = FaultSpec("solve", "raise", nth=3, times=2)
        assert [spec.covers(i) for i in range(1, 7)] == [
            False, False, True, True, False, False,
        ]
        forever = FaultSpec("solve", "raise", nth=2, times=0)
        assert not forever.covers(1)
        assert forever.covers(2) and forever.covers(100)


class TestParsePlan:
    def test_grammar(self):
        plan = parse_plan(
            "seed=7; solve:raise@3; journal.append:corrupt@2x2;"
            "solve:hang:0.5@1; snapshot.write:raise:oserror@4x*"
        )
        assert plan.seed == 7
        by_point = {(s.point, s.action): s for s in plan.specs}
        assert by_point[("solve", "raise")].nth == 3
        corrupt = by_point[("journal.append", "corrupt")]
        assert (corrupt.nth, corrupt.times) == (2, 2)
        hang = by_point[("solve", "hang")]
        assert hang.seconds == 0.5
        forever = by_point[("snapshot.write", "raise")]
        assert (forever.error, forever.nth, forever.times) == ("oserror", 4, 0)

    def test_rejects_malformed(self):
        for text in (
            "solve", "solve:raise:fault:extra", "solve:raise@x",
            "solve:hang:abc", "solve:corrupt:nope", "solve:raise:nope",
            "seed=abc",
            "unknown.point:raise",
        ):
            with pytest.raises(ProtocolError):
                parse_plan(text)

    def test_empty_clauses_ignored(self):
        plan = parse_plan("; solve:raise@1 ;;")
        assert len(plan.specs) == 1

    def test_screening_has_no_injection_point(self):
        # Screening runs inside the solve; a plan still naming the old
        # pool point is refused rather than silently never firing.
        assert "pool.chunk" not in faults.INJECTION_POINTS
        with pytest.raises(ProtocolError, match="unknown injection point"):
            parse_plan("pool.chunk:raise@1")


class TestFaultPlanFiring:
    def test_fires_on_exact_calls_with_typed_error(self):
        plan = FaultPlan([FaultSpec("solve", "raise", nth=2)])
        plan.apply("solve")  # call 1: clean
        with pytest.raises(FaultInjected):
            plan.apply("solve")  # call 2: fires
        plan.apply("solve")  # call 3: clean again
        assert plan.calls("solve") == 3
        assert [(r.point, r.call) for r in plan.fired] == [("solve", 2)]

    def test_error_dialects(self):
        for name, expected in (
            ("oserror", OSError),
            ("persistence", PersistenceError),
            ("runtime", RuntimeError),
            ("system-exit", SystemExit),
        ):
            plan = FaultPlan([FaultSpec("solve", "raise", error=name)])
            with pytest.raises(expected):
                plan.apply("solve")

    def test_corruption_is_seeded_and_single_bit(self):
        data = b"x" * 64
        plan_a = FaultPlan([FaultSpec("cache.load", "corrupt")], seed=5)
        plan_b = FaultPlan([FaultSpec("cache.load", "corrupt")], seed=5)
        plan_c = FaultPlan([FaultSpec("cache.load", "corrupt")], seed=6)
        out_a = plan_a.apply("cache.load", data)
        out_b = plan_b.apply("cache.load", data)
        out_c = plan_c.apply("cache.load", data)
        assert out_a == out_b  # same seed, same flip
        assert out_a != data
        diff = [i for i in range(64) if out_a[i] != data[i]]
        assert len(diff) == 1
        assert bin(out_a[diff[0]] ^ data[diff[0]]).count("1") == 1
        assert out_c != out_a or out_c == data  # seed matters (almost surely)

    def test_corrupt_ignored_without_bytes(self):
        plan = FaultPlan([FaultSpec("journal.append", "corrupt")])
        assert plan.apply("journal.append") is None

    def test_hang_is_interruptible(self):
        plan = FaultPlan([FaultSpec("solve", "hang", seconds=30.0)])
        started = time.monotonic()
        waiter = threading.Thread(target=plan.apply, args=("solve",))
        waiter.start()
        time.sleep(0.05)
        plan.release_hangs()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert time.monotonic() - started < 5.0


class TestArming:
    def test_disarmed_hooks_are_noops(self):
        assert faults.active() is None
        faults.check("solve")  # nothing armed: no-op
        assert faults.filter_bytes("cache.load", b"abc") == b"abc"

    def test_armed_context_scopes_and_disarms(self):
        with faults.armed("solve:raise@1") as plan:
            assert faults.active() is plan
            with pytest.raises(FaultInjected):
                faults.check("solve")
        assert faults.active() is None
        faults.check("solve")  # disarmed again

    def test_armed_context_wakes_sleepers_on_exit(self):
        started = time.monotonic()
        with faults.armed("solve:hang:30@1") as plan:
            waiter = threading.Thread(target=plan.apply, args=("solve",))
            waiter.start()
            time.sleep(0.05)
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert time.monotonic() - started < 10.0

    def test_arm_from_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "seed=3; verify.conclude:raise@2")
        plan = faults.arm_from_env()
        try:
            assert plan is faults.active()
            assert plan.seed == 3
        finally:
            faults.disarm()
        monkeypatch.setenv(faults.ENV_VAR, "")
        assert faults.arm_from_env() is None

    def test_plan_rejects_non_specs(self):
        with pytest.raises(ProtocolError):
            FaultPlan(["solve:raise"])


def _service():
    from repro.core.actors import AuthorityAgent, BimatrixInventor
    from repro.core.authority import RationalityAuthority
    from repro.core.registry import standard_procedures
    from repro.games.generators import random_bimatrix
    from repro.service import AuthorityService

    authority = RationalityAuthority(seed=3)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(BimatrixInventor("inv"))
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    for i in range(2):
        authority.publish_game(
            "inv", f"g{i}", random_bimatrix(3, 3, seed=8700 + i)
        )
    return authority, AuthorityService(authority)


class TestServiceDialects:
    """How the drain routes each dialect raised by a solve."""

    def test_runtime_error_fails_only_its_consultation(self):
        authority, service = _service()
        with faults.armed("solve:raise:runtime@1"):
            failed = service.submit("jane", "g0")
            healthy = service.submit("jane", "g1")
            service.drain()
        assert isinstance(failed.exception(), RuntimeError)
        assert healthy.result().majority.accepted
        # Nothing to rebuild: the next solve of the same game succeeds.
        assert service.submit("jane", "g0").result().majority.accepted
        service.close()
        authority.close()

    def test_system_exit_fails_outstanding_futures_then_escapes(self):
        authority, service = _service()
        with faults.armed("solve:raise:system-exit@1"):
            first = service.submit("jane", "g0")
            second = service.submit("jane", "g1")
            with pytest.raises(SystemExit):
                service.drain()
        assert isinstance(first.exception(), SystemExit)
        assert isinstance(second.exception(), SystemExit)
        assert service.pending_count == 0
        service.close()
        authority.close()
