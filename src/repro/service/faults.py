"""Deterministic fault injection for the service/server stack.

The paper's authority must stay trustworthy when *participants*
misbehave; this module is the operational counterpart — the stack must
degrade predictably when the *infrastructure* misbehaves: a solver that
wedges or throws, a verification step that crashes, a disk that refuses
or corrupts writes, a pump iteration that throws.  A :class:`FaultPlan`
scripts such failures exactly — which injection point, which call,
which action — so a chaos test is as reproducible as any other seeded
test: the same plan against the same stream fails in the same place
every run.

**Injection points.**  A small closed catalogue, each one a named line
the production code already crosses:

======================  ================================================
``solve``               the drain's solve stage (cache lookup + search),
                        :meth:`AuthorityService._stage_solve`
``verify.conclude``     the verify/conclude stage, on the draining thread
``journal.append``      the write-behind journal's durable append
``snapshot.write``      the atomic whole-file write (a journal
                        compaction, or a fresh journal's header)
``cache.load``          reading a state file's bytes from disk
``pump.iteration``      one iteration of the HTTP server's drain pump
======================  ================================================

**Actions.**  ``raise`` (a chosen exception type), ``hang`` (a bounded
sleep — interruptible by :func:`disarm`, so an abandoned sleeper never
outlives a test), and ``corrupt`` (deterministically flip one bit of
the bytes passing through the point — only meaningful at byte-carrying
points, ignored elsewhere).  Every spec fires on its *nth* call to the
point and for a configurable number of consecutive calls, so a plan can
say "the third solve raises, the first two journal flushes write
corrupt frames, everything else is healthy".

**Arming.**  Programmatic — :func:`arm` / :func:`disarm` /
``with armed(plan):`` — or via the environment: ``REPRO_FAULT_PLAN``
holds a compact plan string (see :func:`parse_plan`) and is read once
at import, so a *child process* (the crash-recovery harnesses spawn
real servers) starts life with the plan armed.

**Disarmed cost.**  The production call sites are
``faults.check(point)`` / ``faults.filter_bytes(point, data)``; when no
plan is armed both are a module-global load and an ``is None`` test —
no dict lookups, no string matching, nothing seeded.  The
``benchmarks/check_chaos_regression.py`` gate holds each hook to under
1.10 times the cost of that promised body, timed beside it.
"""

from __future__ import annotations

import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import FaultInjected, PersistenceError, ProtocolError

#: The environment variable holding a compact plan (see parse_plan).
ENV_VAR = "REPRO_FAULT_PLAN"

#: The closed catalogue of injection points.
INJECTION_POINTS = (
    "solve",
    "verify.conclude",
    "journal.append",
    "snapshot.write",
    "cache.load",
    "pump.iteration",
)

#: The supported actions.
ACTIONS = ("raise", "hang", "corrupt")

#: Injection points whose call sites carry bytes (corrupt is meaningful).
BYTE_POINTS = ("journal.append", "snapshot.write", "cache.load")


#: Named exception types a ``raise`` spec may choose.  ``fault`` (the
#: default) is the typed chaos error; the rest let a plan speak each
#: subsystem's native failure dialect — ``runtime`` an ordinary
#: ``Exception`` routed into the failing consultation's future,
#: ``oserror`` a disk failure, which the journal compacts over at once,
#: ``system-exit`` a crash that escapes ``except Exception`` routing
#: (the drain fails every outstanding future, then re-raises).
_ERROR_FACTORIES = {
    "fault": lambda: FaultInjected,
    "runtime": lambda: RuntimeError,
    "oserror": lambda: OSError,
    "persistence": lambda: PersistenceError,
    "system-exit": lambda: SystemExit,
}


@dataclass(frozen=True)
class FaultSpec:
    """One scripted failure: *point*, *action*, and when it fires.

    ``nth`` is the 1-based call index at which the spec starts firing;
    ``times`` is how many consecutive calls it covers (``0`` means
    every call from ``nth`` on).  ``seconds`` bounds a ``hang``;
    ``error`` names the exception type a ``raise`` throws.
    """

    point: str
    action: str
    nth: int = 1
    times: int = 1
    seconds: float = 0.01
    error: str = "fault"

    def __post_init__(self):
        if self.point not in INJECTION_POINTS:
            raise ProtocolError(
                f"unknown injection point {self.point!r} "
                f"(catalogue: {', '.join(INJECTION_POINTS)})"
            )
        if self.action not in ACTIONS:
            raise ProtocolError(f"unknown fault action {self.action!r}")
        if self.nth < 1:
            raise ProtocolError("fault nth is 1-based and must be >= 1")
        if self.times < 0:
            raise ProtocolError("fault times must be >= 0 (0 = forever)")
        if self.seconds < 0:
            raise ProtocolError("hang seconds must be non-negative")
        if self.action == "raise" and self.error not in _ERROR_FACTORIES:
            raise ProtocolError(
                f"unknown fault error {self.error!r} "
                f"(known: {', '.join(sorted(_ERROR_FACTORIES))})"
            )

    def covers(self, call: int) -> bool:
        """Whether this spec fires on the point's ``call``-th hit."""
        if call < self.nth:
            return False
        return self.times == 0 or call < self.nth + self.times


@dataclass
class FaultRecord:
    """One firing, for a test's assertions (``plan.fired``)."""

    point: str
    action: str
    call: int


class FaultPlan:
    """A seeded, deterministic script of injected failures.

    Thread-safe: call counters are kept under a lock (injection points
    are hit from the drain thread, the deadline watchdog and the
    server's executor threads at once), and hangs
    sleep on an event that :func:`disarm` sets — a plan never strands a
    sleeper past its own lifetime.
    """

    def __init__(self, specs, seed: int = 0):
        self.specs = tuple(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ProtocolError(f"not a FaultSpec: {spec!r}")
        self.seed = seed
        self._lock = threading.Lock()
        self._calls = {point: 0 for point in INJECTION_POINTS}
        #: Every firing, in order (telemetry for test assertions).
        self.fired: list[FaultRecord] = []
        self._release = threading.Event()

    def calls(self, point: str) -> int:
        """How many times ``point`` has been hit under this plan."""
        with self._lock:
            return self._calls[point]

    def release_hangs(self) -> None:
        """Wake every in-flight (and future) hang immediately."""
        self._release.set()

    def apply(self, point: str, data: bytes | None = None) -> bytes | None:
        """Count one hit of ``point`` and run whatever specs fire.

        Returns ``data`` (possibly corrupted).  ``raise`` specs raise;
        ``hang`` specs sleep (bounded, interruptible); ``corrupt``
        specs flip one seeded bit of ``data`` and are ignored when the
        point carries no bytes.
        """
        with self._lock:
            self._calls[point] += 1
            call = self._calls[point]
            due = [spec for spec in self.specs
                   if spec.point == point and spec.covers(call)]
            for spec in due:
                self.fired.append(FaultRecord(point, spec.action, call))
        for spec in due:
            if spec.action == "hang":
                self._release.wait(spec.seconds)
            elif spec.action == "corrupt":
                if data:
                    data = self._corrupt(point, call, data)
            else:  # raise
                error = _ERROR_FACTORIES[spec.error]()
                raise error(
                    f"injected fault at {point!r} (call {call})"
                )
        return data

    def _corrupt(self, point: str, call: int, data: bytes) -> bytes:
        """Flip one deterministic bit of ``data`` (seed, point, call)."""
        rng = random.Random(f"{self.seed}:{point}:{call}")
        position = rng.randrange(len(data))
        bit = 1 << rng.randrange(8)
        mutated = bytearray(data)
        mutated[position] ^= bit
        return bytes(mutated)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, specs={len(self.specs)})"


def parse_plan(text: str) -> FaultPlan:
    """Parse the compact ``REPRO_FAULT_PLAN`` grammar into a plan.

    Clauses are ``;``-separated.  ``seed=<int>`` sets the corruption
    seed; every other clause is::

        point:action[:param][@nth[x(times|*)]]

    where ``param`` is the hang's seconds or the raise's error name,
    ``@nth`` is the 1-based call to start firing on (default 1) and
    ``x<times>`` the consecutive-call count (default 1; ``x*`` means
    every call from ``nth`` on).  Examples::

        solve:raise@3                   third solve raises FaultInjected
        solve:hang:30@1                 first solve wedges for 30s
        journal.append:corrupt@2x2      flushes 2 and 3 write torn frames
        snapshot.write:raise:oserror@1  first snapshot hits a dead disk
    """
    specs = []
    seed = 0
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("seed="):
            try:
                seed = int(clause[len("seed="):])
            except ValueError:
                raise ProtocolError(f"bad fault-plan seed: {clause!r}") \
                    from None
            continue
        body, at, schedule = clause.partition("@")
        nth, times = 1, 1
        if at:
            count, x, repeat = schedule.partition("x")
            try:
                nth = int(count)
                if x:
                    times = 0 if repeat == "*" else int(repeat)
            except ValueError:
                raise ProtocolError(
                    f"bad fault-plan schedule in {clause!r}"
                ) from None
        parts = body.split(":")
        if len(parts) < 2 or len(parts) > 3:
            raise ProtocolError(f"bad fault-plan clause {clause!r}")
        point, action = parts[0], parts[1]
        kwargs: dict = {"point": point, "action": action,
                        "nth": nth, "times": times}
        if len(parts) == 3:
            if action == "hang":
                try:
                    kwargs["seconds"] = float(parts[2])
                except ValueError:
                    raise ProtocolError(
                        f"bad hang seconds in {clause!r}"
                    ) from None
            elif action == "raise":
                kwargs["error"] = parts[2]
            else:
                raise ProtocolError(
                    f"corrupt takes no parameter ({clause!r})"
                )
        specs.append(FaultSpec(**kwargs))
    return FaultPlan(specs, seed=seed)


# ----------------------------------------------------------------------
# Module-level arming — THE hot-path contract
# ----------------------------------------------------------------------
#
# _PLAN is the single global the production call sites read.  Disarmed,
# check()/filter_bytes() are one global load and one identity test;
# nothing else runs.

_PLAN: FaultPlan | None = None


def arm(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process-wide active fault plan."""
    global _PLAN
    _PLAN = plan
    return plan


def disarm() -> FaultPlan | None:
    """Deactivate the current plan (waking its sleepers); returns it."""
    global _PLAN
    plan, _PLAN = _PLAN, None
    if plan is not None:
        plan.release_hangs()
    return plan


def active() -> FaultPlan | None:
    """The armed plan, or ``None``."""
    return _PLAN


@contextmanager
def armed(plan: FaultPlan | str):
    """Scoped arming for tests: always disarms (and wakes sleepers)."""
    if isinstance(plan, str):
        plan = parse_plan(plan)
    arm(plan)
    try:
        yield plan
    finally:
        if _PLAN is plan:
            disarm()
        else:  # pragma: no cover - a nested arm replaced us
            plan.release_hangs()


def check(point: str) -> None:
    """Hit a byte-less injection point (raise/hang if scripted)."""
    plan = _PLAN
    if plan is not None:
        plan.apply(point)


def filter_bytes(point: str, data: bytes) -> bytes:
    """Hit a byte-carrying injection point; returns (possibly
    corrupted) ``data``."""
    plan = _PLAN
    if plan is not None:
        return plan.apply(point, data)
    return data


def arm_from_env() -> FaultPlan | None:
    """Arm from ``REPRO_FAULT_PLAN`` when set (import-time hook)."""
    text = os.environ.get(ENV_VAR, "").strip()
    if not text:
        return None
    return arm(parse_plan(text))


arm_from_env()

# Unambiguous aliases for the package-level (repro.service) exports —
# ``arm``/``armed`` are clear as ``faults.arm``, too generic bare.
arm_fault_plan = arm
disarm_fault_plan = disarm
armed_faults = armed
parse_fault_plan = parse_plan
