"""The consultation service layer: queue → solve → certify → cache.

An async, future-based surface over the core authority
(:class:`AuthorityService`), the cross-run fingerprint-keyed
:class:`SolveCache` beneath it — persistent across process lifetimes
through the exact, tamper-rejecting on-disk format in
:mod:`repro.service.persistence` — and the future-based burst adapter
for the online parallel-links game.  The synchronous
``RationalityAuthority.consult`` / ``consult_many`` calls are thin
shims over this package.

:mod:`repro.service.load` is the open-loop harness that measures
latency under load and saturation.
"""

from repro.service.cache import CacheStats, SolveCache
from repro.service.faults import (
    FaultPlan,
    FaultSpec,
    arm_fault_plan,
    armed_faults,
    disarm_fault_plan,
    parse_fault_plan,
)
from repro.service.futures import ConsultationFuture
from repro.service.load import (
    ArrivalSchedule,
    LoadReport,
    SaturationResult,
    StreamEntry,
    bursty_arrivals,
    find_saturation,
    mixed_game_stream,
    poisson_arrivals,
    publish_stream,
    run_load,
    uniform_arrivals,
)
from repro.service.online import BurstLinkAdviser, VerifiedLinkAdvice
from repro.service.persistence import (
    FORMAT_NAME,
    SCHEMA_VERSION,
    CacheLoadReport,
    CacheState,
    read_state_file,
    write_state_file,
)
from repro.service.service import AuthorityService

__all__ = [
    "AuthorityService",
    "ConsultationFuture",
    "FaultPlan",
    "FaultSpec",
    "arm_fault_plan",
    "armed_faults",
    "disarm_fault_plan",
    "parse_fault_plan",
    "SolveCache",
    "CacheStats",
    "BurstLinkAdviser",
    "VerifiedLinkAdvice",
    "CacheLoadReport",
    "CacheState",
    "FORMAT_NAME",
    "SCHEMA_VERSION",
    "read_state_file",
    "write_state_file",
    "ArrivalSchedule",
    "LoadReport",
    "SaturationResult",
    "StreamEntry",
    "bursty_arrivals",
    "find_saturation",
    "mixed_game_stream",
    "poisson_arrivals",
    "publish_stream",
    "run_load",
    "uniform_arrivals",
]
