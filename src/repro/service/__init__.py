"""The consultation service layer: queue → solve → certify → cache.

A future-based surface over the core authority
(:class:`AuthorityService`: ``submit`` admits one consultation, one
draining thread at a time solves, verifies and concludes each) and
the cross-run fingerprint-keyed :class:`SolveCache` beneath it: one
per authority, which every service over the authority serves.
``AuthorityService(state_dir=)`` keeps that cache across process
lifetimes through one path to disk — the write-behind journal of
:mod:`repro.service.journal`, in the exact, tamper-rejecting format of
:mod:`repro.service.persistence` — and at most one service journals
it.
The synchronous ``RationalityAuthority.consult`` call is a thin shim
over this package.

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
    find_saturation,
    mixed_game_stream,
    poisson_arrivals,
    publish_stream,
    run_load,
    uniform_arrivals,
)
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
    "find_saturation",
    "mixed_game_stream",
    "poisson_arrivals",
    "publish_stream",
    "run_load",
    "uniform_arrivals",
]
