"""Lint configuration: which discipline applies to which modules.

The rules are generic visitors; this module pins them to the repo's
actual layout.  Paths are posix-style and relative to the scan root
(``src/`` in the real tree), so ``repro/linalg/exact.py`` names the
exact kernel and ``repro/proofs/`` names the whole proof package.  A
prefix ending in ``/`` scopes a package; anything else must match the
file exactly.

Tests construct ad-hoc configs pointed at fixture files; the repo run
uses :func:`default_config`.
"""

from __future__ import annotations

from dataclasses import dataclass


def _matches(relpath: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        relpath.startswith(p) if p.endswith("/") else relpath == p
        for p in prefixes
    )


@dataclass(frozen=True)
class LintConfig:
    """Scope knobs for the repo-specific rules."""

    #: R1: modules on the certify path — no float literals, float()
    #: calls, or math.* anywhere (the integer-lattice rule: searching
    #: may float, certification must not).
    certify_modules: tuple[str, ...] = ()
    #: R1: the integer kernels, where even true division ``/`` is
    #: banned (exactness rests on checked integer division; Fractions
    #: appear only at the boundary, built without ``/``).
    integer_kernel_modules: tuple[str, ...] = ()
    #: R2: modules allowed to read wall clocks or construct RNGs —
    #: the seeded-randomness helper itself plus telemetry/scheduling
    #: sites whose readings never enter results.
    determinism_exempt: tuple[str, ...] = ()
    #: R3: the module that *defines* the audit-event registry (its own
    #: literals are the declarations, not violations).
    audit_registry_module: str = "repro/core/audit_events.py"
    #: R4: the module holding the fault-point catalogue.
    fault_registry_module: str = "repro/service/faults.py"
    #: R5: packages whose lock discipline is checked.
    lock_scope: tuple[str, ...] = ()
    #: R5: classes whose shared attributes must only be written under
    #: a lock once __init__ has returned.
    guarded_classes: tuple[str, ...] = ()

    def in_certify_path(self, relpath: str) -> bool:
        return _matches(relpath, self.certify_modules)

    def in_integer_kernel(self, relpath: str) -> bool:
        return _matches(relpath, self.integer_kernel_modules)

    def determinism_exempted(self, relpath: str) -> bool:
        return _matches(relpath, self.determinism_exempt)

    def in_lock_scope(self, relpath: str) -> bool:
        return _matches(relpath, self.lock_scope)


def default_config() -> LintConfig:
    """The repository's own scoping of the five disciplines."""
    return LintConfig(
        certify_modules=(
            "repro/linalg/exact.py",
            "repro/linalg/int_exact.py",
            "repro/linalg/int_lp.py",
            "repro/equilibria/mixed.py",
            "repro/interactive/p1.py",
            "repro/proofs/",
        ),
        integer_kernel_modules=(
            "repro/linalg/int_exact.py",
            "repro/linalg/int_lp.py",
        ),
        determinism_exempt=(
            # The seeded-randomness front door.
            "repro/rng.py",
            # Telemetry and scheduling: wall times measured here go to
            # audit records, latency percentiles and deadline math —
            # never into advice, proofs, or cache state.
            "repro/service/",
            "repro/server/",
            "repro/core/actors.py",
            "repro/core/session.py",
        ),
        lock_scope=(
            "repro/service/",
            "repro/server/",
            "repro/core/",
        ),
        guarded_classes=(
            "AuthorityService",
            "SolveCache",
            "AuditLog",
        ),
    )
