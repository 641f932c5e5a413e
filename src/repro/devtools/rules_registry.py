"""R3/R4 — registry discipline: audit events and fault points.

Every decision is audited and every failure path is injectable — but
both contracts hang on *names*: a typo'd audit event records under a
tag nobody queries, and a fault hook whose point fell out of the
catalogue can never fire.  These rules pin call sites to the two
machine-readable registries:

* **R3** — ``core/audit_events.py`` is the single source of audit-event
  truth.  ``record(...)``/``events_of(...)`` call sites must spell the
  event via an ``EVENT_*`` registry constant (never a raw literal), the
  constant must exist in ``REGISTRY`` with a non-empty description, and
  a registry value spelled as a string literal anywhere else in ``src``
  is flagged (use the constant).
* **R4** — ``service/faults.py``'s ``INJECTION_POINTS`` is the fault
  catalogue.  Literal point names at ``faults.check`` /
  ``faults.filter_bytes`` / ``faults.apply`` call sites (and
  ``FaultSpec(...)`` constructions) must appear in the catalogue, and
  every catalogue point must be referenced by at least one call site in
  the scanned tree — an unreferenced point is a chaos test that can
  never fire.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.config import LintConfig
from repro.devtools.engine import Finding, ParsedModule, Rule, SEVERITY_ERROR


def _load_default_audit_registry() -> tuple[dict[str, str], dict[str, str]]:
    """(constants: EVENT_NAME -> value, registry: value -> description)."""
    from repro.core import audit_events

    constants = {
        name: getattr(audit_events, name)
        for name in dir(audit_events)
        if name.startswith("EVENT_")
        and isinstance(getattr(audit_events, name), str)
    }
    return constants, dict(audit_events.REGISTRY)


def _load_default_fault_catalogue() -> tuple[str, ...]:
    from repro.service import faults

    return tuple(faults.INJECTION_POINTS)


def _receiver_tail(node: ast.AST) -> str | None:
    """The last name component of an attribute chain (``a.b.c`` -> c)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class AuditEventRegistryRule(Rule):
    rule_id = "R3"
    name = "audit-event-registry"
    rationale = (
        "audit events are spelled via core/audit_events.py constants; "
        "every constant is registered and documented"
    )
    severity = SEVERITY_ERROR

    def __init__(self, config: LintConfig,
                 constants: dict[str, str] | None = None,
                 registry: dict[str, str] | None = None):
        self.config = config
        if constants is None or registry is None:
            constants, registry = _load_default_audit_registry()
        self.constants = constants
        self.registry = registry
        self.registry_values = set(registry)
        self._registry_module_seen: ParsedModule | None = None

    # -- per module ----------------------------------------------------

    def visit_module(self, module: ParsedModule) -> Iterable[Finding]:
        if module.relpath == self.config.audit_registry_module:
            self._registry_module_seen = module
            return []
        findings: list[Finding] = []
        event_args: set[ast.AST] = set()

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            arg = self._event_argument(node)
            if arg is None:
                continue
            event_args.add(arg)
            findings.extend(self._check_event_arg(module, arg))

        # Registry values spelled as literals outside an event argument
        # (a dict of counters, a test helper, a stray comparison) —
        # still a literal where a constant belongs.
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value in self.registry_values
                    and node not in event_args):
                findings.append(module.finding(
                    self.rule_id, self.severity, node,
                    f"registered audit event {node.value!r} spelled as "
                    "a raw literal — use the audit_events constant"))
        return findings

    def _event_argument(self, call: ast.Call) -> ast.AST | None:
        """The event argument of an audit call, if this is one."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr == "events_of" and call.args:
            return call.args[0]
        if func.attr == "record":
            # AuditLog.record(session_id, actor, event, **details);
            # only treat receivers that look like an audit log, so a
            # transcript.record(...) with a different signature is not
            # misread.
            tail = _receiver_tail(func.value)
            if tail in ("audit", "_audit", "audit_log", "log"):
                if len(call.args) >= 3:
                    return call.args[2]
                for keyword in call.keywords:
                    if keyword.arg == "event":
                        return keyword.value
        return None

    def _check_event_arg(self, module: ParsedModule,
                         arg: ast.AST) -> Iterable[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if arg.value in self.registry_values:
                message = (f"audit event {arg.value!r} passed as a raw "
                           "literal — use the audit_events constant")
            else:
                message = (f"unknown audit event {arg.value!r} — "
                           "register it in core/audit_events.py")
            return [module.finding(self.rule_id, self.severity, arg, message)]
        name = _receiver_tail(arg)
        if name is not None and name.startswith("EVENT_"):
            if name not in self.constants:
                return [module.finding(
                    self.rule_id, self.severity, arg,
                    f"audit event constant {name} is not defined in "
                    "core/audit_events.py")]
            if self.constants[name] not in self.registry:
                return [module.finding(
                    self.rule_id, self.severity, arg,
                    f"audit event constant {name} is missing from the "
                    "REGISTRY catalogue")]
        return []

    # -- whole tree ----------------------------------------------------

    def finalize(self) -> Iterable[Finding]:
        findings: list[Finding] = []
        module = self._registry_module_seen
        for name, value in sorted(self.constants.items()):
            problem = None
            if value not in self.registry:
                problem = (f"{name} = {value!r} is not documented in "
                           "REGISTRY")
            elif not str(self.registry[value]).strip():
                problem = (f"{name} = {value!r} has an empty REGISTRY "
                           "description")
            if problem is None:
                continue
            if module is not None:
                line = _find_constant_line(module, name)
                findings.append(module.finding(
                    self.rule_id, self.severity, line, problem))
            else:
                findings.append(Finding(
                    rule=self.rule_id, severity=self.severity,
                    path=self.config.audit_registry_module, line=1,
                    col=0, message=problem))
        return findings


class FaultPointRegistryRule(Rule):
    rule_id = "R4"
    name = "fault-point-registry"
    rationale = (
        "every faults.hook call-site name is in the faults.py "
        "catalogue and every catalogue point has a call site"
    )
    severity = SEVERITY_ERROR

    _HOOKS = ("check", "filter_bytes", "apply")

    def __init__(self, config: LintConfig,
                 catalogue: tuple[str, ...] | None = None):
        self.config = config
        self.catalogue = (
            catalogue if catalogue is not None
            else _load_default_fault_catalogue()
        )
        self.seen_points: set[str] = set()
        self._registry_module_seen: ParsedModule | None = None

    def visit_module(self, module: ParsedModule) -> Iterable[Finding]:
        is_registry = module.relpath == self.config.fault_registry_module
        if is_registry:
            self._registry_module_seen = module
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            point_arg = self._point_argument(node)
            if point_arg is None:
                continue
            if not (isinstance(point_arg, ast.Constant)
                    and isinstance(point_arg.value, str)):
                continue
            point = point_arg.value
            if point not in self.catalogue:
                findings.append(module.finding(
                    self.rule_id, self.severity, point_arg,
                    f"fault point {point!r} is not in the "
                    "INJECTION_POINTS catalogue"))
            elif not is_registry:
                self.seen_points.add(point)
        if not is_registry:
            # Any literal equal to a catalogue point counts as coverage
            # for the reverse check: hooks are sometimes reached through
            # tiny wrappers whose call sites still spell the point by
            # name.
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and node.value in self.catalogue):
                    self.seen_points.add(node.value)
        return findings

    def _point_argument(self, call: ast.Call) -> ast.AST | None:
        func = call.func
        if isinstance(func, ast.Attribute):
            tail = _receiver_tail(func.value)
            if (func.attr in self._HOOKS
                    and tail is not None and "fault" in tail.lower()):
                return call.args[0] if call.args else None
        if isinstance(func, ast.Name) and func.id == "FaultSpec":
            if call.args:
                return call.args[0]
            for keyword in call.keywords:
                if keyword.arg == "point":
                    return keyword.value
        return None

    def finalize(self) -> Iterable[Finding]:
        findings: list[Finding] = []
        module = self._registry_module_seen
        for point in self.catalogue:
            if point in self.seen_points:
                continue
            message = (f"injection point {point!r} has no call site in "
                       "the scanned tree — dead catalogue entry")
            if module is not None:
                line = _find_literal_line(module, point)
                findings.append(module.finding(
                    self.rule_id, self.severity, line, message))
            else:
                findings.append(Finding(
                    rule=self.rule_id, severity=self.severity,
                    path=self.config.fault_registry_module, line=1,
                    col=0, message=message))
        return findings


def _find_constant_line(module: ParsedModule, name: str) -> int:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.lineno
    return 1


def _find_literal_line(module: ParsedModule, value: str) -> int:
    for node in ast.walk(module.tree):
        if (isinstance(node, ast.Constant) and node.value == value
                and getattr(node, "lineno", None)):
            return node.lineno
    return 1
