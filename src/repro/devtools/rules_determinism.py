"""R2 — the determinism discipline: bit-identical replay is a feature.

Warm cache state must be bit-identical across restarts, and screening
must return the same set in the same order on every run.  Code that
reads wall clocks or ambient randomness on a result path breaks both
silently.  R2 flags:

* wall-clock reads — ``time.time`` / ``time.time_ns`` /
  ``datetime.now`` / ``datetime.utcnow`` / ``datetime.today`` — outside
  the telemetry-whitelisted modules (where wall times feed audit
  records and deadline math, never results);
* ambient randomness — module-level ``random.random()`` /
  ``random.choice`` / etc., and ``random.Random()`` constructed with
  no seed — anywhere outside :mod:`repro.rng`, the seeded front door;
* iteration over bare ``set`` expressions (``for x in {…}`` /
  ``set(…)`` / set comprehensions, and the same in comprehension
  ``for`` clauses) — set order is salted per process, so anything
  order-sensitive built from it diverges between runs; iterate a
  ``sorted(...)`` view instead.

``time.monotonic`` / ``time.perf_counter`` are deliberately allowed
everywhere: they cannot leak absolute wall time into a result, and the
scheduling/telemetry layers lean on them.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.devtools.config import LintConfig
from repro.devtools.engine import Finding, ParsedModule, Rule, SEVERITY_ERROR

_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
}

_AMBIENT_RANDOM_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "expovariate",
    "getrandbits", "randbytes",
}


class DeterminismRule(Rule):
    rule_id = "R2"
    name = "determinism"
    rationale = (
        "no wall clocks, ambient randomness, or set-order dependence "
        "on result paths (bit-identical replay)"
    )
    severity = SEVERITY_ERROR

    def __init__(self, config: LintConfig):
        self.config = config

    def visit_module(self, module: ParsedModule) -> Iterable[Finding]:
        findings: list[Finding] = []
        exempt = self.config.determinism_exempted(module.relpath)

        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(module, node, exempt))
            elif isinstance(node, ast.For):
                findings.extend(
                    self._check_set_iteration(module, node.iter))
            elif isinstance(node, ast.comprehension):
                findings.extend(
                    self._check_set_iteration(module, node.iter))
        return findings

    # -- calls ---------------------------------------------------------

    def _check_call(self, module: ParsedModule, node: ast.Call,
                    exempt: bool) -> Iterable[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return []
        base = func.value
        if not isinstance(base, ast.Name):
            return []
        pair = (base.id, func.attr)
        if pair in _WALL_CLOCK and not exempt:
            return [module.finding(
                self.rule_id, self.severity, node,
                f"wall-clock read {base.id}.{func.attr}() outside the "
                "telemetry whitelist")]
        if base.id == "random":
            if func.attr in _AMBIENT_RANDOM_FUNCS and not exempt:
                return [module.finding(
                    self.rule_id, self.severity, node,
                    f"ambient randomness random.{func.attr}() — draw "
                    "from a seeded generator (repro.rng) instead")]
            if func.attr == "Random" and not node.args and not node.keywords:
                # Unseeded Random() seeds itself from the OS: flagged
                # even in exempt modules (nothing telemetry-ish about
                # it).
                return [module.finding(
                    self.rule_id, self.severity, node,
                    "unseeded random.Random() — pass an explicit seed "
                    "(repro.rng.make_rng)")]
        return []

    # -- set iteration -------------------------------------------------

    def _check_set_iteration(self, module: ParsedModule,
                             iter_node: ast.AST) -> Iterable[Finding]:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            return [module.finding(
                self.rule_id, self.severity, iter_node,
                "iteration over a set expression (salted order) — "
                "iterate sorted(...) instead")]
        if (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Name)
                and iter_node.func.id in ("set", "frozenset")):
            return [module.finding(
                self.rule_id, self.severity, iter_node,
                f"iteration over a bare {iter_node.func.id}(...) "
                "(salted order) — iterate sorted(...) instead")]
        return []
