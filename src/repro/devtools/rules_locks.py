"""R5 — the lock discipline of the threaded service core.

The shared state (``AuditLog``, ``MessageBus``, ``ReputationStore``),
the admission condition and the deadline workers all carry locks, and
the discipline that keeps them deadlock- and race-free used to live in
reviewer memory.  R5 recovers it statically:

* **lock inventory** — ``self.x = threading.Lock()/RLock()`` attributes
  per class, with ``threading.Condition(self.y)`` recognized as an
  *alias* of ``y`` (acquiring the condition is acquiring the lock);
* **acquisition order** — within each class, ``with self.a:`` blocks
  that acquire ``self.b`` while holding ``self.a`` contribute an
  ``a → b`` edge; a pair of sites that acquire the same two locks in
  opposite orders is a lock-inversion finding (ABBA deadlock);
* **re-entry** — acquiring a non-reentrant lock (or an alias of one)
  that is already held on the same syntactic path is a self-deadlock
  finding;
* **guarded writes** — for the classes named in the config
  (``AuthorityService``, ``SolveCache``, ``AuditLog``): any attribute
  that is ever written under a lock in a non-``__init__`` method is a
  *shared* attribute, and every write to it outside a lock context
  (again outside ``__init__``) is flagged.

The analysis is intra-procedural by design: it sees ``with`` blocks and
``acquire()``/``release()`` pairs inside one method, not lock flow
through calls.  That bounds both its cost and its false positives; the
cross-method protocols (drain-lock-then-headroom, the deadline-task
claim) are pinned by the runtime chaos suites instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.devtools.config import LintConfig
from repro.devtools.engine import Finding, ParsedModule, Rule, SEVERITY_ERROR

_LOCK_FACTORIES = ("Lock", "RLock")


@dataclass
class _ClassLocks:
    """The lock inventory of one class."""

    module: ParsedModule
    name: str
    locks: dict[str, bool] = field(default_factory=dict)  # attr -> reentrant
    aliases: dict[str, str] = field(default_factory=dict)  # condition -> lock

    def canonical(self, attr: str) -> str | None:
        if attr in self.aliases:
            return self.aliases[attr]
        if attr in self.locks:
            return attr
        return None

    def reentrant(self, attr: str) -> bool:
        return self.locks.get(attr, False)


@dataclass(frozen=True)
class _Site:
    module: ParsedModule
    node: ast.AST

    @property
    def where(self) -> str:
        return f"{self.module.relpath}:{getattr(self.node, 'lineno', 1)}"


class LockDisciplineRule(Rule):
    rule_id = "R5"
    name = "lock-discipline"
    rationale = (
        "consistent lock acquisition order and no unlocked writes to "
        "shared service/cache/audit state"
    )
    severity = SEVERITY_ERROR

    def __init__(self, config: LintConfig):
        self.config = config
        self._modules: list[ParsedModule] = []

    def visit_module(self, module: ParsedModule) -> Iterable[Finding]:
        if self.config.in_lock_scope(module.relpath):
            self._modules.append(module)
        return []

    # ------------------------------------------------------------------

    def finalize(self) -> Iterable[Finding]:
        findings: list[Finding] = []
        inventories: list[tuple[_ClassLocks, ast.ClassDef]] = []
        for module in self._modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    inventory = _collect_locks(module, node)
                    if inventory.locks:
                        inventories.append((inventory, node))

        for inventory, classdef in inventories:
            analyzer = _ClassAnalyzer(inventory, classdef)
            analyzer.run()
            findings.extend(self._order_findings(analyzer))
            findings.extend(analyzer.reentry_findings)
            if inventory.name in self.config.guarded_classes:
                findings.extend(self._guarded_write_findings(analyzer))
        return findings

    def _order_findings(self, analyzer: "_ClassAnalyzer"):
        reported: set[frozenset[str]] = set()
        for (outer, inner), sites in sorted(analyzer.edges.items()):
            reverse = analyzer.edges.get((inner, outer))
            if not reverse:
                continue
            pair = frozenset((outer, inner))
            if pair in reported:
                continue
            reported.add(pair)
            site = sites[0]
            other = reverse[0]
            yield site.module.finding(
                self.rule_id, self.severity, site.node,
                f"{analyzer.inventory.name}: locks {outer!r} and "
                f"{inner!r} are acquired in both orders "
                f"(here {outer}->{inner}; {other.where} takes "
                f"{inner}->{outer}) — ABBA deadlock")

    def _guarded_write_findings(self, analyzer: "_ClassAnalyzer"):
        shared = {
            attr for attr, writes in analyzer.writes.items()
            if any(held for held, _ in writes)
        }
        for attr in sorted(shared):
            for held, site in analyzer.writes[attr]:
                if held:
                    continue
                yield site.module.finding(
                    self.rule_id, self.severity, site.node,
                    f"{analyzer.inventory.name}.{attr} is written "
                    "without holding a lock, but other sites guard it "
                    "— racy unless this path is provably "
                    "single-threaded")


def _collect_locks(module: ParsedModule, classdef: ast.ClassDef) -> _ClassLocks:
    inventory = _ClassLocks(module=module, name=classdef.name)
    for node in ast.walk(classdef):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            continue
        value = node.value
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id == "threading"):
            continue
        factory = value.func.attr
        if factory in _LOCK_FACTORIES:
            inventory.locks[target.attr] = factory == "RLock"
        elif factory == "Condition":
            arg = value.args[0] if value.args else None
            if (isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "self"):
                inventory.aliases[target.attr] = arg.attr
            else:
                # Condition() owns a private lock: a lock in its own
                # right under the condition's attribute name.
                inventory.locks[target.attr] = False
    return inventory


class _ClassAnalyzer:
    """Walk one class's methods tracking held locks syntactically."""

    def __init__(self, inventory: _ClassLocks, classdef: ast.ClassDef):
        self.inventory = inventory
        self.classdef = classdef
        #: (outer, inner) -> acquisition sites
        self.edges: dict[tuple[str, str], list[_Site]] = {}
        self.reentry_findings: list[Finding] = []
        #: attr -> [(held-under-lock?, site), ...] from non-init methods
        self.writes: dict[str, list[tuple[bool, _Site]]] = {}

    def run(self) -> None:
        for node in self.classdef.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                init = node.name in ("__init__", "__post_init__")
                self._walk_block(node.body, held=[], init=init)

    # -- statement walking --------------------------------------------

    def _walk_block(self, statements: list[ast.stmt], held: list[str],
                    init: bool) -> None:
        acquired_here: list[str] = []
        for statement in statements:
            released = self._explicit_release(statement)
            if released is not None and released in acquired_here:
                acquired_here.remove(released)
                continue
            acquired = self._explicit_acquire(statement)
            if acquired is not None:
                self._note_acquisition(
                    acquired, held + acquired_here, statement)
                acquired_here.append(acquired)
                continue
            self._walk_statement(statement, held + acquired_here, init)

    def _walk_statement(self, statement: ast.stmt, held: list[str],
                        init: bool) -> None:
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            entered: list[str] = []
            for item in statement.items:
                lock = self._lock_attr(item.context_expr)
                if lock is not None:
                    self._note_acquisition(
                        lock, held + entered, item.context_expr)
                    entered.append(lock)
                else:
                    self._scan_expressions(item.context_expr, held, init)
            self._walk_block(statement.body, held + entered, init)
            return
        if isinstance(statement,
                      (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes run later, on unknown threads
        # Record attribute writes on this statement before descending.
        self._note_writes(statement, held, init)
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.stmt):
                self._walk_statement(child, held, init)
            elif isinstance(child, list):  # pragma: no cover - ast quirk
                pass
        for block_name in ("body", "orelse", "finalbody", "handlers"):
            blocks = getattr(statement, block_name, None)
            if isinstance(blocks, list):
                for entry in blocks:
                    if isinstance(entry, ast.ExceptHandler):
                        self._walk_block(entry.body, held, init)
        # Note: ast.iter_child_nodes already yielded the statements of
        # body/orelse/finalbody, so the loop above only adds except
        # handler bodies (which iter_child_nodes yields as handlers,
        # not statements).

    def _scan_expressions(self, node: ast.AST, held: list[str],
                          init: bool) -> None:
        del node, held, init  # non-lock context managers carry no locks

    # -- helpers -------------------------------------------------------

    def _lock_attr(self, expr: ast.AST) -> str | None:
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            return self.inventory.canonical(expr.attr)
        return None

    def _explicit_acquire(self, statement: ast.stmt) -> str | None:
        call = self._lock_method_call(statement, "acquire")
        return call

    def _explicit_release(self, statement: ast.stmt) -> str | None:
        return self._lock_method_call(statement, "release")

    def _lock_method_call(self, statement: ast.stmt,
                          method: str) -> str | None:
        if not isinstance(statement, ast.Expr):
            return None
        call = statement.value
        if not (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == method):
            return None
        return self._lock_attr(call.func.value)

    def _note_acquisition(self, lock: str, held: list[str],
                          node: ast.AST) -> None:
        site = _Site(self.inventory.module, node)
        if lock in held and not self.inventory.reentrant(lock):
            self.reentry_findings.append(self.inventory.module.finding(
                LockDisciplineRule.rule_id, SEVERITY_ERROR, node,
                f"{self.inventory.name}: lock {lock!r} is acquired "
                "while already held on this path (non-reentrant) — "
                "self-deadlock"))
            return
        for outer in held:
            if outer != lock:
                self.edges.setdefault((outer, lock), []).append(site)

    def _note_writes(self, statement: ast.stmt, held: list[str],
                     init: bool) -> None:
        if init:
            return
        targets: list[ast.AST] = []
        if isinstance(statement, ast.Assign):
            targets = list(statement.targets)
        elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
            targets = [statement.target]
        for target in targets:
            for node in ast.walk(target):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and self.inventory.canonical(node.attr) is None):
                    self.writes.setdefault(node.attr, []).append(
                        (bool(held),
                         _Site(self.inventory.module, node)))
