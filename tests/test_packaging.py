"""Package discovery: setup.py's explicit lists match the tree.

The declarations are explicit so that adding a package or a dependency
is a conscious, reviewed act — these tests are what make forgetting
either impossible.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_setup_module():
    """Import setup.py as a module without running setup()."""
    spec = importlib.util.spec_from_file_location(
        "repro_setup", REPO_ROOT / "setup.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_declared_packages_match_discovered():
    setup_module = _load_setup_module()
    declared = sorted(setup_module.PACKAGES)
    discovered = sorted(setup_module.discover_packages())
    assert declared == discovered, (
        "setup.py PACKAGES is out of sync with src/: "
        f"missing={sorted(set(discovered) - set(declared))} "
        f"spurious={sorted(set(declared) - set(discovered))}"
    )


def test_every_declared_package_imports():
    setup_module = _load_setup_module()
    for name in setup_module.PACKAGES:
        importlib.import_module(name)
        assert name in sys.modules


def test_setup_import_has_no_side_effects():
    """Importing setup.py (PEP 517 does) must not invoke setup()."""
    module = _load_setup_module()
    # If setup() had run at import time it would have raised (no args
    # on the command line it expects); reaching here plus having the
    # helper is the contract.
    assert callable(module.discover_packages)


def _imported_top_level_modules(src: Path) -> dict[str, set[str]]:
    """Top-level module name -> the src/ files that import it.

    Every absolute ``import`` and ``from ... import`` counts, at module
    level or inside a function, a ``try`` or an ``if``; relative imports
    are the package's own.
    """
    found: dict[str, set[str]] = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], set()).add(
                    str(path.relative_to(src)))
    return found


def test_src_imports_only_the_stdlib_and_declared_packages():
    setup_module = _load_setup_module()
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group()
        for requirements in setup_module.EXTRAS_REQUIRE.values()
        for requirement in requirements
    }
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared
    imported = _imported_top_level_modules(REPO_ROOT / "src")
    assert "numpy" in imported, "the audit found no import at all"
    undeclared = {
        name: sorted(files) for name, files in imported.items()
        if name not in allowed
    }
    assert not undeclared, (
        "src/ imports packages that setup.py does not declare: "
        f"{undeclared}"
    )


def test_server_start_imports_no_networkx():
    """Building the CLI's demo world loads no graph library."""
    code = (
        "import sys\n"
        "from repro.server.__main__ import build_demo_authority\n"
        "build_demo_authority(4, 3, 6100).close()\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
