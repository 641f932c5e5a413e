"""``src_lines.<package>``: the size of the program, next to its timings.

The rule: every ``.py`` file under ``src/`` counts its physical lines
(newline characters, blank lines, comments and docstrings included)
toward the package of the directory that holds it -- a subpackage's
files count toward the subpackage only.  Packages are the ones listed
in ``setup.py``'s ``PACKAGES``; ``src_lines.total`` sums them all.
"""

from __future__ import annotations

import ast
from pathlib import Path


def packages(root: Path) -> list[str]:
    """The ``PACKAGES`` list of ``setup.py``, read without running it."""
    tree = ast.parse((root / "setup.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "PACKAGES"
            for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise ValueError("setup.py defines no PACKAGES list")


def src_lines(root: Path) -> dict[str, int]:
    metrics = {}
    for package in packages(root):
        folder = root / "src" / Path(*package.split("."))
        metrics[f"src_lines.{package}"] = sum(
            path.read_bytes().count(b"\n") for path in folder.glob("*.py")
        )
    metrics["src_lines.total"] = sum(metrics.values())
    return metrics
