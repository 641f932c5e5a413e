"""Packaging for the repro library.

All metadata lives here (there is no pyproject.toml): the offline
environment has setuptools but no ``wheel`` package, so the PEP 517/660
editable-install path (which shells out to bdist_wheel) is unavailable,
and a plain setup.py keeps ``pip install -e .`` on the legacy
``setup.py develop`` code path.

Subpackages are declared *explicitly* rather than via find_packages():
a new package that is missing from this list fails the discovery test
(``tests/test_packaging.py``) instead of silently shipping without its
subpackage — or worse, importing fine from the source tree while being
absent from an installed wheel.
"""

from pathlib import Path

from setuptools import setup

#: Every importable package under src/, maintained by hand and checked
#: against the tree by tests/test_packaging.py.
PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.crypto",
    "repro.devtools",
    "repro.equilibria",
    "repro.games",
    "repro.interactive",
    "repro.linalg",
    "repro.online",
    "repro.proofs",
    "repro.server",
    "repro.service",
]


#: Third-party packages, by extra: the library itself needs none.
#: tests/test_packaging.py checks that nothing under src/ imports a
#: module outside the standard library, ``repro`` and this list.
EXTRAS_REQUIRE = {
    "simulation": ["numpy"],
}


def discover_packages(src: Path | None = None) -> list[str]:
    """The packages actually present under ``src/`` (sorted dotted names)."""
    if src is None:
        src = Path(__file__).resolve().parent / "src"
    found = []
    for init in sorted(src.rglob("__init__.py")):
        parts = init.parent.relative_to(src).parts
        if "__pycache__" in parts:
            continue
        found.append(".".join(parts))
    return found


if __name__ == "__main__":
    setup(
        name="repro-rationality-authority",
        version="0.10.0",
        description=(
            "Reproduction of 'Rationality authority for provable rational "
            "behavior' (PODC 2011): exact game solving, verifiable advice, "
            "and a fault-tolerant authority service"
        ),
        package_dir={"": "src"},
        packages=PACKAGES,
        python_requires=">=3.10",
        extras_require=EXTRAS_REQUIRE,
    )
