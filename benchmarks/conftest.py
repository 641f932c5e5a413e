"""Shared benchmark infrastructure.

Every bench prints a paper-vs-measured table and also writes it to a
file so the numbers survive pytest's output capture.
``REPRO_BENCH_SCALE`` selects the workload size:

* ``quick``   — smoke-test sizes (seconds);
* ``default`` — laptop-scale, shape-faithful (the committed numbers);
* ``full``    — the paper's parameters where applicable (minutes).

Besides the human-readable ``.txt`` tables, benches can emit
machine-readable ``BENCH_<name>.json`` files via :func:`record_metrics`
so the performance trajectory is trackable across PRs: each file carries
the bench name, the scale it ran at, the solver backend, and a list of
``{"metric", "value"}`` pairs (plus free-form context per metric).

``benchmarks/results/`` holds the committed trajectory, and no run
writes there: every run — the plain ``pytest`` that also collects this
directory, CI's smokes — writes its tables and JSON to
``results/smoke/`` (ignored by git), so running the suite never
rewrites the committed numbers.  To re-baseline, run the benches at
default scale and copy the fresh ``BENCH_<name>.json`` and
``<name>.txt`` files from ``results/smoke/`` into ``results/``.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: Where every run writes (see the module notes); quick/full JSON
#: lands here scale-suffixed, default-scale JSON under its bare name.
SMOKE_DIR = RESULTS_DIR / "smoke"


def pytest_sessionstart(session):
    """Refuse to run with stray scale-suffixed JSON in results/.

    The bare ``results/`` directory is the committed cross-PR
    trajectory: default-scale ``BENCH_<name>.json`` only.  A
    ``*.quick.json`` / ``*.full.json`` sitting there (hand-copied, or
    force-added past the gitignore) would be one ``git add`` away from
    polluting the trajectory, so fail loudly instead of benching on.
    Scale-suffixed files belong in ``results/smoke/``.
    """
    strays = sorted(
        str(path.relative_to(RESULTS_DIR.parent))
        for pattern in ("BENCH_*.quick.json", "BENCH_*.full.json")
        for path in RESULTS_DIR.glob(pattern)
    )
    if strays:
        raise pytest.UsageError(
            "scale-suffixed bench JSON must live in results/smoke/, "
            "not results/: " + ", ".join(strays)
        )


@pytest.fixture(scope="session")
def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "default")
    if scale not in ("quick", "default", "full"):
        raise ValueError(f"unknown REPRO_BENCH_SCALE {scale!r}")
    return scale


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    SMOKE_DIR.mkdir(parents=True, exist_ok=True)
    return SMOKE_DIR


@pytest.fixture
def record_table(results_dir):
    """Print a rendered table and persist it to ``<results_dir>/<name>.txt``."""

    def _record(name: str, text: str) -> None:
        print()
        print(text)
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")

    return _record


@pytest.fixture
def record_metrics(results_dir, bench_scale):
    """Persist machine-readable metrics to ``BENCH_<name>.json``.

    ``metrics`` is a list of dicts, each at least ``{"metric": str,
    "value": number}``; extra keys (e.g. ``"size"``, ``"unit"``) ride
    along verbatim.  ``backend`` names the solver backend the numbers
    were measured on (``"exact"``, ``"float+certify"``, "auto", or
    ``"mixed"`` for comparative benches).

    The bare ``BENCH_<name>.json`` filename is reserved for the
    default scale, the one the committed trajectory is recorded at;
    quick/full runs write ``BENCH_<name>.<scale>.json``, so a smoke
    file can never be copied over — or committed next to — the
    cross-PR trajectory data by mistake.
    """

    def _record(name: str, metrics: list[dict], backend: str = "exact") -> None:
        for entry in metrics:
            if "metric" not in entry or "value" not in entry:
                raise ValueError(
                    f"metric entries need 'metric' and 'value' keys: {entry!r}"
                )
        payload = {
            "bench": name,
            "scale": bench_scale,
            "backend": backend,
            "metrics": metrics,
        }
        suffix = "" if bench_scale == "default" else f".{bench_scale}"
        path = results_dir / f"BENCH_{name}{suffix}.json"
        path.write_text(
            json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8"
        )

    return _record
