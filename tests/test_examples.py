"""Smoke tests: every example script must run cleanly.

Examples are the public face of the library; these tests keep them
working as the API evolves.  Each runs in a subprocess with a generous
timeout and must exit 0 with non-trivial output.  The README's Quick
start block is run the same way.
"""

import pathlib
import subprocess
import sys

import pytest

REPO_DIR = pathlib.Path(__file__).parent.parent
EXAMPLES_DIR = REPO_DIR / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.stem for s in SCRIPTS])
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert len(result.stdout) > 100  # produced a real walkthrough


def test_examples_exist():
    assert len(SCRIPTS) >= 5
    assert (EXAMPLES_DIR / "quickstart.py").exists()


def quick_start_code() -> str:
    """The python block of the README's "## Quick start" section."""
    readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_quick_start_runs():
    result = subprocess.run(
        [sys.executable, "-c", quick_start_code()],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout
