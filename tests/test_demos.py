"""Every script under demos/ runs to completion with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
