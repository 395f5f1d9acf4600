"""Every script under demos/ runs to completion in a fresh interpreter.

The interpreter runs with -W error: pytest's filterwarnings does not reach a
subprocess, and a demo should not raise a numpy warning either.
"""

import subprocess
import sys

import pytest
from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    completed = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=ROOT,
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
