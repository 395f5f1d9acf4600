"""Every script under demos/ runs to completion in a fresh interpreter.

The interpreter runs with -W error: pytest's filterwarnings does not reach a
subprocess, and a demo should not raise a numpy warning either.  Every
fenced python block in the README runs in this process, under
filterwarnings, each in a fresh namespace.
"""

import re
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


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    alice, bob, loss, no_loss, max_loss = capsys.readouterr().out.split()
    assert float(loss) == float(alice) - float(bob)
    assert {no_loss, max_loss} <= {"True", "False"}


def test_readme_python_blocks_run():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert blocks
    for index, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {index}", "exec"), {})
