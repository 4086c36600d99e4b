"""Every demo under demos/ and every ```python block of README.md runs to
completion as a plain script."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)

SCRIPTS = [pytest.param([str(path)], id=path.name) for path in DEMOS] + [
    pytest.param(["-c", block], id=f"README.md-{n}") for n, block in enumerate(README_BLOCKS, 1)
]


def test_demos_exist():
    assert DEMOS
    assert README_BLOCKS


@pytest.mark.parametrize("args", SCRIPTS)
def test_demo_runs(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
