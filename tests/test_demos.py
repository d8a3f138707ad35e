"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"04_magnetization_curve.py"}


def test_demo_set_is_complete():
    assert len(DEMOS) == 5


@pytest.mark.parametrize(
    "script",
    [pytest.param(p, id=p.name, marks=[pytest.mark.slow] if p.name in SLOW else []) for p in DEMOS],
)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
