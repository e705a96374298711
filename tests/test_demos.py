"""Every demo script runs to completion under ``python -O`` (asserts stripped)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import treebsde

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(treebsde.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", str(demo)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
