"""Every fenced Python block of README.md runs to completion under ``python -O`` (asserts stripped)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import treebsde

README = Path(__file__).parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)


def test_the_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_exits_0(block):
    env = dict(os.environ, PYTHONPATH=str(Path(treebsde.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", block], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
