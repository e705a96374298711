"""CLI output bytes: in-process runs against `python -O -m treebsde.cli` subprocesses.

Every applicable command runs on every shipped config twice.  The written
files must be byte-equal, which checks that the output is deterministic
and that nothing in it depends on an ``assert`` (``-O`` strips them).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treebsde
from treebsde import cli

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
OUTPUTS = ("bundle.json", "values.csv", "plot.csv")


def _cases():
    for path in CONFIGS:
        cfg = json.loads(path.read_text())
        commands = ["solve", "snell", "penalize"] if "problem" in cfg else []
        commands += ["game"] if "game" in cfg else []
        for command in commands:
            yield pytest.param(path, command, id=f"{path.stem}-{command}")


@pytest.mark.parametrize("config,command", list(_cases()))
def test_in_process_and_optimized_subprocess_write_the_same_bytes(tmp_path, config, command):
    argv = [command, "--config", str(config), "--format", "both" if command == "solve" else "json"]
    here, there = tmp_path / "in_process", tmp_path / "subprocess"
    code = cli.main(argv + ["--out", str(here)])

    env = dict(os.environ, PYTHONPATH=str(Path(treebsde.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-m", "treebsde.cli", *argv, "--out", str(there)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == code == 0, proc.stderr

    written = [name for name in OUTPUTS if (here / name).exists()]
    assert "bundle.json" in written
    assert written == [name for name in OUTPUTS if (there / name).exists()]
    for name in written:
        assert (here / name).read_bytes() == (there / name).read_bytes(), name
