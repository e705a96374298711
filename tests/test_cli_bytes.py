"""CLI output bytes: in-process runs against `python -O -m treebsde.cli` subprocesses.

Every applicable command runs on every shipped config twice.  The written
files must be byte-equal, which checks that the output is deterministic
and that nothing in it depends on an ``assert`` (``-O`` strips them).
A third run with ``--format both`` must reproduce pinned sha256 digests,
so that a change altering both runs alike is caught too.
"""

import hashlib
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


# sha256 of every file written by `<command> --format both`, per shipped config
PINNED = {
    ("game", "game"): {
        "bundle.json": "17c73040ada591e8cd3973b41ae56e688b7b4107108dffc423bd652aed1ed457"},
    ("game", "penalize"): {
        "bundle.json": "d85e52fc7ccc7f69a7e413a053addcfe5d9ae2ab20de3b3078126af509de022d"},
    ("game", "snell"): {
        "bundle.json": "6164389ee49c94f0c87e3b3d767366dbb7cc87af697d6025224f7f607fb79442"},
    ("game", "solve"): {
        "bundle.json": "787fbae4839379c740da20388ff97c81a6027ffd95af720430f9b728b2e7d562",
        "values.csv": "77ef794b24678acad99566ffd504704b62597355ca1e2a5f35ff891e6e2df895"},
    ("markov", "penalize"): {
        "bundle.json": "0015918102c9abcd2ca9a6eef2af2c4a6da22fff326855aecddba8df073f9990"},
    ("markov", "snell"): {
        "bundle.json": "dd2d1d53965623eb6d36cbd837695726758c61281ac0b5d3ffe055b4e83f25d3"},
    ("markov", "solve"): {
        "bundle.json": "a84c16e4d0dc6cd5e9486d8c7906740c6a85a9c66ef2e27d285fe3772fa9ac28",
        "values.csv": "ca74ce73c59fff284f14c224436bcd31bfc8ab67cc09ddd565b6fadb9e706534",
        "plot.csv": "2d5f937632fe3122d45e26369e7b38de21d34ed67568ff3c0f04557ff003ce70"},
    ("minimal", "penalize"): {
        "bundle.json": "b3383aa8ebb24b53815e9441a8671591c9529bd1ce4a85f9600530c1150a647e"},
    ("minimal", "snell"): {
        "bundle.json": "0357a2d7fa30687d4045c16ad6e497d1572b73436f503f964c91b5eda0c9eb5d"},
    ("minimal", "solve"): {
        "bundle.json": "dfa85530f1ae333b9f610a32faac5c8933c554a15a0c11d2c1e8ce7b77814011",
        "values.csv": "b163356e8d5e53acca213ea90969504f475432280631b058a5a58aa69d586ad6",
        "plot.csv": "178f42f2c02718cceacbb8c425542a2f5667f362e1d4e2da4ee461295be38461"},
}


@pytest.mark.parametrize("config,command", list(_cases()))
def test_written_bytes_match_pinned_digests(tmp_path, config, command):
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--format", "both", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in OUTPUTS if (out / name).exists()}
    assert digests == PINNED[(config.stem, command)]


def test_largest_game_under_the_caps_matches_pinned_digest(tmp_path):
    # configs/game.json at steps 3 without marks (so no per-mark tilt or
    # gamma entries): 2^7 x 2^7 = 16,384 control-map pairs for the oracle
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "game.json").read_text())
    cfg["grid"]["steps"] = 3
    cfg["marks"] = []
    cfg["game"]["tilt"] = [[[] for _ in row] for row in cfg["game"]["tilt"]]
    cfg["game"]["gamma"] = []
    config = tmp_path / "game-steps3.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["game", "--config", str(config), "--format", "both", "--out", str(out)]) == 0
    assert [name for name in OUTPUTS if (out / name).exists()] == ["bundle.json"]
    digest = hashlib.sha256((out / "bundle.json").read_bytes()).hexdigest()
    assert digest == "35e38b5b1959a14f1c4880271407e0f455bd479132856b027450b196da31a612"


# sha256 of every file written by `<command> --format both` for configs/markov.json
# with a second mark: the m >= 2 paths (V lists of two, the V_1/V_2 columns)
TWO_MARKS = {
    "solve": {
        "bundle.json": "3645b7c0fe27f90bed519c46258dd1c1aef71f59f4a71b1c73b2421a400244bb",
        "values.csv": "93a69cae70bafe1c7dfdab56220c1b566c3f87acdaffb53ab4e8bf1d56fd0f45",
        "plot.csv": "b7374ddeaa6db9657274cf22ccb01f2d074d4ac699857a1c23dc484e8f1ad6b3"},
    "snell": {
        "bundle.json": "f735c26e244f56aebfb1758c6e496edf7cd4a536a07d1eb1f94e2418a12a2b95"},
    "penalize": {
        "bundle.json": "08d6d6eaf37cfd9793adcb55f9a468b8fde4527f59e94b9d2abdc057bd2f4e31"},
}


@pytest.mark.parametrize("command", list(TWO_MARKS))
def test_two_mark_config_matches_pinned_digests(tmp_path, command):
    cfg = json.loads((Path(__file__).parents[1] / "configs" / "markov.json").read_text())
    cfg["marks"].append({"point": -0.5, "rate": 0.41})
    cfg["problem"]["state"]["gamma"] = [-0.27, 0.18]
    cfg["problem"]["generator"]["params"]["d"] = [0.06, -0.04]
    cfg["output"]["plot_path"] = "d2u1"
    config = tmp_path / "markov-two-marks.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config), "--format", "both", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in OUTPUTS if (out / name).exists()}
    assert digests == TWO_MARKS[command]
    if command == "solve":
        assert (out / "values.csv").read_text().startswith("node_id,layer,time,Y,Z,V_1,V_2,")
        root = json.loads((out / "bundle.json").read_text())["solution"]["V"][""]
        assert len(root) == 2


# sha256 of the bundle `verify --config configs/suite.json` writes, which the
# benchmark's cli workload prints as well
VERIFY_BUNDLE = "3393995bb31a0512c0930d58770c3c0952811506e9101a2ef112e87906866a85"


def test_verify_writes_pinned_bytes_in_process_and_optimized(tmp_path):
    argv = ["verify", "--config", str(Path(__file__).parents[1] / "configs" / "suite.json")]
    here, there = tmp_path / "in_process", tmp_path / "subprocess"
    code = cli.main(argv + ["--out", str(here)])

    env = dict(os.environ, PYTHONPATH=str(Path(treebsde.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-m", "treebsde.cli", *argv, "--out", str(there)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == code == 0, proc.stderr
    bundle = (here / "bundle.json").read_bytes()
    assert bundle == (there / "bundle.json").read_bytes()
    assert hashlib.sha256(bundle).hexdigest() == VERIFY_BUNDLE
