"""Seeded input generator for the benchmark workloads.

Every input a workload hands to treebsde is drawn here from the workload
seed, so the same seed gives the same configs and arrays.  Configs are
written as JSON files for the CLI; the library workloads get the same
objects built through the public library API.

Two instance families:

- the Markov family: barriers, terminal value and generator are affine
  in (t, x) over a forward state, and the flagged pre-jump value is
  constant per layer, so node values depend only on the branch counts;
- the path family: barriers, flagged pre-jump values and terminal values
  are random per node, so no two paths share values.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from treebsde import game as tgame
from treebsde import lattice, model

MARK_POINT = 1.0


def markov_params(seed: int, steps: int) -> dict:
    """Scalar parameters of one Markov-family instance with ``steps`` steps.

    The ranges keep every instance valid: barriers strictly separated,
    terminal sandwiched, declared Lipschitz constant at least the
    generator's, and the flagged upper pre-jump value above the lower
    barrier on every node of its layer.
    """
    r = random.Random(seed)
    p = {
        "steps": steps,
        "rate": r.uniform(0.8, 1.2),
        "sigma": r.uniform(0.8, 1.2),
        "gamma": r.uniform(-0.4, -0.2),
        "slope": r.uniform(0.2, 0.4),
        "lower_a": r.uniform(-0.7, -0.5),
        "upper_a": r.uniform(0.3, 0.5),
        "terminal_a": r.uniform(-0.2, 0.2),
        "a0": r.uniform(2.0, 3.0),
        "a1": r.uniform(-0.5, 0.5),
        "b": r.uniform(-0.4, -0.2),
        "c": r.uniform(0.1, 0.3),
        "d": r.uniform(0.05, 0.15),
        "flag_layer": 2,
        "plot_path": "".join(r.choice("ud1") for _ in range(steps)),
    }
    # |x| at layer k is at most k * (sigma*sqrt(dt) + |gamma|)
    reach = p["flag_layer"] * (p["sigma"] * math.sqrt(1.0 / steps) + abs(p["gamma"]))
    p["upper_pre"] = p["lower_a"] + p["slope"] * reach + r.uniform(0.1, 0.3)
    p["lipschitz"] = abs(p["b"]) + abs(p["c"]) + abs(p["d"])
    return p


def markov_config(p: dict) -> dict:
    """The CLI config for a Markov-family instance."""
    affine = lambda a: {"form": "affine-state", "a": a, "b": p["slope"]}
    return {
        "schema": 1,
        "grid": {"horizon": 1.0, "steps": p["steps"]},
        "marks": [{"point": MARK_POINT, "rate": p["rate"]}],
        "problem": {
            "state": {"sigma": p["sigma"], "gamma": [p["gamma"]], "x0": 0.0},
            "generator": {
                "form": "affine",
                "params": {"a0": p["a0"], "a1": p["a1"], "b": p["b"], "c": p["c"], "d": [p["d"]]},
                "lipschitz": p["lipschitz"],
            },
            "barriers": {
                "lower": affine(p["lower_a"]),
                "upper": affine(p["upper_a"]),
                "flagged": [{"layer": p["flag_layer"], "upper_pre": p["upper_pre"]}],
            },
            "terminal": affine(p["terminal_a"]),
        },
        "output": {"plot_path": p["plot_path"]},
    }


def _tree(steps: int, rate: float) -> lattice.Tree:
    grid = lattice.TimeGrid(horizon=1.0, steps=steps)
    return lattice.build_tree(grid, lattice.MarkSet(points=(MARK_POINT,), rates=(rate,)))


def _generator(p: dict) -> model.GeneratorSpec:
    params = {"a0": p["a0"], "a1": p["a1"], "b": p["b"], "c": p["c"], "d": [p["d"]]}
    return model.GeneratorSpec("affine", params, lipschitz=p["lipschitz"])


def markov_problem(p: dict) -> model.ProblemSpec:
    """The Markov-family instance built through the library API."""
    tree = _tree(p["steps"], p["rate"])
    state = lattice.forward_state(
        tree,
        lambda t, x: np.full_like(x, p["sigma"]),
        lambda t, e, x: np.full_like(x, p["gamma"]),
        0.0,
    )
    s = p["slope"]
    barriers = model.barriers_from_functions(
        tree,
        lambda t, x: p["lower_a"] + s * x,
        lambda t, x: p["upper_a"] + s * x,
        state=state,
        flagged={p["flag_layer"]: (None, p["upper_pre"])},
    )
    terminal = p["terminal_a"] + s * state.layer(p["steps"])
    return model.ProblemSpec(tree, _generator(p), barriers, terminal, state)


def markov_game(seed: int, problem: model.ProblemSpec, p: dict, size: int = 5) -> tgame.GameSpec:
    """A size x size control game on the Markov instance's tree and payoffs.

    Drift, running payoff and mark tilt are separable tables in the two
    players' control indices, all nonzero; the tilt stays far above -1 so
    every one-step density is positive.
    """
    rng = np.random.default_rng([seed, 1])
    drift = rng.uniform(-0.3, 0.3, size)[:, None] + rng.uniform(-0.3, 0.3, size)[None, :]
    running = rng.uniform(-0.3, 0.3, size)[:, None] + rng.uniform(-0.3, 0.3, size)[None, :]
    tilt = rng.uniform(-0.1, 0.1, size)[:, None] + rng.uniform(-0.1, 0.1, size)[None, :]
    spec = tgame.GameSpec(
        tree=problem.tree,
        controls=tgame.ControlGrid(A=tuple(range(size)), B=tuple(range(size))),
        barriers=problem.barriers,
        terminal=problem.terminal,
        sigma=lambda t, x: np.full_like(x, p["sigma"]),
        gamma=lambda t, e, x: np.full_like(x, p["gamma"]),
        drift=lambda t, x, u, v: np.full_like(x, drift[u, v]),
        running=lambda t, x, u, v: np.full_like(x, running[u, v]),
        tilt=lambda t, e, x, u, v: np.full_like(x, tilt[u, v]),
        x0=0.0,
    )
    spec.state()  # the forward state is built once per spec; keep it in set-up
    return spec


def path_problem(seed: int, steps: int) -> model.ProblemSpec:
    """A path-dependent instance: barriers, pre-jump values and terminal random per node."""
    p = markov_params(seed, steps)
    rng = np.random.default_rng([seed, 2])
    tree = _tree(steps, p["rate"])
    low, up = [], []
    for k in range(tree.n_layers):
        n = tree.layer_size(k)
        lo = rng.normal(-0.4, 0.3, n)
        low.append(lo)
        up.append(lo + rng.uniform(0.3, 1.0, n))
    k = p["flag_layer"] + 1
    n = tree.layer_size(k)
    lp = low[k] + rng.normal(0.0, 0.2, n)
    flagged = {k: (lp, lp + rng.uniform(0.3, 1.0, n))}
    xi = low[-1] + rng.uniform(0.05, 0.95, tree.layer_size(steps)) * (up[-1] - low[-1])
    barriers = model.BarrierPair(lattice.AdaptedValues(low, 0), lattice.AdaptedValues(up, 0), flagged)
    return model.ProblemSpec(tree, _generator(p), barriers, xi)


def game_config(seed: int) -> dict:
    """A two-step, one-mark, 2x2-control game config with seeded payoff tables.

    The shape is the shipped example game's; its always-on brute-force
    oracle enumerates 256 control-map pairs at this size.
    """
    r = random.Random(seed)
    u = lambda lo, hi: round(r.uniform(lo, hi), 6)
    return {
        "schema": 1,
        "grid": {"horizon": 1.0, "steps": 2},
        "marks": [{"point": MARK_POINT, "rate": 0.3}],
        "problem": {
            "generator": {"form": "constant", "params": {"c0": 0.0}, "lipschitz": 0.0},
            "barriers": {
                "lower": {"form": "constant", "value": u(-0.9, -0.7)},
                "upper": {"form": "constant", "value": u(0.7, 0.9)},
            },
            "terminal": {"form": "constant", "value": u(-0.3, 0.3)},
        },
        "game": {
            "controls": {"A": [0.0, 1.0], "B": [0.0, 1.0]},
            "drift": [[u(-0.3, 0.3) for _ in range(2)] for _ in range(2)],
            "running": [[u(-0.3, 0.3) for _ in range(2)] for _ in range(2)],
            "tilt": [[[u(-0.5, 0.5)] for _ in range(2)] for _ in range(2)],
            "sigma": 1.0,
            "gamma": [0.0],
            "x0": 0.0,
        },
    }


def write_config(directory: Path, name: str, cfg: dict) -> str:
    path = Path(directory) / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)
