"""Command-line front end: config ingestion, dispatch, deterministic serialization.

Commands: solve (two-barrier), penalize (bracket schemes), snell (one
barrier), game (mixed control/stopping), verify (full certification
suite).  The JSON bundle written for a given config is byte-identical
across runs; wall time and versions live in a separate metadata file.

Exit codes: 0 success, 1 verify failure, 2 config parse error,
3 validation failure, 4 solver error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .drbsde import backward_clamped_solve, penalization_bracket, picard_solve
from .errors import ConfigError, TooLargeToEnumerate, TreeBsdeError
from .game import ControlGrid, GameSpec, solve_game
from .lattice import AdaptedValues, MarkSet, TimeGrid, Tree, build_tree, forward_state, node_id_table
from .model import BarrierPair, GeneratorSpec, ProblemSpec, validate
from .snell import solve_one_barrier

SCHEMA_VERSION = 1
EXIT_OK, EXIT_VERIFY, EXIT_PARSE, EXIT_VALIDATION, EXIT_SOLVER = 0, 1, 2, 3, 4


# ---------------------------------------------------------------- config


def _need(section, key, path):
    if not isinstance(section, dict) or key not in section:
        raise ConfigError(f"{path}.{key}", "missing required key")
    return section[key]


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _integer(value, path):
    """An integral config value: an int, or a float with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


class _NonFinite:
    """Placeholder for a NaN or infinite JSON number, reported with its key path."""

    def __init__(self, text):
        self.text = text


def _parse_float(text):
    value = float(text)
    return value if np.isfinite(value) else _NonFinite(text)


def _reject_non_finite(node, path="$"):
    if isinstance(node, _NonFinite):
        raise ConfigError(path, f"non-finite number {node.text} is not allowed")
    if isinstance(node, dict):
        for key, child in node.items():
            _reject_non_finite(child, key if path == "$" else f"{path}.{key}")
    elif isinstance(node, list):
        for i, child in enumerate(node):
            _reject_non_finite(child, f"{path}[{i}]")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}")
    try:
        cfg = json.loads(text, parse_constant=_NonFinite, parse_float=_parse_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("$", "top level must be an object")
    _reject_non_finite(cfg)
    schema = cfg.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema {schema!r}, expected {SCHEMA_VERSION}")
    return cfg


def build_tree_from_config(cfg: dict, node_cap: int | None = None) -> Tree:
    grid_cfg = _need(cfg, "grid", "$")
    grid = TimeGrid(
        horizon=_number(_need(grid_cfg, "horizon", "grid"), "grid.horizon"),
        steps=_integer(_need(grid_cfg, "steps", "grid"), "grid.steps"),
    )
    marks_cfg = cfg.get("marks", [])
    if not isinstance(marks_cfg, list):
        raise ConfigError("marks", "expected a list")
    points, rates = [], []
    for i, entry in enumerate(marks_cfg):
        points.append(_number(_need(entry, "point", f"marks[{i}]"), f"marks[{i}].point"))
        rates.append(_number(_need(entry, "rate", f"marks[{i}]"), f"marks[{i}].rate"))
    marks = MarkSet(points=tuple(points), rates=tuple(rates))
    cap = node_cap if node_cap is not None else _integer(
        cfg.get("solver", {}).get("node_cap", 2_000_000), "solver.node_cap"
    )
    return build_tree(grid, marks, node_cap=cap)


def _barrier_values(tree: Tree, spec, state, path) -> AdaptedValues:
    form = _need(spec, "form", path)
    layers = []
    for k in range(tree.n_layers):
        t = tree.grid.time(k)
        x = state.layer(k) if state is not None else np.zeros(tree.layer_size(k))
        if form == "constant":
            val = np.full(x.shape, _number(_need(spec, "value", path), f"{path}.value"))
        elif form == "affine-time":
            val = np.full(x.shape, _number(_need(spec, "a", path), f"{path}.a")
                          + _number(_need(spec, "b", path), f"{path}.b") * t)
        elif form == "affine-state":
            val = (_number(_need(spec, "a", path), f"{path}.a")
                   + _number(_need(spec, "b", path), f"{path}.b") * x)
        else:
            raise ConfigError(f"{path}.form", f"unknown barrier form {form!r}")
        layers.append(np.asarray(val, dtype=float))
    return AdaptedValues(layers, 0)


def _state_from_config(tree: Tree, state_cfg, path) -> AdaptedValues | None:
    if state_cfg is None:
        return None
    sigma = _number(state_cfg.get("sigma", 1.0), f"{path}.sigma")
    gamma = state_cfg.get("gamma", [0.0] * tree.marks.m)
    if len(gamma) != tree.marks.m:
        raise ConfigError(f"{path}.gamma", f"expected {tree.marks.m} entries")
    gam = [_number(g, f"{path}.gamma[{j}]") for j, g in enumerate(gamma)]
    x0 = _number(state_cfg.get("x0", 0.0), f"{path}.x0")
    lookup = dict(zip(tree.marks.points, gam))
    return forward_state(
        tree,
        lambda t, x: np.full_like(x, sigma),
        lambda t, e, x: np.full_like(x, lookup[e]),
        x0,
    )


def _terminal_from_config(tree: Tree, spec, state, path) -> np.ndarray:
    n = tree.layer_size(tree.grid.steps)
    x = state.layer(tree.grid.steps) if state is not None else np.zeros(n)
    form = _need(spec, "form", path)
    if form == "constant":
        return np.full(n, _number(_need(spec, "value", path), f"{path}.value"))
    if form == "state":
        return x.copy()
    if form == "affine-state":
        return (_number(_need(spec, "a", path), f"{path}.a")
                + _number(_need(spec, "b", path), f"{path}.b") * x)
    raise ConfigError(f"{path}.form", f"unknown terminal form {form!r}")


def build_problem(cfg: dict, tree: Tree) -> ProblemSpec:
    pcfg = _need(cfg, "problem", "$")
    state = _state_from_config(tree, pcfg.get("state"), "problem.state")

    gcfg = _need(pcfg, "generator", "problem")
    try:
        generator = GeneratorSpec(
            form=_need(gcfg, "form", "problem.generator"),
            params=gcfg.get("params", {}),
            lipschitz=_number(gcfg.get("lipschitz", 0.0), "problem.generator.lipschitz"),
        )
    except TreeBsdeError as exc:
        raise ConfigError("problem.generator.form", str(exc))

    bcfg = _need(pcfg, "barriers", "problem")
    lower = _barrier_values(tree, _need(bcfg, "lower", "problem.barriers"), state,
                            "problem.barriers.lower")
    upper = _barrier_values(tree, _need(bcfg, "upper", "problem.barriers"), state,
                            "problem.barriers.upper")
    flagged = {}
    for i, entry in enumerate(bcfg.get("flagged", [])):
        path = f"problem.barriers.flagged[{i}]"
        k = _integer(_need(entry, "layer", path), f"{path}.layer")
        if not 1 <= k <= tree.grid.steps:
            raise ConfigError(f"{path}.layer", f"layer must be in [1, {tree.grid.steps}]")
        n = tree.layer_size(k)
        lp = entry.get("lower_pre")
        up = entry.get("upper_pre")
        flagged[k] = (
            np.full(n, _number(lp, f"{path}.lower_pre")) if lp is not None else lower.layer(k).copy(),
            np.full(n, _number(up, f"{path}.upper_pre")) if up is not None else upper.layer(k).copy(),
        )
    barriers = BarrierPair(lower, upper, flagged)
    terminal = _terminal_from_config(tree, _need(pcfg, "terminal", "problem"), state,
                                     "problem.terminal")
    return ProblemSpec(tree, generator, barriers, terminal, state)


def build_game(cfg: dict, tree: Tree) -> GameSpec:
    gcfg = _need(cfg, "game", "$")
    ccfg = _need(gcfg, "controls", "game")
    A = tuple(_need(ccfg, "A", "game.controls"))
    B = tuple(_need(ccfg, "B", "game.controls"))
    if not A or not B:
        raise ConfigError("game.controls", "control grids must be non-empty")
    p, q, m = len(A), len(B), tree.marks.m

    def table(key, depth3=False):
        raw = gcfg.get(key)
        if raw is None:
            return None
        arr = np.asarray(raw, dtype=float)
        want = (p, q, m) if depth3 else (p, q)
        if arr.shape != want:
            raise ConfigError(f"game.{key}", f"expected shape {want}, got {arr.shape}")
        return arr

    drift_t, running_t, tilt_t = table("drift"), table("running"), table("tilt", depth3=True)
    idx_a = {u: i for i, u in enumerate(A)}
    idx_b = {v: i for i, v in enumerate(B)}
    idx_e = {e: j for j, e in enumerate(tree.marks.points)}

    sigma = _number(gcfg.get("sigma", 1.0), "game.sigma")
    if sigma == 0.0:
        raise ConfigError("game.sigma", "sigma must be nonzero")
    gamma = gcfg.get("gamma", [0.0] * m)
    if len(gamma) != m:
        raise ConfigError("game.gamma", f"expected {m} entries")
    gam = {e: _number(g, f"game.gamma[{j}]") for j, (e, g) in enumerate(zip(tree.marks.points, gamma))}
    x0 = _number(gcfg.get("x0", 0.0), "game.x0")

    # reuse the problem section's barriers and terminal for the game payoffs
    problem = build_problem(cfg, tree)
    return GameSpec(
        tree=tree,
        controls=ControlGrid(A=A, B=B),
        barriers=problem.barriers,
        terminal=problem.terminal,
        sigma=lambda t, x: np.full_like(x, sigma),
        gamma=(lambda t, e, x: np.full_like(x, gam[e])) if m else None,
        drift=(lambda t, x, u, v: np.full_like(x, drift_t[idx_a[u], idx_b[v]]))
        if drift_t is not None else None,
        running=(lambda t, x, u, v: np.full_like(x, running_t[idx_a[u], idx_b[v]]))
        if running_t is not None else None,
        tilt=(lambda t, e, x, u, v: np.full_like(x, tilt_t[idx_a[u], idx_b[v], idx_e[e]]))
        if tilt_t is not None else None,
        x0=x0,
    )


# ---------------------------------------------------------------- output


def _f(x) -> float:
    return float(x)


def _by_node(ids: list, values: AdaptedValues) -> dict:
    """Node id -> value (a list for vector-valued layers), from a node-id table."""
    out = {}
    for k in range(values.first_layer, values.last_layer + 1):
        out.update(zip(ids[k], np.asarray(values.layer(k), dtype=float).tolist()))
    return out


def _report_dict(report) -> dict:
    return {
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
    }


def _solution_dict(ids: list, sol) -> dict:
    return {
        "Y": _by_node(ids, sol.Y),
        "Z": _by_node(ids, sol.Z),
        "V": _by_node(ids, sol.V),
        "dK_c_plus": _by_node(ids, sol.dKc_plus),
        "dK_c_minus": _by_node(ids, sol.dKc_minus),
        "dK_d_plus": _by_node(ids, sol.dKd_plus),
        "dK_d_minus": _by_node(ids, sol.dKd_minus),
        "K_plus": _by_node(ids, sol.K_plus()),
        "K_minus": _by_node(ids, sol.K_minus()),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_values_csv(path: Path, tree: Tree, ids: list, sol) -> None:
    m = tree.marks.m
    kp, km = sol.K_plus(), sol.K_minus()
    cols = ["node_id", "layer", "time", "Y"] + ["Z"] + [f"V_{j + 1}" for j in range(m)]
    cols += ["Kc_plus", "Kd_plus", "Kc_minus", "Kd_minus", "K_plus", "K_minus"]
    lines = [",".join(cols)]
    g = "{:.17g}".format

    def column(values) -> list:
        return list(map(g, np.asarray(values, dtype=float).tolist()))

    for k in range(tree.n_layers):
        n = tree.layer_size(k)
        columns = [ids[k], [str(k)] * n, [g(float(tree.grid.time(k)))] * n, column(sol.Y.layer(k))]
        if k == tree.grid.steps:
            columns += [[""] * n] * (1 + m)
        else:
            columns.append(column(sol.Z.layer(k)))
            columns += [column(sol.V.layer(k)[:, j]) for j in range(m)]
        columns += [
            column(sol.dKc_plus.layer(k)), column(sol.dKd_plus.layer(k)),
            column(sol.dKc_minus.layer(k)), column(sol.dKd_minus.layer(k)),
            column(kp.layer(k)), column(km.layer(k)),
        ]
        lines.extend(map(",".join, zip(*columns)))
    path.write_text("\n".join(lines) + "\n")


def _path_nodes(tree: Tree, path_str: str):
    """(layer, node) pairs along a node-id path prefix string."""
    labels = {label: branch for branch, label in enumerate(tree.branch_labels())}
    node = 0
    yield 0, 0
    for k, ch in enumerate(path_str):
        if ch not in labels:
            raise ConfigError("output.plot_path", f"unknown branch label {ch!r}")
        if k >= tree.grid.steps:
            raise ConfigError("output.plot_path", "path longer than the grid")
        node = node * tree.n_branches + labels[ch]
        yield k + 1, node


def _write_plot_csv(path: Path, tree: Tree, sol, barriers, path_str: str) -> None:
    g = lambda x: f"{float(x):.17g}"
    lines = ["time,Y,lower,upper"]
    for k, node in _path_nodes(tree, path_str):
        lines.append(",".join([
            g(tree.grid.time(k)), g(sol.Y.layer(k)[node]),
            g(barriers.lower.layer(k)[node]), g(barriers.upper.layer(k)[node]),
        ]))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------- commands


def _cmd_solve(cfg, tree, ids, args):
    problem = build_problem(cfg, tree)
    report = validate(problem, require_h=True, seed=args.seed)
    if not report.passed:
        return EXIT_VALIDATION, {"validation": _report_dict(report)}, None, problem.barriers
    solver_cfg = cfg.get("solver", {})
    if problem.generator.depends_on_solution:
        sol, trace = picard_solve(
            problem,
            alpha=solver_cfg.get("alpha"),
            tol=float(solver_cfg.get("tol", 1e-10)),
            max_iter=_integer(solver_cfg.get("max_iter", 60), "solver.max_iter"),
        )
        extra = {"iteration_trace": [_f(d) for d in trace]}
    else:
        sol = backward_clamped_solve(problem)
        extra = {}
    bundle = {"command": "solve", "validation": _report_dict(report),
              "solution": _solution_dict(ids, sol)}
    bundle.update(extra)
    return EXIT_OK, bundle, sol, problem.barriers


def _cmd_penalize(cfg, tree, ids, args):
    problem = build_problem(cfg, tree)
    report = validate(problem, require_h=True, seed=args.seed)
    if not report.passed:
        return EXIT_VALIDATION, {"validation": _report_dict(report)}, None, problem.barriers
    schedule = cfg.get("solver", {}).get("schedule")
    trace = penalization_bracket(problem, schedule=schedule)
    bundle = {
        "command": "penalize",
        "validation": _report_dict(report),
        "levels": [int(n) for n in trace.levels],
        "widths": [_f(w) for w in trace.widths],
        "final_width": _f(trace.final_width),
        "Y_increasing": _by_node(ids, trace.increasing[-1]),
        "Y_decreasing": _by_node(ids, trace.decreasing[-1]),
    }
    return EXIT_OK, bundle, None, problem.barriers


def _cmd_snell(cfg, tree, ids, args):
    problem = build_problem(cfg, tree)
    report = validate(problem, require_h=False, seed=args.seed)
    if not report.passed:
        return EXIT_VALIDATION, {"validation": _report_dict(report)}, None, problem.barriers
    side = cfg.get("problem", {}).get("side", "upper")
    if side not in ("upper", "lower"):
        raise ConfigError("problem.side", f"side must be 'upper' or 'lower', got {side!r}")
    sol = solve_one_barrier(problem, side=side)
    bundle = {
        "command": "snell",
        "side": side,
        "validation": _report_dict(report),
        "Y": _by_node(ids, sol.Y),
        "Z": _by_node(ids, sol.Z),
        "V": _by_node(ids, sol.V),
        "dK_c": _by_node(ids, sol.dKc),
        "dK_d": _by_node(ids, sol.dKd),
        "K": _by_node(ids, sol.K()),
    }
    return EXIT_OK, bundle, None, problem.barriers


def _cmd_game(cfg, tree, ids, args):
    game = build_game(cfg, tree)
    result = solve_game(game)
    try:
        from .game import brute_force_game_oracle

        supinf, infsup = brute_force_game_oracle(game)
        oracle = {"supinf": _f(supinf), "infsup": _f(infsup),
                  "Y_root": _f(result.Y.layer(0)[0])}
    except TooLargeToEnumerate as exc:
        oracle = {"skipped": str(exc)}
    N = tree.grid.steps
    bundle = {
        "command": "game",
        "Y": _by_node(ids, result.Y),
        "Z": _by_node(ids, result.Z),
        "R": _by_node(ids, result.R),
        "gap": _by_node(ids, result.gap),
        "max_gap": _f(result.max_gap),
        "u_star": {nid: u for k in range(N) for nid, u in zip(ids[k], result.u_star(k))},
        "v_star": {nid: v for k in range(N) for nid, v in zip(ids[k], result.v_star(k))},
        "K_plus": _by_node(ids, result.K_plus()),
        "K_minus": _by_node(ids, result.K_minus()),
        "oracle": oracle,
    }
    return EXIT_OK, bundle, None, game.barriers


def _cmd_verify(cfg, tree, ids, args):
    from .acceptance import run_all

    results = run_all(verbose=True)
    bundle = {
        "command": "verify",
        "criteria": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    code = EXIT_OK if bundle["passed"] else EXIT_VERIFY
    return code, bundle, None, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="treebsde",
        description="Exact tree-lattice solvers for reflected backward equations and stopping games.",
    )
    parser.add_argument("command", choices=["solve", "penalize", "game", "snell", "verify"])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="json")
    parser.add_argument("--workers", type=int, default=1,
                        help="layer-parallel worker count (never changes output bytes)")
    parser.add_argument("--node-cap", type=int, default=None, help="tree node-count cap override")
    parser.add_argument("--seed", type=int, default=42,
                        help="seed for the randomized Lipschitz probe")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        tree = build_tree_from_config(cfg, args.node_cap) if args.command != "verify" else None
        handler = {
            "solve": _cmd_solve, "penalize": _cmd_penalize, "snell": _cmd_snell,
            "game": _cmd_game, "verify": _cmd_verify,
        }[args.command]
        ids = node_id_table(tree) if tree is not None else None
        code, bundle, sol, barriers = handler(cfg, tree, ids, args)
    except ConfigError as exc:
        print(f"config error at {exc.path}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    except TreeBsdeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    if args.format in ("json", "both") or args.command == "verify":
        _write_json(out / "bundle.json", bundle)
    if args.format in ("csv", "both") and sol is not None:
        _write_values_csv(out / "values.csv", tree, ids, sol)
        plot_path = cfg.get("output", {}).get("plot_path")
        if plot_path is not None and barriers is not None:
            _write_plot_csv(out / "plot.csv", tree, sol, barriers, plot_path)
    _write_json(out / "metadata.json", {
        "command": args.command,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "wall_time_seconds": time.perf_counter() - t0,
        "versions": {"treebsde": __version__, "numpy": np.__version__},
    })
    if code == EXIT_VALIDATION:
        print("validation failed; see bundle.json", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
