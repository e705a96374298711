"""Command-line front end: config ingestion, dispatch, deterministic serialization.

Commands: solve (two-barrier), penalize (bracket schemes), snell (one
barrier), game (mixed control/stopping), verify (full certification
suite).  The JSON bundle written for a given config is byte-identical
across runs; wall time and versions live in a separate metadata file.

Exit codes: 0 success, 1 verify failure, 2 config or argument error,
3 validation failure, 4 solver error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .drbsde import backward_clamped_solve, penalization_bracket
from .errors import ConfigError, NonFiniteOutput, TooLargeToEnumerate, TreeBsdeError, UnknownForm
from .game import ControlGrid, GameSpec, brute_force_game_oracle, solve_game
from .lattice import (DEFAULT_NODE_CAP, MAX_ID_MARKS, AdaptedValues, MarkSet, TimeGrid, Tree, build_tree,
                      evaluate_form, forward_state, node_id_table)
from .model import (DEFAULT_PROBE_SEED, GENERATOR_PARAMS, GeneratorSpec, ProblemSpec, barriers_from_functions,
                    validate)
from .snell import solve_one_barrier

SCHEMA_VERSION = 1
EXIT_OK, EXIT_VERIFY, EXIT_PARSE, EXIT_VALIDATION, EXIT_SOLVER = 0, 1, 2, 3, 4


# ---------------------------------------------------------------- config


def _need(section, key, path):
    if not isinstance(section, dict) or key not in section:
        raise ConfigError(f"{path}.{key}", "missing required key")
    return section[key]


def _section(parent: dict, path: str) -> dict:
    """The optional object at ``path`` (its last key read from ``parent``); {} when absent."""
    value = parent.get(path.rpartition(".")[2])
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    return value


def _number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the largest float
        raise ConfigError(path, "expected a number, got an integer too large for a float")


def _integer(value, path):
    """An integral config value: an int, or a float with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _list(value, path, count=None) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, "expected a list")
    if count is not None and len(value) != count:
        raise ConfigError(path, f"expected {count} entries")
    return value


def _numbers(value, path, *shape) -> list:
    """A list of numbers as floats, nested one level per entry of ``shape`` (the lengths)."""
    value = _list(value, path, shape[0] if shape else None)
    if len(shape) > 1:
        return [_numbers(v, f"{path}[{i}]", *shape[1:]) for i, v in enumerate(value)]
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


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


# each barrier and terminal form: its number keys, in the order they are
# parsed, and the builder of its (t, x) function from those numbers
_FORMS = {
    "constant": (("value",), lambda value: lambda t, x: value),
    "affine-time": (("a", "b"), lambda a, b: lambda t, x: a + b * t),
    "affine-state": (("a", "b"), lambda a, b: lambda t, x: a + b * x),
    "state": ((), lambda: lambda t, x: x),
}


# every key some command reads: a dict per object, [dict] for a list of
# objects, None for a leaf, or a function of the object for keys that depend
# on its "form" (None for an unknown form, which the object's reader reports)
def _keys_of_form(table, obj, *fixed):
    form = obj.get("form")
    return dict.fromkeys(fixed + table[form]) if isinstance(form, str) and form in table else None


_STATE_KEYS = dict.fromkeys(("sigma", "gamma", "x0"))
_FORM = lambda obj: _keys_of_form({form: keys for form, (keys, _) in _FORMS.items()}, obj, "form")
_KNOWN_KEYS = {
    "schema": None, "grid": dict.fromkeys(("horizon", "steps")), "marks": [dict.fromkeys(("point", "rate"))],
    "solver": dict.fromkeys(("node_cap", "schedule")), "output": dict.fromkeys(("plot_path",)),
    "problem": {
        "state": _STATE_KEYS, "side": None, "terminal": _FORM,
        "generator": lambda obj: {"form": None, "lipschitz": None, "params": _keys_of_form(GENERATOR_PARAMS, obj)},
        "barriers": {"lower": _FORM, "upper": _FORM,
                     "flagged": [dict.fromkeys(("layer", "lower_pre", "upper_pre"))]},
    },
    "game": {**_STATE_KEYS, **dict.fromkeys(("drift", "running", "tilt")),
             "controls": dict.fromkeys(("A", "B"))},
}


def _reject_unknown_keys(node, known=_KNOWN_KEYS, path="$"):
    """Raise ConfigError at the first key that no command reads; values are checked by their readers."""
    known = known(node) if callable(known) and isinstance(node, dict) else known
    if isinstance(known, list) and isinstance(node, list):
        for i, item in enumerate(node):
            _reject_unknown_keys(item, known[0], f"{path}[{i}]")
    elif isinstance(known, dict) and isinstance(node, dict):
        for key, child in node.items():
            sub = key if path == "$" else f"{path}.{key}"
            if key not in known:
                raise ConfigError(sub, "unknown key; no command reads it")
            _reject_unknown_keys(child, known[key], sub)


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}")
    try:
        cfg = json.loads(text, parse_constant=_NonFinite, parse_float=_parse_float)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal of more digits than int() reads
        raise ConfigError(path, f"invalid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("$", "top level must be an object")
    _reject_non_finite(cfg)
    schema = cfg.get("schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema {schema!r}, expected {SCHEMA_VERSION}")
    _reject_unknown_keys(cfg)
    return cfg


def build_tree_from_config(cfg: dict) -> Tree:
    grid_cfg = _need(cfg, "grid", "$")
    horizon = _number(_need(grid_cfg, "horizon", "grid"), "grid.horizon")
    steps = _integer(_need(grid_cfg, "steps", "grid"), "grid.steps")
    try:
        grid = TimeGrid(horizon=horizon, steps=steps)
    except ValueError as exc:  # the grid's message starts with the field it refuses
        raise ConfigError("grid.steps" if str(exc).startswith("steps") else "grid.horizon", str(exc))
    points, rates = [], []
    entries = _list(cfg.get("marks", []), "marks")
    if len(entries) > MAX_ID_MARKS:
        raise ConfigError("marks", f"{len(entries)} marks: node ids spell each mark by one digit, "
                                   f"so at most {MAX_ID_MARKS} marks are allowed")
    for i, entry in enumerate(entries):
        point = _number(_need(entry, "point", f"marks[{i}]"), f"marks[{i}].point")
        # gamma and tilt are per-mark lists that the callbacks read by point
        if point in points:
            raise ConfigError(f"marks[{i}].point", f"mark point {point!r} is repeated")
        points.append(point)
        rates.append(_number(_need(entry, "rate", f"marks[{i}]"), f"marks[{i}].rate"))
    try:
        marks = MarkSet(points=tuple(points), rates=tuple(rates))
    except ValueError as exc:
        bad = next(i for i, rate in enumerate(rates) if not rate > 0)
        raise ConfigError(f"marks[{bad}].rate", str(exc))
    cap = _integer(_section(cfg, "solver").get("node_cap", DEFAULT_NODE_CAP), "solver.node_cap")
    if cap < 1:
        raise ConfigError("solver.node_cap", f"the node cap must be >= 1, got {cap}")
    return build_tree(grid, marks, node_cap=cap)


def _form_function(parent, key, parent_path, kind):
    """The (t, x) callable of the barrier or terminal form at ``key``, its numbers parsed once."""
    path = f"{parent_path}.{key}"
    spec = _need(parent, key, parent_path)
    form = _need(spec, "form", path)
    if not isinstance(form, str) or form not in _FORMS:
        raise ConfigError(f"{path}.form", f"unknown {kind} form {form!r}")
    keys, build = _FORMS[form]
    return build(*(_number(_need(spec, key, path), f"{path}.{key}") for key in keys))


def _state_coefficients(section: dict, path: str, points: tuple) -> dict:
    """A state block's constant sigma, per-mark gamma and x0, as forward_state/GameSpec keywords."""
    sigma = _number(section.get("sigma", 1.0), f"{path}.sigma")
    gamma = _numbers(section.get("gamma", [0.0] * len(points)), f"{path}.gamma", len(points))
    lookup = dict(zip(points, gamma))
    return {
        "sigma": lambda t, x: np.full_like(x, sigma),
        "gamma": lambda t, e, x: np.full_like(x, lookup[e]),
        "x0": _number(section.get("x0", 0.0), f"{path}.x0"),
    }


def build_problem(cfg: dict, tree: Tree) -> ProblemSpec:
    pcfg = _need(cfg, "problem", "$")
    if not isinstance(pcfg, dict):
        raise ConfigError("problem", f"expected an object, got {pcfg!r}")
    state = None
    if pcfg.get("state") is not None:
        scfg = _section(pcfg, "problem.state")
        state = forward_state(tree, **_state_coefficients(scfg, "problem.state", tree.marks.points))

    gcfg = _need(pcfg, "generator", "problem")
    form = _need(gcfg, "form", "problem.generator")
    # numbers, and one mark weight d per mark (a bare number with one mark)
    m = tree.marks.m
    params = {
        key: _numbers(v, f"problem.generator.params.{key}", m) if key == "d" and isinstance(v, list)
        else _number(v, f"problem.generator.params.{key}")
        for key, v in _section(gcfg, "problem.generator.params").items()
    }
    if not isinstance(params.get("d", []), list) and m != 1:
        raise ConfigError("problem.generator.params.d", f"expected {m} entries, one per mark")
    lipschitz = _number(gcfg.get("lipschitz", 0.0), "problem.generator.lipschitz")
    try:
        generator = GeneratorSpec(form=form, params=params, lipschitz=lipschitz)
    except ConfigError as exc:
        raise ConfigError(f"problem.generator.{exc.path}", exc.message)
    except UnknownForm as exc:
        raise ConfigError("problem.generator.form", str(exc))

    bcfg = _need(pcfg, "barriers", "problem")
    lower = _form_function(bcfg, "lower", "problem.barriers", "barrier")
    upper = _form_function(bcfg, "upper", "problem.barriers", "barrier")
    flagged = {}
    for i, entry in enumerate(_list(bcfg.get("flagged", []), "problem.barriers.flagged")):
        path = f"problem.barriers.flagged[{i}]"
        k = _integer(_need(entry, "layer", path), f"{path}.layer")
        if not 1 <= k <= tree.grid.steps:
            raise ConfigError(f"{path}.layer", f"layer must be in [1, {tree.grid.steps}]")
        if k in flagged:
            raise ConfigError(f"{path}.layer", f"layer {k} is flagged twice")
        # a missing pre-jump value means no jump on that side
        flagged[k] = tuple(
            _number(entry[key], f"{path}.{key}") if entry.get(key) is not None else None
            for key in ("lower_pre", "upper_pre")
        )
    barriers = barriers_from_functions(tree, lower, upper, state, flagged)
    terminal_fn = _form_function(pcfg, "terminal", "problem", "terminal")
    terminal = evaluate_form(tree, terminal_fn, state, tree.grid.steps)
    return ProblemSpec(tree, generator, barriers, terminal, state)


def build_game(cfg: dict, problem: ProblemSpec) -> GameSpec:
    """The game section, paid with ``problem``'s barriers and terminal value."""
    tree = problem.tree
    gcfg = _need(cfg, "game", "$")
    ccfg = _need(gcfg, "controls", "game")
    # the grids keep their JSON values, which u_star/v_star echo
    A, B = (_need(ccfg, key, "game.controls") for key in ("A", "B"))
    for key, grid in (("A", A), ("B", B)):
        values = _numbers(grid, f"game.controls.{key}")
        if not values:
            raise ConfigError("game.controls", "control grids must be non-empty")
        # repeated values would share one row of the payoff tables
        for i, u in enumerate(values):
            if u in values[:i]:
                raise ConfigError(f"game.controls.{key}[{i}]", f"control value {u!r} is repeated")
    p, q, m = len(A), len(B), tree.marks.m

    def table(key, *shape):
        raw = gcfg.get(key)
        return None if raw is None else np.asarray(_numbers(raw, f"game.{key}", *shape))

    drift_t, running_t, tilt_t = table("drift", p, q), table("running", p, q), table("tilt", p, q, m)
    idx_a = {u: i for i, u in enumerate(A)}
    idx_b = {v: i for i, v in enumerate(B)}
    idx_e = {e: j for j, e in enumerate(tree.marks.points)}

    coefficients = _state_coefficients(gcfg, "game", tree.marks.points)
    if gcfg.get("sigma") == 0.0:
        raise ConfigError("game.sigma", "sigma must be nonzero")
    return GameSpec(
        tree=tree,
        controls=ControlGrid(A=A, B=B),
        barriers=problem.barriers,
        terminal=problem.terminal,
        drift=(lambda t, x, u, v: np.full_like(x, drift_t[idx_a[u], idx_b[v]]))
        if drift_t is not None else None,
        running=(lambda t, x, u, v: np.full_like(x, running_t[idx_a[u], idx_b[v]]))
        if running_t is not None else None,
        tilt=(lambda t, e, x, u, v: np.full_like(x, tilt_t[idx_a[u], idx_b[v], idx_e[e]]))
        if tilt_t is not None else None,
        **coefficients,
    )


def _plot_nodes(cfg: dict, tree: Tree):
    """(layer, node) pairs along ``output.plot_path``, or None when it is absent."""
    path_str = _section(cfg, "output").get("plot_path")
    if path_str is None:
        return None
    if not isinstance(path_str, str) or len(path_str) > tree.grid.steps:
        raise ConfigError("output.plot_path",
                          f"expected at most {tree.grid.steps} branch labels, got {path_str!r}")
    labels = {label: branch for branch, label in enumerate(tree.branch_labels())}
    nodes = [(0, 0)]
    for k, ch in enumerate(path_str):
        if ch not in labels:
            raise ConfigError("output.plot_path", f"unknown branch label {ch!r}")
        nodes.append((k + 1, tree.child(nodes[-1][1], labels[ch])))
    return nodes


# ---------------------------------------------------------------- output
#
# The bundle holds AdaptedValues where its JSON holds a map from node id to
# that node's value (a list for vector-valued layers).  _json_text writes
# those maps from the arrays, in exactly the bytes json.dumps(sort_keys=True,
# indent=2) gives for the maps; json.dumps writes every other value.  Every
# float of the node maps and the CSV tables goes through _formatted, and each
# file's text is joined once.


def _formatted(values, fmt, prefixes: list, name: str) -> list:
    """``prefixes[i]`` and ``fmt(values[i])`` for every i in turn: the parts of one join.

    ``values`` are floats in output order.  Each distinct bit pattern is
    formatted once, so -0.0 and 0.0 keep their own texts.  Raises
    NonFiniteOutput, naming the file ``name``, if a value is a NaN or an
    infinity.
    """
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    patterns, inverse = np.unique(bits, return_inverse=True)
    floats = patterns.view(float)
    if not np.all(np.isfinite(floats)):
        raise NonFiniteOutput(f"{name} would hold a NaN or an infinity")
    texts = list(map(fmt, floats.tolist()))
    parts = [""] * (2 * len(prefixes))
    parts[::2] = prefixes
    parts[1::2] = map(texts.__getitem__, inverse.tolist())
    return parts


def _json_text(obj, ids: list | None, name: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` and a newline.

    Each AdaptedValues in ``obj`` is written as the map from node id to its
    value; ``ids`` is the node-id table of their tree.  A dict that holds one
    at some depth is written key by key (its keys must be strings), and every
    other value by json.dumps, each of its lines indented to its depth.  An
    AdaptedValues inside a list is not supported.  Raises NonFiniteOutput,
    naming the file ``name``, where a float is a NaN or an infinity.
    """
    out = []
    node_keys = {}  # (first layer, last layer, level) -> (gather order, key prefixes)

    def keys_of(values: AdaptedValues, level: int):
        """The sorted node order of ``values``' layers and the text before each node's value."""
        span = (values.first_layer, values.last_layer, level)
        if span not in node_keys:
            # as dict.update would, a repeated id keeps its last offset
            at, offset = {}, 0
            for k in range(values.first_layer, values.last_layer + 1):
                at.update(zip(ids[k], range(offset, offset + len(ids[k]))))
                offset += len(ids[k])
            order = sorted(at)
            indent = "\n" + "  " * (level + 1)
            prefixes = [f",{indent}{key}: " for key in map(encode_basestring_ascii, order)]
            if prefixes:
                prefixes[0] = prefixes[0][1:]
            node_keys[span] = np.fromiter(map(at.__getitem__, order), np.intp, len(order)), prefixes
        return node_keys[span]

    def node_map(values: AdaptedValues, level: int):
        order, prefixes = keys_of(values, level)
        if not prefixes:
            out.append("{}")
            return
        gathered = np.concatenate(values.layers)[order]
        out.append("{")
        if gathered.ndim == 1:
            out.extend(_formatted(gathered, float.__repr__, prefixes, name))
        elif gathered.shape[1] == 0:
            out.extend(p + "[]" for p in prefixes)
        else:
            # each node's list opens after its key and closes before the next key
            inner = "\n" + "  " * (level + 2)
            end = "\n" + "  " * (level + 1) + "]"
            starts = [f"{end}{p}[{inner}" for p in prefixes]
            starts[0] = starts[0][len(end):]
            entries = np.full(gathered.shape, "," + inner, dtype=object)
            entries[:, 0] = starts
            out.extend(_formatted(gathered.ravel(), float.__repr__, entries.ravel().tolist(), name))
            out.append(end)
        out.append("\n" + "  " * level + "}")

    def holds_map(o) -> bool:
        return isinstance(o, AdaptedValues) or isinstance(o, dict) and any(map(holds_map, o.values()))

    def encode(o, level: int):
        if isinstance(o, AdaptedValues):
            node_map(o, level)
        elif holds_map(o):
            indent = "\n" + "  " * (level + 1)
            out.append("{")
            for i, (key, value) in enumerate(sorted(o.items())):
                out.append(f"{',' if i else ''}{indent}{encode_basestring_ascii(key)}: ")
                encode(value, level + 1)
            out.append("\n" + "  " * level + "}")
        else:
            try:
                text = json.dumps(o, sort_keys=True, indent=2, allow_nan=False)
            except ValueError:  # a NaN or an infinity
                raise NonFiniteOutput(f"{name} would hold a NaN or an infinity") from None
            # a JSON text holds no raw newline inside a string
            out.append(text.replace("\n", "\n" + "  " * level))

    encode(obj, 0)
    out.append("\n")
    return "".join(out)


def _outcomes(results) -> list:
    """Validation checks or verify criteria as the bundle writes them."""
    return [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]


def _report_dict(report) -> dict:
    return {"passed": report.passed, "checks": _outcomes(report.checks)}


def _values_csv(tree: Tree, ids: list, sol: dict) -> str:
    """The solve bundle's ``solution`` as one row per node."""
    m, N = tree.marks.m, tree.grid.steps
    pushes = [sol[key] for key in ("dK_c_plus", "dK_d_plus", "dK_c_minus", "dK_d_minus", "K_plus", "K_minus")]
    cols = ["node_id", "layer", "time", "Y"] + ["Z"] + [f"V_{j + 1}" for j in range(m)]
    cols += ["Kc_plus", "Kd_plus", "Kc_minus", "Kd_minus", "K_plus", "K_minus"]
    g = "{:.17g}".format
    values, prefixes = [], []
    for k in range(tree.n_layers):
        fields = [sol["Y"]] + ([sol["Z"], sol["V"]] if k < N else []) + pushes
        block = np.column_stack([f.layer(k) for f in fields])
        cells = np.full(block.shape, ",", dtype=object)
        head = f",{k},{g(float(tree.grid.time(k)))},"
        cells[:, 0] = [f"\n{nid}{head}" for nid in ids[k]]
        if k == N:  # Z and V_1..V_m are empty at the horizon
            cells[:, 1] = "," * (m + 2)
        values.append(block.ravel())
        prefixes += cells.ravel().tolist()
    return "".join([",".join(cols), *_formatted(np.concatenate(values), g, prefixes, "values.csv"), "\n"])


def _plot_csv(tree: Tree, sol: dict, barriers, nodes) -> str:
    rows = [(tree.grid.time(k), sol["Y"].layer(k)[node], barriers.lower.layer(k)[node],
             barriers.upper.layer(k)[node]) for k, node in nodes]
    prefixes = ["\n", ",", ",", ","] * len(rows)
    return "".join(["time,Y,lower,upper", *_formatted(np.ravel(rows), "{:.17g}".format, prefixes, "plot.csv"),
                    "\n"])


# ---------------------------------------------------------------- commands
#
# Each handler takes the config, the validated problem (the game, for
# `game`) and the node-id table, and returns (bundle, the solution the CSV
# tables are written from or None, entries for metadata.json).  The bundle
# holds AdaptedValues where bundle.json holds node maps.


def _cmd_solve(cfg, problem, ids):
    sol = backward_clamped_solve(problem)
    solution = {
        "Y": sol.Y, "Z": sol.Z, "V": sol.V,
        "dK_c_plus": sol.dKc_plus, "dK_c_minus": sol.dKc_minus,
        "dK_d_plus": sol.dKd_plus, "dK_d_minus": sol.dKd_minus,
        "K_plus": sol.K_plus(), "K_minus": sol.K_minus(),
    }
    return {"command": "solve", "solution": solution}, solution, {}


def _cmd_penalize(cfg, problem, ids):
    schedule = _section(cfg, "solver").get("schedule")
    if schedule is not None:
        schedule = [_integer(n, f"solver.schedule[{i}]")
                    for i, n in enumerate(_list(schedule, "solver.schedule"))]
        for i, n in enumerate(schedule):  # the penalty reads each level as a float
            _number(n, f"solver.schedule[{i}]")
    try:
        trace = penalization_bracket(problem, schedule=schedule)
    except ValueError as exc:
        raise ConfigError("solver.schedule", str(exc))
    bundle = {
        "command": "penalize",
        "levels": trace.levels,
        "widths": [float(w) for w in trace.widths],
        "final_width": float(trace.final_width),
        "Y_increasing": trace.increasing[-1],
        "Y_decreasing": trace.decreasing[-1],
    }
    return bundle, None, {"resolved_nodes": trace.resolved}


def _cmd_snell(cfg, problem, ids):
    side = cfg["problem"].get("side", "upper")
    if side not in ("upper", "lower"):
        raise ConfigError("problem.side", f"side must be 'upper' or 'lower', got {side!r}")
    sol = solve_one_barrier(problem, side=side)
    # the upper barrier pushes down (the _minus side), the lower one up
    if side == "upper":
        dkc, dkd, K = sol.dKc_minus, sol.dKd_minus, sol.K_minus()
    else:
        dkc, dkd, K = sol.dKc_plus, sol.dKd_plus, sol.K_plus()
    bundle = {"command": "snell", "side": side,
              "Y": sol.Y, "Z": sol.Z, "V": sol.V, "dK_c": dkc, "dK_d": dkd, "K": K}
    return bundle, None, {}


def _cmd_game(cfg, game, ids):
    result = solve_game(game)
    try:
        supinf, infsup = brute_force_game_oracle(game)
        oracle = {"supinf": float(supinf), "infsup": float(infsup),
                  "Y_root": float(result.Y.layer(0)[0])}
    except TooLargeToEnumerate as exc:
        oracle = {"skipped": str(exc)}
    N = game.tree.grid.steps
    bundle = {
        "command": "game",
        "max_gap": float(result.max_gap),
        "u_star": {nid: u for k in range(N) for nid, u in zip(ids[k], result.u_star(k))},
        "v_star": {nid: v for k in range(N) for nid, v in zip(ids[k], result.v_star(k))},
        "oracle": oracle,
        "Y": result.Y, "Z": result.Z, "R": result.R, "gap": result.gap,
        "K_plus": result.sweep.K_plus(), "K_minus": result.sweep.K_minus(),
    }
    return bundle, None, {}


_COMMANDS = {"solve": _cmd_solve, "penalize": _cmd_penalize, "snell": _cmd_snell, "game": _cmd_game}


def _run(cfg: dict, args) -> tuple:
    """Parse, validate and solve one problem command.

    Returns (exit code, bundle, node-id table, {csv name: function of its
    text}, entries for metadata.json).  Every config error is raised here,
    before anything is written.
    """
    tree = build_tree_from_config(cfg)
    ids = node_id_table(tree)
    problem = build_problem(cfg, tree)
    # the game section is parsed before validation, so its errors exit 2 and not 3
    subject = build_game(cfg, problem) if args.command == "game" else problem
    writes_csv = args.format != "json"
    plot = _plot_nodes(cfg, tree) if writes_csv else None
    report = validate(problem, require_h=args.command != "snell", seed=args.seed)
    if not report.passed:
        return EXIT_VALIDATION, {"validation": _report_dict(report)}, ids, {}, {}
    bundle, solution, meta = _COMMANDS[args.command](cfg, subject, ids)
    if args.command != "game":  # the game bundle does not carry the problem's report
        bundle["validation"] = _report_dict(report)
    tables = {}
    if writes_csv and solution is not None:
        tables["values.csv"] = partial(_values_csv, tree, ids, solution)
        if plot is not None:
            tables["plot.csv"] = partial(_plot_csv, tree, solution, problem.barriers, plot)
    return EXIT_OK, bundle, ids, tables, meta


def _cmd_verify() -> tuple:
    from .acceptance import run_all

    results = run_all()
    bundle = {
        "command": "verify",
        "criteria": _outcomes(results),
        "passed": all(r.passed for r in results),
    }
    return (EXIT_OK if bundle["passed"] else EXIT_VERIFY), bundle, None, {}, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="treebsde",
        description="Exact tree-lattice solvers for reflected backward equations and stopping games.",
    )
    parser.add_argument("command", choices=["solve", "penalize", "game", "snell", "verify"])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["json", "csv", "both"], default="json")
    parser.add_argument("--seed", type=int, default=DEFAULT_PROBE_SEED,
                        help="seed for the randomized Lipschitz probe")
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command in ("snell", "penalize", "game"):
        # only solve has CSV tables; refuse before anything is solved or written
        print(f"argument error at --format: {args.command} writes no CSV table; "
              "use --format json", file=sys.stderr)
        return EXIT_PARSE
    # refuse a bad --out before any work: it, or else its nearest existing ancestor, is a directory
    out = Path(args.out)
    existing = next((p for p in (out, *out.parents) if os.path.exists(p)), None)
    if existing is not None and not existing.is_dir():
        print(f"argument error at --out: {existing} is not a directory", file=sys.stderr)
        return EXIT_PARSE

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config)
        t_parsed = time.perf_counter()
        code, bundle, ids, tables, meta = _cmd_verify() if args.command == "verify" else _run(cfg, args)
        t_solved = time.perf_counter()
        # every file's text, the bundle's first, before anything is written; verify and
        # a run stopped at validation have the bundle only, so they write it in any format
        texts = {}
        if args.format != "csv" or args.command == "verify" or code == EXIT_VALIDATION:
            texts["bundle.json"] = _json_text(bundle, ids, "bundle.json")
        texts.update((name, table()) for name, table in tables.items())
        t_serialized = time.perf_counter()
    except ConfigError as exc:
        print(f"config error at {exc.path}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    except TreeBsdeError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER

    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out / name).write_text(text)
        t_written = time.perf_counter()
        canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        metadata = {
            "command": args.command,
            "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "phase_seconds": {
                "parse": t_parsed - t0, "build_and_solve": t_solved - t_parsed,
                "serialize": t_serialized - t_solved, "write": t_written - t_serialized,
            },
            "wall_time_seconds": time.perf_counter() - t0,
            "versions": {"treebsde": __version__, "numpy": np.__version__},
            **meta,
        }
        (out / "metadata.json").write_text(_json_text(metadata, None, "metadata.json"))
    except OSError as exc:  # --out cannot be created or written
        print(f"argument error at --out: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if code == EXIT_VALIDATION:
        print("validation failed; see bundle.json", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
