"""The benchmark workloads: set-up, timed operations and output checks.

Each operation is one call into treebsde's public API or one in-process
``treebsde.cli.main`` call.  Its check runs after the call, outside the
timed region, and a failed check counts the operation as failed.  Every
call goes through a module attribute looked up at call time, so the
tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
import treebsde.cli
from treebsde import drbsde, game, model, snell

CLI_STEPS = 8
SOLVE_STEPS = 12
ROOT_TOL = 1e-9
PICARD_TOL = 1e-10
NODE_TOL = 1e-9
ROUTE_TOL = 1e-10
ORACLE_TOL = 1e-9


@dataclass
class Op:
    name: str  # metric name of the operation's time
    run: object  # run(ctx) -> output
    check: object  # check(ctx, output) -> detail string, "" when the output is correct


@dataclass
class Workload:
    name: str
    setup: object  # setup(seed, workdir) -> ctx
    ops: list
    prepare: object  # prepare(ctx): references for the checks, untimed


def _max_diff(a, b) -> float:
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a.layers, b.layers))


def _outside(values, bound, above: bool) -> bool:
    """True if some node's value lies above (or below) the bound by more than NODE_TOL."""
    for v, b in zip(values.layers, bound.layers):
        if np.any(v > b + NODE_TOL) if above else np.any(v < b - NODE_TOL):
            return True
    return False


# ---------------------------------------------------------------- CLI


def _cli(command: str, config_key: str, fmt: str = "json"):
    """Run ``treebsde <command>`` in-process on the config stored under ``config_key``."""

    def run(ctx):
        out = Path(ctx.workdir) / command
        argv = [command, "--config", getattr(ctx, config_key), "--out", str(out),
                "--format", fmt, "--seed", str(ctx.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = treebsde.cli.main(argv)
        return code, out

    return run


def _cli_check(command: str, extra=None):
    """Exit code 0, validation passed, stable bundle bytes, then ``extra(ctx, bundle)``."""

    def check(ctx, output):
        code, out = output
        if code != 0:
            return f"exit code {code}"
        raw = (out / "bundle.json").read_bytes()
        ctx.bytes_written += sum(
            (out / f).stat().st_size for f in ("bundle.json", "values.csv", "plot.csv")
            if (out / f).exists()
        )
        digest = hashlib.sha256(raw).hexdigest()
        first = ctx.bundle_sha256.setdefault(command, digest)
        if digest != first:
            return "bundle.json bytes differ from the first pass"
        bundle = json.loads(raw)
        if "validation" in bundle and not bundle["validation"]["passed"]:
            return "validation failed"
        return extra(ctx, bundle) if extra is not None else ""

    return check


def _root_matches_library(ctx, bundle) -> str:
    root = bundle["solution"]["Y"][""]
    if abs(root - ctx.reference_root) > ROOT_TOL:
        return f"CLI root {root!r} != library root {ctx.reference_root!r}"
    return ""


def _verify_passed(ctx, bundle) -> str:
    return "" if bundle["passed"] is True else "verify bundle has passed != true"


def _oracle_brackets_root(ctx, bundle) -> str:
    o = bundle["oracle"]
    if "skipped" in o:
        return "game oracle skipped"
    if not o["supinf"] - ORACLE_TOL <= o["Y_root"] <= o["infsup"] + ORACLE_TOL:
        return f"supinf {o['supinf']} <= Y_root {o['Y_root']} <= infsup {o['infsup']} fails"
    return ""


def _setup_cli(seed, workdir):
    p = inputs.markov_params(seed, CLI_STEPS)
    problem = inputs.markov_problem(p)
    return SimpleNamespace(
        seed=seed, workdir=workdir, problem=problem, nodes=problem.tree.node_count(),
        config=inputs.write_config(workdir, "markov.json", inputs.markov_config(p)),
        suite=inputs.write_config(workdir, "suite.json", {"schema": 1}),
        game_config=inputs.write_config(workdir, "game.json", inputs.game_config(seed)),
    )


def _prepare_cli(ctx):
    ctx.reference_root = float(drbsde.backward_clamped_solve(ctx.problem).Y.layer(0)[0])


# ---------------------------------------------------------------- library


def _validate(ctx):
    return model.validate(ctx.problem, require_h=True, seed=ctx.seed)


def _check_validate(ctx, report):
    failed = [c.name for c in report.checks if not c.passed]
    return f"validation failed: {failed}" if failed else ""


def _check_solve(ctx, sol):
    bar = ctx.problem.barriers
    if _outside(sol.Y, bar.upper, above=True) or _outside(sol.Y, bar.lower, above=False):
        return "clamped solution leaves the barrier band"
    diff = _max_diff(sol.Y, ctx.reference_Y)
    return f"clamped solve differs from the reference solve by {diff:.3e}" if diff > NODE_TOL else ""


def _check_picard(ctx, output):
    sol, _ = output
    diff = _max_diff(sol.Y, ctx.reference_Y)
    return f"Picard differs from the clamped solve by {diff:.3e}" if diff > NODE_TOL else ""


def _check_bracket(ctx, trace):
    if _outside(trace.increasing[-1], ctx.reference_Y, above=True):
        return "increasing scheme above the clamped solution"
    if _outside(trace.decreasing[-1], ctx.reference_Y, above=False):
        return "decreasing scheme below the clamped solution"
    return ""


def _check_snell(ctx, sol):
    if _outside(sol.Y, ctx.problem.barriers.upper, above=True):
        return "one-barrier solution above the upper barrier"
    return ""


def _check_game(ctx, result):
    r1 = game.dynkin_value(ctx.game, result.u_index.layers, result.v_index.layers, route="R1")
    diff = _max_diff(r1, result.Y)
    return f"route R1 differs from the game value by {diff:.3e}" if diff > ROUTE_TOL else ""


LIBRARY_OPS = [
    Op("validate_s", _validate, _check_validate),
    Op("solve_s", lambda ctx: drbsde.backward_clamped_solve(ctx.problem), _check_solve),
    Op("picard_s", lambda ctx: drbsde.picard_solve(ctx.problem, tol=PICARD_TOL), _check_picard),
    Op("bracket_s", lambda ctx: drbsde.penalization_bracket(ctx.problem), _check_bracket),
    Op("snell_s", lambda ctx: snell.solve_one_barrier(ctx.problem, "upper"), _check_snell),
]


def _setup_markov(seed, workdir):
    p = inputs.markov_params(seed, SOLVE_STEPS)
    problem = inputs.markov_problem(p)
    spec = inputs.markov_game(seed, problem, p)
    return SimpleNamespace(seed=seed, workdir=workdir, problem=problem, game=spec,
                           nodes=problem.tree.node_count())


def _setup_path(seed, workdir):
    problem = inputs.path_problem(seed, SOLVE_STEPS)
    return SimpleNamespace(seed=seed, workdir=workdir, problem=problem,
                           nodes=problem.tree.node_count())


def _prepare_library(ctx):
    ctx.reference_Y = drbsde.backward_clamped_solve(ctx.problem).Y


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli", _setup_cli, [
            Op("cli_solve_s", _cli("solve", "config", "both"),
               _cli_check("solve", _root_matches_library)),
            Op("cli_snell_s", _cli("snell", "config"), _cli_check("snell")),
            Op("cli_penalize_s", _cli("penalize", "config"), _cli_check("penalize")),
            Op("certify_s", _cli("verify", "suite"), _cli_check("verify", _verify_passed)),
            Op("cli_game_s", _cli("game", "game_config"),
               _cli_check("game", _oracle_brackets_root)),
        ], _prepare_cli),
        Workload("markov-solve", _setup_markov, LIBRARY_OPS + [
            Op("game_s", lambda ctx: game.solve_game(ctx.game), _check_game),
        ], _prepare_library),
        Workload("path-solve", _setup_path, list(LIBRARY_OPS), _prepare_library),
    )
}
