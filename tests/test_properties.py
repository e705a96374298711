"""Property tests: the backward solvers against the brute-force oracles on random small trees."""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from treebsde import cli  # noqa: E402
from treebsde import (  # noqa: E402
    AdaptedValues,
    BarrierPair,
    GeneratorSpec,
    MarkSet,
    ProblemSpec,
    TimeGrid,
    TreeBsdeError,
    backward_clamped_solve,
    build_tree,
    dynkin_pair_oracle,
    evaluate_generator,
    optimal_stopping_oracle,
    picard_solve,
    reflected_sweep,
    represent_layer,
    snell_envelope,
    solve_one_barrier,
    validate,
)
from treebsde import drbsde, penalization_bracket  # noqa: E402
from treebsde.game import _saddle_from_table  # noqa: E402
from treebsde.oracles import MAX_PAIR_SLOTS  # noqa: E402
from treebsde.sweep import _free_part, first_step, make_drift_solver  # noqa: E402
from test_drbsde import reference_bracket, same_bits  # noqa: E402
from test_game import gathered_saddle, saddle_outcome  # noqa: E402

# a fixed, derandomized example set keeps the suite deterministic
PROPERTY = settings(max_examples=100, derandomize=True, deadline=None, database=None)


def random_tree(rng, N, m):
    marks = MarkSet((1.0,), (float(rng.uniform(0.1, 0.6)),)) if m else None
    return build_tree(TimeGrid(1.0, N), marks)


def random_layers(tree, rng, n_layers, ties):
    layers = [rng.normal(size=tree.layer_size(k)) for k in range(n_layers)]
    return AdaptedValues([np.round(a) if ties else a for a in layers], 0)


def pair_plans():
    """Every (N, m, flagged layers) with N <= 3 and m <= 1 whose stopping pairs fit the cap."""
    plans = []
    for N in (1, 2, 3):
        for m in (0, 1):
            b = m + 2
            for mask in range(2**N):
                flagged = tuple(j for j in range(1, N + 1) if mask >> (j - 1) & 1)
                if sum(b**j for j in range(N)) + sum(b**j for j in flagged) <= MAX_PAIR_SLOTS:
                    plans.append((N, m, flagged))
    return plans


@PROPERTY
@given(N=st.integers(1, 3), m=st.integers(0, 1), seed=st.integers(0, 2**32 - 1),
       with_drift=st.booleans(), ties=st.booleans())
def test_snell_envelope_equals_stopping_oracle(N, m, seed, with_drift, ties):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, m)
    payoff = random_layers(tree, rng, N + 1, ties)
    drift = random_layers(tree, rng, N, ties) if with_drift else None
    env = snell_envelope(tree, payoff, drift)
    oracle = optimal_stopping_oracle(tree, payoff, drift, mode="sup")
    for k in range(N + 1):
        assert np.max(np.abs(env.layer(k) - oracle.layer(k))) <= 1e-10


@PROPERTY
@given(plan=st.sampled_from(pair_plans()), seed=st.integers(0, 2**32 - 1), ties=st.booleans())
def test_clamped_root_equals_both_pair_oracle_bounds(plan, seed, ties):
    N, m, flagged_layers = plan
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, m)
    lower = random_layers(tree, rng, N + 1, ties)
    upper = AdaptedValues([lo + rng.uniform(0.5, 2.0, lo.shape) for lo in lower.layers], 0)
    flagged = {}
    for k in flagged_layers:
        lp = lower.layer(k) + rng.normal(0.0, 0.4, tree.layer_size(k))
        flagged[k] = (lp, lp + rng.uniform(0.4, 1.5, lp.shape))
    xi = lower.layer(N) + rng.uniform(0.05, 0.95, tree.layer_size(N)) * (upper.layer(N) - lower.layer(N))
    problem = ProblemSpec(tree, GeneratorSpec("constant", {"c0": 0.0}), BarrierPair(lower, upper, flagged), xi)
    drift = random_layers(tree, rng, N, ties)
    root = float(backward_clamped_solve(problem, frozen_drift=drift).Y.layer(0)[0])
    infsup, supinf = dynkin_pair_oracle(tree, xi, problem.barriers, drift=drift)
    assert abs(root - infsup) <= 1e-10
    assert abs(root - supinf) <= 1e-10


def outcome(fn, problem):
    """The bits of what ``fn(problem)`` returns (a sweep, a bracket, a validation report or numbers),
    or the error it raised."""
    try:
        result = fn(problem)
    except TreeBsdeError as err:
        return type(err).__name__, str(err)
    if hasattr(result, "checks"):
        return [(c.name, c.passed, c.detail) for c in result.checks]
    if hasattr(result, "widths"):
        return (result.levels, np.array(result.widths).tobytes(), result.resolved,
                [a.tobytes() for Y in result.increasing + result.decreasing for a in Y.layers])
    if hasattr(result, "left_limits"):
        return ([(name, a.tobytes()) for name, value in vars(result).items() if isinstance(value, AdaptedValues)
                 for a in value.layers] + [(k, a.tobytes()) for k, a in sorted(result.left_limits.items())])
    return np.array(result).tobytes()


@PROPERTY
@given(plan=st.sampled_from([plan for plan in pair_plans() if plan[2]]), seed=st.integers(0, 2**32 - 1),
       form=st.sampled_from(["constant", "affine", "lipschitz-clip"]))
def test_a_missing_pre_jump_side_is_its_at_time_array(plan, seed, form):
    # a flagged side given as None and the same side given as its at-time
    # array are one problem to every solver, check and oracle; the other
    # side's pre-jump values lie on both sides of that at-time barrier, so
    # the sweep has to clamp the missing side and check its separation (the
    # bracket's penalized side too: its pre-jump clamps stay exact)
    N, m, flagged_layers = plan
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, N, m)
    lower = random_layers(tree, rng, N + 1, False)
    upper = AdaptedValues([lo + rng.uniform(0.5, 2.0, lo.shape) for lo in lower.layers], 0)
    xi = lower.layer(N) + rng.uniform(0.05, 0.95, tree.layer_size(N)) * (upper.layer(N) - lower.layer(N))
    missing, given = {}, {}
    for k in flagged_layers:
        lo, up = lower.layer(k), upper.layer(k)
        if rng.uniform() < 0.5:
            missing[k] = (None, lo + rng.uniform(-0.5, 1.0, lo.shape))
        else:
            missing[k] = (up + rng.uniform(-1.0, 0.5, up.shape), None)
        given[k] = tuple(at.copy() if pre is None else pre for pre, at in zip(missing[k], (lo, up)))
    gen = GeneratorSpec(form, {"a0": 0.3, "b": -0.4, "c": 0.2, "d": [0.1] * m, "clip": 0.25}, lipschitz=1.0)
    problems = [ProblemSpec(tree, gen, BarrierPair(lower, upper, flagged), xi) for flagged in (missing, given)]
    runs = (backward_clamped_solve, lambda p: solve_one_barrier(p, "lower"), lambda p: solve_one_barrier(p, "upper"),
            lambda p: validate(p, require_h=True), lambda p: penalization_bracket(p, schedule=[1.0, 16.0, 256.0]),
            lambda p: dynkin_pair_oracle(tree, xi, p.barriers))
    for run in runs:
        assert outcome(run, problems[0]) == outcome(run, problems[1])


def push_problem(rng, N, m, form, flagged_layers):
    """A y-dependent generator between close per-node barriers, so that both sides tend to bind."""
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0, -1.0)[:m], (0.3, 0.2)[:m]) if m else None)
    lower = AdaptedValues([rng.normal(0.0, 0.6, tree.layer_size(k)) for k in range(N + 1)], 0)
    upper = AdaptedValues([lo + rng.uniform(0.1, 0.5, lo.shape) for lo in lower.layers], 0)
    xi = lower.layer(N) + rng.uniform(0.0, 1.0, tree.layer_size(N)) * (upper.layer(N) - lower.layer(N))
    flagged = {}
    for k in flagged_layers:
        lp = lower.layer(k) + rng.normal(0.0, 0.2, tree.layer_size(k))
        flagged[k] = (lp, lp + rng.uniform(0.1, 0.5, lp.shape))
    b, c, d = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 0.8), rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2, m)
    params = {"a0": rng.uniform(-1.0, 1.0), "a1": rng.uniform(-1.0, 1.0), "b": b, "c": c, "d": list(d),
              "clip": 0.6}
    gen = GeneratorSpec(form, params, lipschitz=abs(b) + abs(c) + float(np.linalg.norm(d)))
    return ProblemSpec(tree, gen, BarrierPair(lower, upper, flagged), xi)


def assert_discrete_equation(problem, sol, penalty=None):
    """Y = a + dt*f(Y, Z, V) + dKc+ - dKc- at every node, with pushes that only act where they bind.

    ``penalty`` is None or (side, level) of a penalized scheme, whose drift
    term +n*(L - Y)^+ or -n*(Y - U)^+ joins f.
    """
    tree, bar = problem.tree, problem.barriers
    dt = tree.grid.dt
    for k in range(tree.n_layers):
        Y = sol.Y.layer(k)
        lo, up = bar.lower.layer(k), bar.upper.layer(k)
        pushes = (sol.dKc_plus.layer(k), sol.dKc_minus.layer(k), sol.dKd_plus.layer(k), sol.dKd_minus.layer(k))
        for push in pushes:
            assert np.all(push >= 0.0)
        assert not np.any((pushes[0] > 0) & (pushes[1] > 0))
        assert not np.any((pushes[2] > 0) & (pushes[3] > 0))
        assert np.all(Y[pushes[0] > 0] == lo[pushes[0] > 0])
        assert np.all(Y[pushes[1] > 0] == up[pushes[1] > 0])
        if k in sol.left_limits:
            left = sol.left_limits[k]
            lp, upre = bar.flagged[k]
            assert np.all(left[pushes[2] > 0] == lp[pushes[2] > 0])
            assert np.all(left[pushes[3] > 0] == upre[pushes[3] > 0])
        if k == tree.grid.steps:
            continue
        cont = sol.left_limits.get(k + 1, sol.Y.layer(k + 1))
        a, z, v = represent_layer(tree, cont, k)
        drift = evaluate_generator(problem.generator, tree.grid.time(k), Y, z, v)
        if penalty is not None:
            side, n = penalty
            drift = drift + (n * np.maximum(lo - Y, 0.0) if side == "lower" else -n * np.maximum(Y - up, 0.0))
        residual = Y - (a + dt * drift + pushes[0] - pushes[1])
        assert np.max(np.abs(residual)) <= 1e-12


PUSH_INPUTS = dict(N=st.integers(2, 4), m=st.integers(0, 2), form=st.sampled_from(["affine", "lipschitz-clip"]),
                   flags=st.sets(st.integers(1, 4)), seed=st.integers(0, 2**32 - 1))


@PROPERTY
@given(level=st.sampled_from([1.0, 8.0, 100.0]), **PUSH_INPUTS)
def test_every_clamped_sweep_reports_the_push_of_the_discrete_equation(N, m, form, flags, level, seed):
    rng = np.random.default_rng(seed)
    problem = push_problem(rng, N, m, form, sorted(k for k in flags if k <= N))
    assert_discrete_equation(problem, backward_clamped_solve(problem))
    for side in ("lower", "upper"):
        assert_discrete_equation(problem, solve_one_barrier(problem, side))
    # each penalized scheme clamps on one side and penalizes the other
    for penalty in (("lower", level), ("upper", level)):
        assert_discrete_equation(problem, reflected_sweep(problem, penalty=penalty), penalty)


@PROPERTY
@given(**PUSH_INPUTS)
def test_clamped_pushes_equal_picard_fixed_point(N, m, form, flags, seed):
    problem = push_problem(np.random.default_rng(seed), N, m, form, sorted(k for k in flags if k <= N))
    sol = backward_clamped_solve(problem)
    assume(any(np.any(d > 0) for d in sol.dKc_plus.layers))
    assume(any(np.any(d > 0) for d in sol.dKc_minus.layers))
    ref, trace = picard_solve(problem, tol=1e-12, max_iter=200)
    assert trace[-1] < 1e-12
    for name in ("Y", "dKc_plus", "dKc_minus", "dKd_plus", "dKd_minus"):
        for k in range(problem.tree.n_layers):
            diff = getattr(sol, name).layer(k) - getattr(ref, name).layer(k)
            assert np.max(np.abs(diff)) <= 1e-12


ZERO_OR_VALUE = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3)


def clip_choice(x, lo, hi):
    """The generator's choice between pieces, as np.clip makes it: x above lo, else lo; that below hi, else hi."""
    x = np.where(x > lo, x, lo)
    return np.where(x < hi, x, hi)


def bracket_problem(rng, N, m, form, flagged_layers, zeros):
    """Barriers that bind on some nodes and a generator that meets the comparison condition.

    With ``zeros`` the terminal values and the upper barrier are signed
    zeros at random nodes, and a constant generator is zero.
    """
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0, -1.0)[:m], tuple(rng.uniform(0.1, 0.3, m))) if m else None)
    signed = lambda n: rng.choice([0.0, -0.0], n)
    lower = AdaptedValues([rng.normal(-0.5, 0.4, tree.layer_size(k)) for k in range(N + 1)], 0)
    upper = AdaptedValues([lo + rng.uniform(0.1, 1.5, lo.shape) for lo in lower.layers], 0)
    xi = rng.normal(0.0, 0.8, tree.layer_size(N))
    if zeros:
        upper = AdaptedValues([np.where((lo < 0.0) & (rng.uniform(size=lo.shape) < 0.5), signed(lo.shape[0]), up)
                               for lo, up in zip(lower.layers, upper.layers)], 0)
        xi = np.where(rng.uniform(size=xi.shape) < 0.5, signed(xi.shape[0]), xi)
    flagged = {}
    for k in flagged_layers:
        lo, up = lower.layer(k), upper.layer(k)
        lp = lo + rng.uniform(0.0, 0.5, lo.shape) * (up - lo)
        pre = (lp, lp + rng.uniform(0.1, 0.5, lp.shape) * (up - lp))
        flagged[k] = tuple(x if rng.uniform() < 0.8 else None for x in pre)
    # |c| <= 0.15 and |d_j| < 0.1 < lambda_j keep every one-step weight positive
    b, c, d = rng.uniform(-0.5, 0.5), rng.uniform(-0.15, 0.15), rng.uniform(-0.09, 0.09, m)
    params = {"a0": rng.uniform(-0.5, 0.5), "a1": rng.uniform(-0.5, 0.5), "b": b, "c": c, "d": list(d),
              "clip": rng.uniform(0.05, 1.0)}
    if form == "constant":
        gen = GeneratorSpec("constant", {"c0": 0.0 if zeros else params["a0"]})
    else:
        gen = GeneratorSpec(form, params, lipschitz=abs(b) + abs(c) + float(np.linalg.norm(d)))
    return ProblemSpec(tree, gen, BarrierPair(lower, upper, flagged), xi)


@PROPERTY
@given(N=st.integers(1, 4), m=st.integers(0, 2), form=st.sampled_from(["constant", "affine", "lipschitz-clip"]),
       flags=st.sets(st.integers(1, 4)), zeros=st.booleans(), seed=st.integers(0, 2**32 - 1),
       schedule=st.lists(st.floats(0.01, 1e12) | st.sampled_from([2.0**j for j in range(0, 41, 5)]),
                         min_size=1, max_size=8, unique=True))
def test_bracket_equals_the_full_sweep_of_every_level(N, m, form, flags, zeros, seed, schedule):
    # the later levels re-solve only the rows a level can change; the reference
    # runs every level in full, each sweep on its own copy of the problem
    rng = np.random.default_rng(seed)
    problem = bracket_problem(rng, N, m, form, sorted(k for k in flags if k <= N), zeros)
    schedule = sorted(schedule)
    levels, widths, inc, dec = reference_bracket(problem, schedule)
    trace = penalization_bracket(problem, schedule=schedule)
    assert trace.levels == levels
    assert np.array(trace.widths).tobytes() == np.array(widths).tobytes()
    assert same_bits(trace.increasing[0], inc) and same_bits(trace.decreasing[0], dec)
    below_N = 2 * sum(problem.tree.layer_size(k) for k in range(N))
    assert len(trace.resolved) == len(levels) and trace.resolved[0] == below_N
    assert all(0 <= r <= below_N for r in trace.resolved[1:])
    assert len(set(trace.resolved[1:])) <= 1  # the rows are fixed once the first level has run


@PROPERTY
@given(N=st.integers(1, 4), m=st.integers(0, 1), form=st.sampled_from(["constant", "affine", "lipschitz-clip"]),
       flags=st.sets(st.integers(1, 4)), seed=st.integers(0, 2**32 - 1), size=st.integers(1, 3),
       batches=st.integers(1, 3), stop=st.booleans())
def test_batched_bracket_equals_the_reference_bracket(N, m, form, flags, seed, size, batches, stop):
    # the later levels run as `batches` batches of `size` levels and a one-level
    # tail; a schedule rising to 2**40 stops early, often inside a batch
    rng = np.random.default_rng(seed)
    problem = bracket_problem(rng, N, m, form, sorted(k for k in flags if k <= N), zeros=False)
    tree, plan = problem.tree, [size] * batches + [1]
    schedule = [2.0 ** (40 * j / sum(plan)) if stop else 1.0 + j for j in range(sum(plan) + 1)]
    first = first_step(tree, problem.terminal, problem.barriers.flagged.get(N), problem.generator)
    values = [sum(tree.layer_size(k) for k, r in enumerate(drbsde._dependent_rows(tree, sol)) if r is None or r.size)
              for sol in (reflected_sweep(problem, penalty=(side, schedule[0]), first=first)
                          for side in ("lower", "upper"))]
    run, shapes = drbsde.reflected_sweep, []

    def sweep(problem, penalty, first, rows=None):
        shapes.append(np.shape(penalty[1]))
        return run(problem, penalty=penalty, first=first, rows=rows)

    with mock.patch.object(drbsde, "BATCH_VALUES", size * max(max(values), 1)), \
            mock.patch.object(drbsde, "reflected_sweep", sweep):
        trace = penalization_bracket(problem, schedule=schedule)
    levels, widths, inc, dec = reference_bracket(problem, schedule)
    assert trace.levels == levels
    assert np.array(trace.widths).tobytes() == np.array(widths).tobytes()
    assert same_bits(trace.increasing[0], inc) and same_bits(trace.decreasing[0], dec)
    # one sweep per scheme with rows to re-solve per batch, up to the batch that
    # stops; a batch of one level passes the level itself
    ran = next(i + 1 for i in range(len(plan)) if sum(plan[:i + 1]) >= len(levels) - 1) if len(levels) > 1 else 0
    assert shapes == [(), ()] + [(p, 1) if p > 1 else () for p in plan[:ran] for v in values if v]


@PROPERTY
@given(data=st.data(), side=st.sampled_from(["lower", "upper"]), level=st.sampled_from([1.0, 64.0, 2.0**20]),
       b=st.sampled_from([0.0, -0.4, 0.5]), clip=st.none() | st.sampled_from([0.0, 0.25]) | st.floats(0.0, 1e3))
def test_penalized_affine_layer_solve_is_the_elementwise_choice(data, side, level, b, clip):
    # the solve forms the binding piece on the binding nodes only; it must keep
    # the bits of choosing between the free and the binding piece at every node,
    # nodes on the barrier, signed zeros and NaN barrier values included; a
    # lipschitz-clip form (clip not None) chooses among its pieces as its generator does
    tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.3,)))
    k, n, dt = 1, tree.layer_size(1), tree.grid.dt
    a = np.array(data.draw(st.lists(ZERO_OR_VALUE, min_size=n, max_size=n)))
    z, v = np.zeros(n), np.zeros((n, 1))
    params = {"a0": data.draw(ZERO_OR_VALUE), "b": b}
    spec = GeneratorSpec("affine", params, lipschitz=abs(b)) if clip is None else \
        GeneratorSpec("lipschitz-clip", {**params, "clip": clip}, lipschitz=abs(b))
    num, y_free = _free_part(tree, spec, k, a, z, v)
    denom = 1.0 - dt * b
    pieces = lambda lin, lo, hi: lin if clip is None else clip_choice(lin, lo, hi)
    assert y_free.tobytes() == pieces(num / denom, a - dt * (clip or 0.0), a + dt * (clip or 0.0)).tobytes()
    drawn = np.array(data.draw(st.lists(ZERO_OR_VALUE | st.just(np.nan), min_size=n, max_size=n)))
    on = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    bar = np.where(on, y_free, drawn)
    barrier = AdaptedValues([np.zeros(1), bar, np.zeros(tree.layer_size(2))], 0)
    y, _, binds = make_drift_solver(tree, spec, penalty=(side, barrier, level))(k, a, z, v)
    bound = pieces(bar + (num - denom * bar) / (denom + level * dt),
                   bar + (a - dt * (clip or 0.0) - bar) / (1.0 + level * dt),
                   bar + (a + dt * (clip or 0.0) - bar) / (1.0 + level * dt))
    free = y_free >= bar if side == "lower" else y_free <= bar
    assert y.tobytes() == np.where(free, y_free, bound).tobytes()
    assert binds.tobytes() == np.flatnonzero(~free).tobytes()


H_ENTRY = (st.sampled_from([0.0, -0.0, 1.0, 1e-12, -1e-12, 5e-13, 3e-17]) | st.floats(-1e3, 1e3)
           | st.just(np.nan))


@PROPERTY
@given(data=st.data(), p=st.integers(1, 4), q=st.integers(1, 4), n=st.integers(1, 3))
def test_saddle_check_on_its_reductions_equals_the_gathered_check(data, p, q, n):
    # the check reads infsup and supinf where it gathered the selected row and
    # column: the same arrays and the same SaddleViolated on every table
    table = np.array(data.draw(st.lists(H_ENTRY, min_size=p * q * n, max_size=p * q * n))).reshape(p, q, n)
    assert saddle_outcome(_saddle_from_table, table) == saddle_outcome(gathered_saddle, table)


CONFIGS = {path.stem: json.loads(path.read_text())
           for path in sorted((Path(__file__).parents[1] / "configs").glob("*.json")) if path.stem != "suite"}


def draw_config_path(data, node):
    """A key path into a parsed config drawn one level at a time, so a whole section is as likely as a leaf."""
    path = []
    while isinstance(node, (dict, list)) and node and (not path or data.draw(st.booleans())):
        path.append(data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node)))))
        node = node[path[-1]]
    return path


def leaf_paths(node, path=()):
    """Every key path of a parsed config to a value that is not a non-empty object or list."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in leaf_paths(child, path + (key,))]
    return [list(path)]


JUNK = st.sampled_from([None, True, 0, -1, 2, 0.5, 1e308, -1e308, "x", "", [], {}, [0.5], {"form": "x"}])
CLI_RUNS = [(command, name) for name in CONFIGS for command in ("solve", "penalize", "snell", "game")
            if command != "game" or "game" in CONFIGS[name]]


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(data=st.data(), run=st.sampled_from(CLI_RUNS), fmt=st.sampled_from(["json", "both"]),
       junk=st.lists(JUNK, min_size=1, max_size=2))
def test_a_mutated_config_exits_with_a_code_and_no_traceback(data, run, fmt, junk):
    # one or two leaves or sections of a shipped config replaced by values of
    # another type or range: the CLI exits 0, 2 (naming a key path), 3 or 4 in
    # both output formats, never raises, and no value makes a run take long
    command, name = run
    cfg = json.loads(json.dumps(CONFIGS[name]))
    for value in junk:
        leaf = data.draw(st.booleans())
        *parents, last = data.draw(st.sampled_from(leaf_paths(cfg))) if leaf else draw_config_path(data, cfg)
        section = cfg
        for key in parents:
            section = section[key]
        section[last] = json.loads(json.dumps(value))  # a fresh copy: the next path may run into it
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        start = time.perf_counter()
        code = cli.main([command, "--config", str(config), "--out", str(Path(tmp) / "out"), "--format", fmt])
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("config error at ")
    assert elapsed < 1.0, (cfg, elapsed)
