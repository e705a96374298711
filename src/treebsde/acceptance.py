"""Desk-scale certification suite.

Eleven independent checks, each pitting a solver against an exhaustive
oracle or a structural identity that must hold exactly (or to a pinned
tolerance).  Every check is deterministic: randomized instances draw from
fixed seeds.  A check's body returns (passed, detail) only; one runner,
``_criterion``, times it, fails it past its time budget (given where the
check is declared: snell-oracle 10 s, dynkin-oracle 60 s, game-value
300 s, no budget for the others) and builds its ``CriterionResult``.
``run_all`` prints one PASS/FAIL line per check and is what the
command-line ``verify`` command and the test suite both call.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .drbsde import (
    backward_clamped_solve,
    mokobodski_certificate,
    penalization_bracket,
    picard_solve,
)
from .game import ControlGrid, GameSpec, brute_force_game_oracle, constant_control_map, dynkin_value, solve_game
from .lattice import AdaptedValues, MarkSet, TimeGrid, build_tree
from .model import BarrierPair, GeneratorSpec, ProblemSpec
from .oracles import dynkin_pair_oracle
from .snell import snell_envelope, optimal_stopping_oracle, solve_one_barrier


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} [{self.seconds:.2f}s]"


def _criterion(name: str, budget: float = math.inf):
    """Turn a body () -> (passed, detail) into a criterion () -> CriterionResult.

    The one place a criterion is timed: one that takes ``budget`` seconds
    or more fails, whatever its checks found.
    """
    def wrap(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body()
            seconds = time.perf_counter() - t0
            return CriterionResult(name, passed and seconds < budget, detail, seconds)
        return run
    return wrap


def _worst(values) -> float:
    """The largest of ``values``, NaN if any is NaN.

    Python's ``max`` keeps a NaN only when it comes first (``nan > x`` is
    false), so a running maximum of differences would drop a NaN and a
    check ``worst <= tol`` would pass it.
    """
    return float(np.max(list(values)))


def _max_diff(a: AdaptedValues, b: AdaptedValues) -> float:
    """The largest |a - b| over every layer, NaN if any difference is NaN."""
    return _worst(np.max(np.abs(x - y)) for x, y in zip(a.layers, b.layers, strict=True))


def _random_tree(rng, N, m):
    grid = TimeGrid(horizon=1.0, steps=N)
    if m == 0:
        return build_tree(grid)
    # keep lambda*dt comfortably below 1
    rate = float(rng.uniform(0.1, 0.6)) * N
    return build_tree(grid, MarkSet(points=(1.0,), rates=(rate,)))


def _random_layers(tree, rng, count, scale=1.0):
    """Normal(0, scale) values at every node of layers 0..count-1."""
    return AdaptedValues([rng.normal(0.0, scale, tree.layer_size(k)) for k in range(count)], 0)


def _separated_instance(rng, N, m, flagged_layers=(), generator=None):
    """Random strictly separated two-barrier problem plus a frozen drift."""
    tree = _random_tree(rng, N, m)
    low, up, flagged = [], [], {}
    for k in range(tree.n_layers):
        n = tree.layer_size(k)
        lo = rng.normal(-1.0, 0.5, n)
        low.append(lo)
        up.append(lo + rng.uniform(0.5, 2.0, n))
    for k in flagged_layers:
        n = tree.layer_size(k)
        lp = low[k] + rng.normal(0.0, 0.4, n)
        flagged[k] = (lp, lp + rng.uniform(0.4, 1.5, n))
    xi = low[-1] + rng.uniform(0.05, 0.95, tree.layer_size(N)) * (up[-1] - low[-1])
    barriers = BarrierPair(AdaptedValues(low, 0), AdaptedValues(up, 0), flagged)
    gen = generator if generator is not None else GeneratorSpec("constant", {"c0": 0.0})
    return ProblemSpec(tree, gen, barriers, xi), _random_layers(tree, rng, N, 0.6)


@_criterion("snell-oracle-equivalence", budget=10.0)
def criterion_snell_oracle():
    """Envelope recursion equals exhaustive stopping enumeration, 1e-10."""
    rng = np.random.default_rng(101)
    shapes = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)]
    worst = 0.0
    for i in range(50):
        N, m = shapes[i % len(shapes)]
        tree = _random_tree(rng, N, m)
        payoff = _random_layers(tree, rng, tree.n_layers)
        drift = _random_layers(tree, rng, N, 0.5) if i % 2 else None
        env = snell_envelope(tree, payoff, drift)
        oracle = optimal_stopping_oracle(tree, payoff, drift, mode="sup")
        worst = _worst((worst, _max_diff(env, oracle)))
    return worst <= 1e-10, f"50 instances, max |diff| = {worst:.2e}"


@_criterion("dynkin-oracle-equivalence", budget=60.0)
def criterion_dynkin_oracle():
    """Clamped two-barrier root value equals stopping-pair enumeration, 1e-10."""
    rng = np.random.default_rng(102)
    plans = [
        (2, 0, ()), (2, 0, (1,)), (2, 0, (2,)), (2, 0, (1, 2)),
        (3, 0, ()), (3, 0, (1,)), (1, 1, ()), (1, 1, (1,)), (2, 1, ()), (2, 1, (1,)),
    ]
    worst = 0.0
    for i in range(50):
        N, m, flags = plans[i % len(plans)]
        problem, drift = _separated_instance(rng, N, m, flags)
        sol = backward_clamped_solve(problem, frozen_drift=drift)
        infsup, supinf = dynkin_pair_oracle(problem.tree, problem.terminal, problem.barriers, drift=drift)
        root = float(sol.Y.layer(0)[0])
        worst = _worst((worst, abs(root - infsup), abs(root - supinf)))
    return worst <= 1e-10, f"50 instances, max |diff| = {worst:.2e}"


@_criterion("penalization-bracket")
def criterion_penalization_bracket():
    """Both penalty schemes are exactly monotone and bracket the clamped solve."""
    rng = np.random.default_rng(103)
    worst_width, ok, detail = 0.0, True, ""
    for i in range(20):
        N, m = [(2, 0), (2, 1), (3, 0)][i % 3]
        flags = (1,) if i % 2 else ()
        gen = (
            GeneratorSpec("constant", {"c0": float(rng.normal(0.0, 0.5))})
            if i % 3 == 0
            else GeneratorSpec(
                "affine",
                {"a0": float(rng.normal(0.0, 0.5)), "b": float(rng.uniform(-0.5, 0.5))},
                lipschitz=0.5,
            )
        )
        problem, _ = _separated_instance(rng, N, m, flags, generator=gen)
        trace = penalization_bracket(problem)  # raises on any monotonicity break
        worst_width = max(worst_width, trace.final_width)
        clamped = backward_clamped_solve(problem)
        inc, dec = trace.increasing[-1], trace.decreasing[-1]
        for k in range(problem.tree.n_layers):
            if not (np.all(inc.layer(k) <= clamped.Y.layer(k)) and np.all(clamped.Y.layer(k) <= dec.layer(k))):
                ok, detail = False, f"clamped solve outside bracket at instance {i}, layer {k}"
    ok = ok and worst_width <= 1e-4
    return ok, detail or f"20 instances, exact monotone, max final width = {worst_width:.2e}"


@_criterion("comparison-theorem")
def criterion_comparison():
    """Larger data gives a node-wise larger solution and dominated push increments."""
    rng = np.random.default_rng(104)
    ok, detail = True, ""
    for i in range(20):
        N, m = [(2, 0), (2, 1), (3, 0)][i % 3]
        tree = _random_tree(rng, N, m)
        up_layers = [rng.normal(0.5, 0.5, tree.layer_size(k)) for k in range(tree.n_layers)]
        upper = AdaptedValues(up_layers, 0)
        lower = AdaptedValues([u - 50.0 for u in up_layers], 0)
        flagged = {}
        if i % 2:
            n = tree.layer_size(1)
            flagged = {1: (up_layers[1] - 50.0, up_layers[1] + rng.normal(0.0, 0.5, n))}
        barriers = BarrierPair(lower, upper, flagged)
        xi = np.minimum(up_layers[-1], rng.normal(0.0, 1.0, tree.layer_size(N)))
        xi2 = np.minimum(up_layers[-1], xi + rng.uniform(0.0, 1.0, xi.shape[0]))
        c0 = float(rng.normal(0.0, 0.5))
        g1 = GeneratorSpec("constant", {"c0": c0})
        g2 = GeneratorSpec("constant", {"c0": c0 + float(rng.uniform(0.0, 0.5))})
        s1 = solve_one_barrier(ProblemSpec(tree, g1, barriers, xi), side="upper")
        s2 = solve_one_barrier(ProblemSpec(tree, g2, barriers, xi2), side="upper")
        for k in range(tree.n_layers):
            y_ok = np.all(s1.Y.layer(k) <= s2.Y.layer(k))
            kc_ok = np.all(s1.dKc_minus.layer(k) <= s2.dKc_minus.layer(k))
            kd_ok = np.all(s1.dKd_minus.layer(k) <= s2.dKd_minus.layer(k))
            if not (y_ok and kc_ok and kd_ok):
                ok, detail = False, f"comparison failed at instance {i}, layer {k}"
    return ok, detail or "20 pairs, exact domination"


@_criterion("jump-decomposition")
def criterion_jump_decomposition():
    """Predictable push equals its left-limit overshoot formula, exactly."""
    rng = np.random.default_rng(105)
    ok, detail = True, ""
    for i in range(10):
        N, m = [(2, 0), (2, 1), (3, 0)][i % 3]
        flags = [(1,), (2,), (1, 2)][i % 3]
        problem, drift = _separated_instance(rng, N, m, flags)
        sol = backward_clamped_solve(problem, frozen_drift=drift)
        for k in range(problem.tree.n_layers):
            if k in problem.barriers.flagged:
                lp, up = problem.barriers.flagged[k]
                want_minus = np.maximum(sol.Y.layer(k) - up, 0.0)
                want_plus = np.maximum(lp - sol.Y.layer(k), 0.0)
                if not (np.array_equal(sol.dKd_minus.layer(k), want_minus)
                        and np.array_equal(sol.dKd_plus.layer(k), want_plus)):
                    ok, detail = False, f"jump formula mismatch at instance {i}, layer {k}"
            else:
                if np.any(sol.dKd_minus.layer(k)) or np.any(sol.dKd_plus.layer(k)):
                    ok, detail = False, f"predictable push at unflagged layer {k}"
            if np.any(sol.dKd_plus.layer(k) * sol.dKd_minus.layer(k)) or np.any(
                sol.dKc_plus.layer(k) * sol.dKc_minus.layer(k)
            ):
                ok, detail = False, f"both pushes act at instance {i}, layer {k}"
    return ok, detail or "10 flagged instances, exact formulas"


@_criterion("skorokhod-minimality")
def criterion_skorokhod():
    """The push acts only where the barrier binds: sums are exactly zero."""
    rng = np.random.default_rng(106)
    ok, detail = True, ""
    for i in range(15):
        N, m = [(2, 0), (2, 1), (3, 0)][i % 3]
        flags = (1,) if i % 2 else ()
        problem, drift = _separated_instance(rng, N, m, flags)
        sol = backward_clamped_solve(problem, frozen_drift=drift)
        total = 0.0
        for k in range(problem.tree.n_layers):
            gap_low = sol.Y.layer(k) - problem.barriers.lower.layer(k)
            gap_up = problem.barriers.upper.layer(k) - sol.Y.layer(k)
            total += float(np.sum(gap_low * sol.dKc_plus.layer(k)))
            total += float(np.sum(gap_up * sol.dKc_minus.layer(k)))
        if total != 0.0:
            ok, detail = False, f"flat-off sum {total!r} at instance {i}"
    return ok, detail or "15 instances, sums exactly zero"


@_criterion("picard-contraction")
def criterion_picard():
    """Weighted-norm distances halve per pass and the fixed point is unique."""
    rng = np.random.default_rng(107)
    gen = GeneratorSpec("affine", {"a0": 0.3, "b": 1.0}, lipschitz=1.0)
    problem, _ = _separated_instance(rng, 3, 1, (1,), generator=gen)
    tol = 1e-10
    _, trace = picard_solve(problem, tol=tol)
    ratios = [trace[i + 1] / trace[i] for i in range(2, len(trace) - 1) if trace[i] > tol]
    # Picard only reads its start, so the barriers themselves serve as the two starts
    sol_l, _ = picard_solve(problem, tol=tol, initial=problem.barriers.lower)
    sol_h, _ = picard_solve(problem, tol=tol, initial=problem.barriers.upper)
    gap = _max_diff(sol_l.Y, sol_h.Y)
    ok = all(r <= 0.5 for r in ratios) and gap <= 10 * tol
    return ok, f"decay ratios {['%.3f' % r for r in ratios]}, start-independence gap {gap:.2e}"


@_criterion("supermartingale-certificate")
def criterion_certificate():
    """Nonnegative supermartingale pair sandwiching the barriers (drift-free solves)."""
    rng = np.random.default_rng(108)
    ok, detail = True, ""
    tol = 1e-12
    for i in range(10):
        N, m = [(2, 0), (2, 1), (3, 0)][i % 3]
        flags = (1,) if i % 2 else ()
        problem, _ = _separated_instance(rng, N, m, flags)
        sol = backward_clamped_solve(problem)  # zero generator
        cert = mokobodski_certificate(problem.tree, sol)
        for k in range(problem.tree.n_layers):
            h, hp = cert.h.layer(k), cert.h_prime.layer(k)
            if np.any(h < 0.0) or np.any(hp < 0.0):
                ok, detail = False, f"negative certificate at instance {i}, layer {k}"
            diff = h - hp
            lo, up = problem.barriers.lower.layer(k), problem.barriers.upper.layer(k)
            if np.any(diff < lo - tol) or np.any(diff > up + tol):
                ok, detail = False, f"sandwich broken at instance {i}, layer {k}"
            if k < N and (np.any(cert.defect.layer(k) > tol) or np.any(cert.defect_prime.layer(k) > tol)):
                ok, detail = False, f"supermartingale defect positive at instance {i}, layer {k}"
    return ok, detail or "10 drift-free instances certified"


def _random_game(rng, m, separable=True, flagged=False):
    tree = _random_tree(rng, 2, m)
    N = tree.grid.steps
    low, up = [], []
    for k in range(tree.n_layers):
        n = tree.layer_size(k)
        lo = np.full(n, -2.0) + rng.normal(0.0, 0.2, n)
        low.append(lo)
        up.append(lo + rng.uniform(2.5, 4.0, n))
    flags = {}
    if flagged:
        n = tree.layer_size(1)
        lp = low[1] + rng.normal(0.0, 0.2, n)
        flags = {1: (lp, lp + rng.uniform(2.0, 3.0, n))}
    barriers = BarrierPair(AdaptedValues(low, 0), AdaptedValues(up, 0), flags)
    xi = low[-1] + rng.uniform(0.2, 0.8, tree.layer_size(N)) * (up[-1] - low[-1])
    fu, fv = rng.uniform(-0.4, 0.4, 2), rng.uniform(-0.4, 0.4, 2)
    hu, hv = rng.uniform(-0.5, 0.5, 2), rng.uniform(-0.5, 0.5, 2)
    bu, bv = rng.uniform(-0.12, 0.12, 2), rng.uniform(-0.12, 0.12, 2)
    controls = ControlGrid(A=(0, 1), B=(0, 1))
    if separable:
        drift = lambda t, x, u, v: np.full_like(x, fu[u] + fv[v])
        running = lambda t, x, u, v: np.full_like(x, hu[u] + hv[v])
        tilt = lambda t, e, x, u, v: np.full_like(x, bu[u] + bv[v])
    else:
        # matching pennies in the running payoff: no pure saddle
        drift = lambda t, x, u, v: np.zeros_like(x)
        running = lambda t, x, u, v: np.full_like(x, 1.0 if u == v else -1.0)
        tilt = None
    return GameSpec(
        tree=tree, controls=controls, barriers=barriers, terminal=xi,
        sigma=lambda t, x: np.ones_like(x),
        gamma=(lambda t, e, x: np.full_like(x, 0.3)) if m else None,
        drift=drift, tilt=tilt if m else None, running=running,
    )


@_criterion("game-value", budget=300.0)
def criterion_game_value():
    """Saddle-generator value equals the exhaustive control/stopping oracle."""
    rng = np.random.default_rng(109)
    ok, detail, worst = True, "", 0.0
    for i in range(12):
        game = _random_game(rng, m=i % 2, separable=True, flagged=(i % 4 == 3))
        res = solve_game(game)
        supinf, infsup = brute_force_game_oracle(game)
        if res.max_gap > 1e-12:
            ok, detail = False, f"separable instance {i} has gap {res.max_gap:.2e}"
            continue
        y0 = float(res.Y.layer(0)[0])
        spread = _worst((abs(y0 - supinf), abs(y0 - infsup), abs(supinf - infsup)))
        worst = _worst((worst, spread))
        if not spread <= 1e-9:
            ok, detail = False, f"instance {i} disagreement {spread:.2e}"
    gap_game = _random_game(rng, m=0, separable=False)
    gres = solve_game(gap_game)
    g_supinf, g_infsup = brute_force_game_oracle(gap_game)
    g_root = float(gres.Y.layer(0)[0])
    bracket_ok = g_supinf - 1e-9 <= g_root <= g_infsup + 1e-9
    if gres.max_gap <= 0.0 or not bracket_ok:
        ok, detail = False, "gap instance not bracketed"
    return ok, detail or (
        f"12 saddle instances max spread {worst:.2e}; gap instance: gap {gres.max_gap:.3g}, "
        f"supinf {g_supinf:.6g} <= Y_root {g_root:.6g} <= infsup {g_infsup:.6g}"
    )


@_criterion("measure-change-consistency")
def criterion_measure_change():
    """Tilted-weight route and generator route agree to 1e-10 under fixed controls."""
    rng = np.random.default_rng(109)  # replays the game-value criterion's instances
    map_rng = np.random.default_rng(110)
    worst = 0.0
    for i in range(12):
        game = _random_game(rng, m=i % 2, separable=True, flagged=(i % 4 == 3))
        maps = [
            (constant_control_map(game.tree, a), constant_control_map(game.tree, b))
            for a in (0, 1) for b in (0, 1)
        ]
        maps.append((
            [map_rng.integers(0, 2, game.tree.layer_size(k)) for k in range(game.tree.grid.steps)],
            [map_rng.integers(0, 2, game.tree.layer_size(k)) for k in range(game.tree.grid.steps)],
        ))
        for um, vm in maps:
            worst = _worst((worst, _max_diff(*dynkin_value(game, um, vm, route="both"))))
    return worst <= 1e-10, f"12 games x 5 control maps, max |R1-R2| = {worst:.2e}"


@_criterion("monotone-envelope")
def criterion_monotone_envelope():
    """Envelopes of increasing payoffs increase and reach the limit exactly."""
    rng = np.random.default_rng(111)
    ok, detail = True, ""
    for i in range(10):
        N, m = [(2, 1), (3, 0)][i % 2]
        tree = _random_tree(rng, N, m)
        target = _random_layers(tree, rng, tree.n_layers)
        c = float(rng.uniform(0.5, 2.0))
        offsets = [c * 2.0**-n for n in range(5)] + [0.0]
        prev = None
        for off in offsets:
            payoff = AdaptedValues([a - off for a in target.layers], 0)
            env = snell_envelope(tree, payoff)
            if prev is not None:
                for k in range(tree.n_layers):
                    if np.any(env.layer(k) < prev.layer(k)):
                        ok, detail = False, f"envelope not monotone at instance {i}, layer {k}"
            prev = env
        limit = snell_envelope(tree, target)
        for k in range(tree.n_layers):
            if not np.array_equal(env.layer(k), limit.layer(k)):
                ok, detail = False, f"final envelope differs from limit at instance {i}, layer {k}"
    return ok, detail or "10 sequences, exact at final term"


ALL_CRITERIA = (
    criterion_snell_oracle,
    criterion_dynkin_oracle,
    criterion_penalization_bracket,
    criterion_comparison,
    criterion_jump_decomposition,
    criterion_skorokhod,
    criterion_picard,
    criterion_certificate,
    criterion_game_value,
    criterion_measure_change,
    criterion_monotone_envelope,
)


def run_all() -> list:
    results = []
    for fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        print(res.line())
    return results
