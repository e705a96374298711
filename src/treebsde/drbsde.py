"""Two-barrier machinery: penalization schemes, clamped solver, Picard iteration,
first-increase diagnostics and supermartingale-pair certificates."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonViolated, MonotonicityViolated, NoContraction, WeightOverflow
from .lattice import AdaptedValues, Tree, conditional_expectation
from .model import ProblemSpec, comparison_weights, evaluate_generator
from .snell import StoppingRule
from .sweep import FirstStep, SweepResult, backward_sweep, first_step, make_drift_solver

DEFAULT_SCHEDULE = tuple(2**k for k in range(21))
BRACKET_EARLY_STOP = 1e-6


def backward_clamped_solve(problem: ProblemSpec, frozen_drift=None) -> SweepResult:
    """Doubly reflected backward solve: representation, drift solve, double clamp.

    The clamp order is lower-then-upper; under strict separation at most one
    side binds so the order is observationally irrelevant (and asserted by
    the separation check).  ``frozen_drift`` optionally replaces the
    problem's generator by per-node drift values, as in a Picard pass.
    """
    return _clamped_sweep(problem, frozen_drift if frozen_drift is not None else problem.generator)


def _clamped_sweep(problem: ProblemSpec, generator, first: FirstStep | None = None) -> SweepResult:
    """The clamped solve with ``generator`` (a GeneratorSpec or a frozen drift), from ``first`` if given."""
    bar = problem.barriers
    solver = make_drift_solver(problem.tree, generator, problem.state)
    return backward_sweep(
        problem.tree,
        problem.terminal,
        solver,
        lower=bar.lower,
        upper=bar.upper,
        pre_jump=dict(bar.flagged),
        first=first,
    )


def _penalized_sweep(problem: ProblemSpec, n: float, side: str,
                     first: FirstStep | None = None) -> SweepResult:
    bar = problem.barriers
    if side == "increasing":
        # lower barrier enters as a drift penalty, upper barrier stays reflecting
        penalty, lower, upper = ("lower", bar.lower, n), None, bar.upper
    else:
        penalty, lower, upper = ("upper", bar.upper, n), bar.lower, None
    solver = make_drift_solver(problem.tree, problem.generator, problem.state, penalty, first)
    # predictable pushes at flagged instants are applied exactly on both
    # sides: an instant penalty has no grid analog, and the exact clamp is
    # what the penalty levels converge to anyway
    return backward_sweep(
        problem.tree,
        problem.terminal,
        solver,
        lower=lower,
        upper=upper,
        pre_jump=dict(bar.flagged),
        first=first,
    )


def penalize_increasing(problem: ProblemSpec, n: float) -> SweepResult:
    """Upper-barrier reflected solve with the lower barrier as a drift penalty.

    The per-node implicit equation with the extra +n*(L-y)^+ drift is
    piecewise linear and solved in closed form; values increase in n toward
    the doubly reflected solution.  The reflecting push is the ``_minus``
    side; the ``_plus`` side holds only the exact flagged-instant clamp.
    """
    return _penalized_sweep(problem, n, "increasing")


def penalize_decreasing(problem: ProblemSpec, n: float) -> SweepResult:
    """Mirror scheme: lower barrier reflecting, -n*(y-U)^+ penalty, values decrease in n."""
    return _penalized_sweep(problem, n, "decreasing")


@dataclass
class PenalizationTrace:
    """Levels and widths of every level run; the Ys of the last level only.

    ``increasing`` and ``decreasing`` are one-element lists holding the
    final level's Y, so a bracket keeps no more than two levels in memory.
    """

    levels: list
    increasing: list  # [AdaptedValues] of the last level
    decreasing: list
    widths: list

    @property
    def final_width(self) -> float:
        return self.widths[-1]


def penalization_bracket(problem: ProblemSpec, schedule=None) -> PenalizationTrace:
    """Run both penalty schemes over a level schedule and certify the bracket.

    The increasing-scheme values must rise with the level, the decreasing
    ones fall, and every increasing value stays below every decreasing one;
    a violation is a solver bug and raises MonotonicityViolated.  That
    order needs the comparison condition, a strictly positive one-step
    weight on every child (``comparison_weights``); a problem without it
    raises ComparisonViolated before any sweep.  The final
    width sup|Y' - Y| is the convergence certificate.  Only the previous
    level's values are kept for the checks.  The schedule stops early once
    the width falls below BRACKET_EARLY_STOP.  All the sweeps share one
    read-only first step, taken once per call, and with it layer N, which
    is then checked once per call.  Levels must be positive and strictly
    increasing (NaN is neither).
    """
    schedule = list(schedule if schedule is not None else DEFAULT_SCHEDULE)
    # written as "not >" so that NaN levels fail too
    if not schedule or not schedule[0] > 0 or not all(b > a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be non-empty, positive and strictly increasing")
    weights = comparison_weights(problem.tree, problem.generator)
    if not np.all(weights > 0.0):  # NaN fails too
        c = int(np.argmin(weights > 0.0))
        raise ComparisonViolated(problem.tree.branch_labels()[c], float(weights[c]))
    levels, widths = [], []
    yi = yd = None
    N = problem.tree.grid.steps
    # both schemes clamp the terminal into both pre-jump values at a flagged
    # layer N, and at N-1 only the penalty's binding piece depends on the
    # level, so every sweep below shares one first step, for this call only
    first = first_step(problem.tree, problem.terminal, problem.barriers.flagged.get(N),
                       problem.generator, problem.state)
    # layer N's width while both schemes return first.Y itself there: from
    # the second such level on its checks compare first.Y with itself and
    # cannot fail, so they are skipped and the width reused
    width_N = None
    for n in schedule:
        prev_i, prev_d = yi, yd
        yi = _penalized_sweep(problem, n, "increasing", first).Y
        yd = _penalized_sweep(problem, n, "decreasing", first).Y
        shared = yi.layer(N) is first.Y and yd.layer(N) is first.Y
        reuse = shared and width_N is not None
        layer_widths = []
        for k in range(N if reuse else N + 1):
            inc, dec = yi.layer(k), yd.layer(k)
            if prev_i is not None:
                if np.any(inc < prev_i.layer(k)):
                    raise MonotonicityViolated(f"increasing scheme fell between levels at layer {k}")
                if np.any(dec > prev_d.layer(k)):
                    raise MonotonicityViolated(f"decreasing scheme rose between levels at layer {k}")
            if np.any(inc > dec):
                raise MonotonicityViolated(f"scheme bracket inverted at layer {k}")
            # dec - inc equals |inc - dec| once inc <= dec, except that it is -0.0
            # where dec is -0.0 and inc +0.0; adding +0.0 clears that sign
            layer_widths.append(float(np.max(dec - inc)) + 0.0)
        if reuse:
            layer_widths.append(width_N)
        width_N = layer_widths[N] if shared else None
        levels.append(n)
        widths.append(max(layer_widths))
        if widths[-1] < BRACKET_EARLY_STOP:
            break
    return PenalizationTrace(levels, [yi], [yd], widths)


def default_alpha(lipschitz: float) -> float:
    """Weight rate making the fixed-point map contract with factor about 1/2."""
    return 4.0 * (lipschitz**2 + lipschitz) + 1.0


def alpha_norm(tree: Tree, values: AdaptedValues, alpha: float) -> float:
    """Discrete weighted norm (sum_k e^{alpha t_k} E[Y_k^2] dt)^(1/2) over k < N."""
    return _weighted_norm(tree, tree.layer_probabilities(), values, alpha)


def _weighted_norm(tree: Tree, layer_probs, values: AdaptedValues, alpha: float) -> float:
    """``alpha_norm`` with the path probabilities of layers 0, 1, ... given (N or more)."""
    dt = tree.grid.dt
    total = 0.0
    for k, probs in zip(range(tree.grid.steps), layer_probs):
        total += math.exp(alpha * tree.grid.time(k)) * float(probs @ values.layer(k) ** 2) * dt
    return math.sqrt(total)


def picard_solve(problem: ProblemSpec, alpha: float | None = None, tol: float = 1e-10,
                 max_iter: int = 60, initial: AdaptedValues | None = None):
    """Fixed-point iteration for solution-dependent generators.

    The library's reference for the one-pass clamped solve, whose Y and
    pushes are those of this iteration's fixed point.  Each pass freezes
    (Y, Z, V) from the previous iterate inside the generator and runs the
    clamped solve with the resulting per-node drift.  Convergence is
    measured in the weighted norm; the trace records the successive
    distances.  Raises NoContraction when the distance ratio stays >= 1 for
    five passes in a row, and WeightOverflow before the first pass when the
    norm's weight e^(alpha*t_{N-1}) is not a float.  Every pass starts from
    the same terminal values, so the passes share one read-only first step
    and one list of layer probabilities, both taken once per call.
    """
    tree = problem.tree
    spec = problem.generator
    if alpha is None:
        alpha = default_alpha(spec.lipschitz)
    N = tree.grid.steps
    t_last = tree.grid.time(N - 1)
    try:
        math.exp(alpha * t_last)
    except OverflowError:
        raise WeightOverflow(
            f"alpha={alpha} overflows the norm's weight e^(alpha*t) at t={t_last}; "
            f"the largest usable alpha is about {math.log(np.finfo(float).max) / t_last:.6g}"
        ) from None

    def frozen_from(sol_Y, sol_Z, sol_V):
        # the frozen drift is only read, so the generator's views are kept as they are
        return AdaptedValues([
            evaluate_generator(spec, tree.grid.time(k), problem.state_layer(k),
                               sol_Y.layer(k), sol_Z.layer(k), sol_V.layer(k))
            for k in range(N)
        ], 0)

    if initial is None:
        initial = AdaptedValues([np.zeros(tree.layer_size(k)) for k in range(N + 1)], 0)
    Y = initial
    Z = AdaptedValues([np.zeros(tree.layer_size(k)) for k in range(N)], 0)
    V = AdaptedValues([np.zeros((tree.layer_size(k), tree.marks.m)) for k in range(N)], 0)

    first = first_step(tree, problem.terminal, problem.barriers.flagged.get(N))
    probs = list(itertools.islice(tree.layer_probabilities(), N))
    trace = []
    bad_streak = 0
    solution = None
    for _ in range(max_iter):
        solution = _clamped_sweep(problem, frozen_from(Y, Z, V), first)
        diff = AdaptedValues([solution.Y.layer(k) - Y.layer(k) for k in range(N)], 0)
        dist = _weighted_norm(tree, probs, diff, alpha)
        if trace and trace[-1] > 0:
            bad_streak = bad_streak + 1 if dist / trace[-1] >= 1.0 else 0
            if bad_streak >= 5:
                raise NoContraction(
                    f"no geometric decay with alpha={alpha}; increase the weight rate"
                )
        trace.append(dist)
        Y, Z, V = solution.Y, solution.Z, solution.V
        if dist < tol:
            return solution, trace
    return solution, trace


def first_increase_time(tree: Tree, K: AdaptedValues, tau: StoppingRule) -> StoppingRule:
    """First node after tau where the cumulative push strictly increases, else the horizon.

    ``K`` is a per-node cumulative nondecreasing process along paths; the
    returned rule marks, per path, the first node with K > K at the tau
    node.  Paths without an increase run to the forced terminal stop.
    """
    N = tree.grid.steps
    stop = [np.zeros(tree.layer_size(k), dtype=bool) for k in range(N + 1)]
    passed = tau.stop[0].copy()
    ref = np.where(passed, K.layer(0), np.nan)
    done = np.zeros(1, dtype=bool)
    for k in range(1, N + 1):
        passed_par, ref_par, done_par = tree.spread(passed), tree.spread(ref), tree.spread(done)
        kk = K.layer(k)
        inc_here = passed_par & ~done_par & (kk > ref_par)
        stop[k] = inc_here
        done = done_par | inc_here
        tau_here = tau.stop[k] if k < N else np.ones(tree.layer_size(k), dtype=bool)
        newly = ~passed_par & tau_here
        passed = passed_par | newly
        ref = np.where(newly, kk, ref_par)
    return StoppingRule(tree, stop)


@dataclass
class MokobodskiCertificate:
    """A pair of non-negative supermartingales sandwiching the barriers."""

    h: AdaptedValues
    h_prime: AdaptedValues
    defect: AdaptedValues  # E[next] - current (interior nodes); <= 0 up to roundoff
    defect_prime: AdaptedValues


def mokobodski_certificate(tree: Tree, solution: SweepResult) -> MokobodskiCertificate:
    """Build the certificate pair from a solved instance.

    h carries the positive part of the terminal value plus the remaining
    upward push, h' the negative part plus the downward push; both are
    supermartingales by construction and their difference reproduces the
    solution of the drift-free instance node for node.
    """
    N = tree.grid.steps

    def backward(y_sign, dkc, dkd):
        vals = [None] * (N + 1)
        defs = [None] * N
        vals[N] = np.maximum(y_sign * solution.Y.layer(N), 0.0)
        for k in range(N - 1, -1, -1):
            child = vals[k + 1] + dkd.layer(k + 1)
            vals[k] = conditional_expectation(tree, child, k) + dkc.layer(k)
            defs[k] = conditional_expectation(tree, vals[k + 1], k) - vals[k]
        return AdaptedValues(vals, 0), AdaptedValues(defs, 0)

    h, d = backward(1.0, solution.dKc_plus, solution.dKd_plus)
    hp, dp = backward(-1.0, solution.dKc_minus, solution.dKd_minus)
    return MokobodskiCertificate(h=h, h_prime=hp, defect=d, defect_prime=dp)
