"""Two-barrier machinery: the one sweep of a problem (``reflected_sweep``), the clamped
solver, the penalization bracket, Picard iteration and supermartingale-pair certificates."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonViolated, MonotonicityViolated, NoContraction, WeightOverflow
from .lattice import AdaptedValues, Tree, conditional_expectation
from .model import ProblemSpec, comparison_weights, evaluate_generator
from .sweep import FirstStep, Rows, SweepResult, backward_sweep, first_step, make_drift_solver

DEFAULT_SCHEDULE = tuple(2**k for k in range(21))
BRACKET_EARLY_STOP = 1e-6
# a bracket layer whose rows to re-solve are more than this share of it runs
# whole, on strided views and with no gather (same bits, less time), and a
# batch of levels then writes an (L, n_k) block there, as it does at a layer
# with some rows.  On the path-solve benchmark's instances (N=12, one mark)
# a gather paid up to about 60% of a layer below N-1, but only up to about
# 20% at N-1, where a whole layer reuses the shared first step; the rows to
# re-solve were 35-42% of the upper scheme's layer N-1 and 21-30% of the
# lower scheme's layer N-2
DENSE_ROWS = 1 / 3
# the bracket solves its levels after the first in batches of as many levels
# as keep a batch's values, levels times the sizes of the layers a scheme
# re-solves, within this many entries (and at least one level).  On a tree
# of a few thousand nodes a level is mostly per-layer Python overhead, which
# a batch pays once: cli's 9,841-node penalize re-solves 364 values per
# level, so its 20 later levels run as one batch.  The two 797,161-node
# library benchmarks re-solve 29,524 and 265,720 values per level and keep
# one level per batch: batches of three of path-solve's levels took its
# bracket from 98 to 122 ms
BATCH_VALUES = 2**14


def reflected_sweep(problem: ProblemSpec, sides=("lower", "upper"), penalty=None, drift=None,
                    first: FirstStep | None = None, rows: Rows | None = None) -> SweepResult:
    """The one sweep of a problem: the barriers of ``sides`` reflect, one may enter as a penalty.

    Each side in ``sides`` clamps at every layer and keeps its flagged
    pre-jump clamps; a side outside ``sides`` has neither.  ``penalty`` is
    None or (side, n): that side's layer clamp becomes the drift term
    +n*(L-y)^+ (side "lower") or -n*(y-U)^+ (side "upper").  The per-node
    equation with it is piecewise linear and solved in closed form; with
    the lower side penalized the values increase in n toward the doubly
    reflected solution, with the upper side they decrease.  The penalized
    side's pre-jump clamps stay exact: an instant penalty has no grid
    analog, and the exact clamp is what the levels converge to anyway, so
    the penalized side's push holds only those clamps.  With ``rows``, n
    may be an (L, 1) column of levels, which the sweep solves as one batch:
    each layer it re-solves holds an (L, n_k) block, one row per level, and
    every other layer the other sweep's array.  ``drift`` is None
    or a frozen per-node drift (AdaptedValues) that replaces the generator,
    as in a Picard pass; it takes no penalty.  ``first`` is a
    ``first_step`` of this terminal and these pre-jump values at N, shared
    with other sweeps.  ``rows`` is None, or the ``Rows`` to re-solve over
    another sweep of this problem; the result then holds Y, the left limits
    and the binding nodes only (``backward_sweep``).
    """
    bar = problem.barriers
    barriers = {"lower": bar.lower, "upper": bar.upper}
    if not set(sides) <= set(barriers):
        raise ValueError("sides must be 'lower' and/or 'upper'")
    clamped = {side: barriers[side] if side in sides else None for side in barriers}
    term = None
    if penalty is not None:
        side, n = penalty
        clamped[side], term = None, (side, barriers[side], n)
    solver = make_drift_solver(problem.tree, problem.generator if drift is None else drift, term, first, rows)
    pre = {k: (lp if "lower" in sides else None, up if "upper" in sides else None)
           for k, (lp, up) in bar.flagged.items()}
    return backward_sweep(problem.tree, problem.terminal, solver, lower=clamped["lower"],
                          upper=clamped["upper"], pre_jump=pre, first=first, rows=rows)


def backward_clamped_solve(problem: ProblemSpec, frozen_drift=None) -> SweepResult:
    """Doubly reflected backward solve: representation, drift solve, double clamp.

    The clamp order is lower-then-upper; under strict separation at most one
    side binds so the order is observationally irrelevant (and asserted by
    the separation check).  ``frozen_drift`` optionally replaces the
    problem's generator by per-node drift values, as in a Picard pass.
    """
    return reflected_sweep(problem, drift=frozen_drift)


@dataclass
class PenalizationTrace:
    """Levels and widths of every level run; the Ys of the last level only.

    ``increasing`` and ``decreasing`` are one-element lists holding the
    final level's Y.  The bracket keeps the level before a batch and the
    batch itself, whose values BATCH_VALUES bounds, so its memory stays
    about that of two solves.  Layers a level shares with the level before
    are the same arrays, and a level in a batch holds rows of the batch's
    (L, n_k) blocks.  ``resolved`` counts the node solves of both schemes at
    each level.
    """

    levels: list
    increasing: list  # [AdaptedValues] of the last level
    decreasing: list
    widths: list
    resolved: list

    @property
    def final_width(self) -> float:
        return self.widths[-1]


def _dependent_rows(tree: Tree, sol: SweepResult) -> list:
    """The ``Rows.index`` of the levels after the first, from that level's sweep ``sol``.

    Only the penalty's binding piece depends on the level, so a node's
    value moves with it only where the penalty binds at the node or at one
    of its descendants: D(k) = bind(k) | parents(D(k+1)), with D(N) empty,
    as every level's layer N is the shared first step's.  bind(k) is taken
    from the first level's drift solves: at a node whose children keep
    their values the solve sees the same y_free, so whether the penalty
    binds there does not depend on the level.  A layer where D covers more
    than DENSE_ROWS of the nodes runs whole.
    """
    N = tree.grid.steps
    index = [None] * N
    dirty = np.zeros(0, dtype=np.intp)
    for k in range(N - 1, -1, -1):
        n = tree.layer_size(k)
        mask = np.zeros(n, dtype=bool)
        mask[sol.binding[k]] = True
        mask[tree.parents(dirty)] = True
        dirty = np.flatnonzero(mask)
        index[k] = None if dirty.size > DENSE_ROWS * n else dirty
    return index


def _row(x: np.ndarray, i: int) -> np.ndarray:
    """Level i of a batch's layer: row i of an (L, n_k) block, or the array every level shares."""
    return x[i] if x.ndim == 2 else x


def _level(Y: AdaptedValues, i: int) -> AdaptedValues:
    """Level i of a batch's values, layer by layer (``_row``)."""
    return AdaptedValues([_row(x, i) for x in Y.layers], 0)


def _moved(values: np.ndarray, before: np.ndarray, op):
    """Per level of a batch, whether op(its values, the level before's) holds at some node.

    ``values`` is an (L, n) block, or the (n,) values of every level, which
    can only move at the batch's first level: the result is then that
    level's one bool.  ``before`` is the values of the level before the batch.
    """
    if values.ndim == 1:
        return op(values, before).any()
    return op(values, np.concatenate((before[None], values[:-1]))).any(axis=-1)


def penalization_bracket(problem: ProblemSpec, schedule=None) -> PenalizationTrace:
    """Run both penalty schemes over a level schedule and certify the bracket.

    The increasing-scheme values must rise with the level, the decreasing
    ones fall, and every increasing value stays below every decreasing one;
    a violation is a solver bug and raises MonotonicityViolated, at the
    first level and layer where it occurs.  That order needs the
    comparison condition, a strictly positive one-step weight on every
    child (``comparison_weights``); a problem without it raises
    ComparisonViolated before any sweep.  The final width sup|Y' - Y| is
    the convergence certificate.  The schedule stops early once the width
    falls below BRACKET_EARLY_STOP; no level after that is checked or
    reported.  All the sweeps share one read-only first step, taken once
    per call.  The first level solves every node; the rows that a later
    level can change (``_dependent_rows``) are then fixed, so each later
    level is a function of its level alone.  Those levels run in batches
    (BATCH_VALUES), one restricted sweep per scheme per batch; a scheme
    with no row to re-solve runs none, and a layer with none keeps the
    level before's arrays.  A layer where both schemes keep them is not
    checked again, and its width is reused.  Levels must be positive and
    strictly increasing (NaN is neither).
    """
    schedule = list(schedule if schedule is not None else DEFAULT_SCHEDULE)
    # written as "not >" so that NaN levels fail too
    if not schedule or not schedule[0] > 0 or not all(b > a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be non-empty, positive and strictly increasing")
    tree = problem.tree
    weights = comparison_weights(tree, problem.generator)
    if not np.all(weights > 0.0):  # NaN fails too
        c = int(np.argmin(weights > 0.0))
        raise ComparisonViolated(tree.branch_labels()[c], float(weights[c]))
    N = tree.grid.steps
    sides = ("lower", "upper")
    # both schemes clamp the terminal into both pre-jump values at a flagged
    # layer N, and at N-1 only the penalty's binding piece depends on the
    # level, so every sweep below shares one first step, for this call only
    first = first_step(tree, problem.terminal, problem.barriers.flagged.get(N), problem.generator)
    # side -> the Rows of its next batch: the rows a level can change, set by
    # the first level, over the values of the level before, which every other
    # row keeps bit for bit
    rows = {}

    def first_level(side):
        sol = reflected_sweep(problem, penalty=(side, schedule[0]), first=first)
        rows[side] = Rows(sol.Y, sol.left_limits, _dependent_rows(tree, sol))
        return sol.Y

    def batch(side, part):
        last = rows[side]
        if all(r is not None and not r.size for r in last.index):
            return last.Y  # no row to re-solve: every level keeps the first level's arrays
        # a batch of one level passes the level itself, for one row per node: a
        # (1, n) block made the 797,161-node benchmarks' brackets 17-25% slower
        level = part[0] if len(part) == 1 else np.array(part, dtype=float)[:, None]
        sol = reflected_sweep(problem, penalty=(side, level), first=first, rows=last)
        rows[side] = Rows(_level(sol.Y, -1), {k: _row(x, -1) for k, x in sol.left_limits.items()}, last.index)
        return sol.Y

    def batches():
        """(levels, node solves per level, increasing Y, decreasing Y) of each batch, the first level first."""
        yield schedule[:1], 2 * sum(tree.layer_size(k) for k in range(N)), first_level("lower"), first_level("upper")
        index = [rows[side].index for side in sides]
        solves = sum(tree.layer_size(k) if r is None else int(r.size) for rs in index for k, r in enumerate(rs))
        values = max(sum(tree.layer_size(k) for k, r in enumerate(rs) if r is None or r.size) for rs in index)
        size = max(1, BATCH_VALUES // max(values, 1))
        for i in range(1, len(schedule), size):
            part = schedule[i:i + size]
            yield part, solves, batch("lower", part), batch("upper", part)

    texts = ("increasing scheme fell between levels", "decreasing scheme rose between levels",
             "scheme bracket inverted")
    levels, widths, resolved = [], [], []
    # per layer, the width at each level of the batch (a list), or at every level (a float)
    layer_widths = [None] * (N + 1)
    width_at = lambda w, i: w[i] if isinstance(w, list) else w
    before = None  # the (increasing, decreasing) values of the level before the batch
    for part, solves, yi, yd in batches():
        faults = []  # (level in the batch, layer, check) of the first violation of each check
        for k in range(N + 1):
            inc, dec = yi.layer(k), yd.layer(k)
            if before is not None and inc is before[0].layer(k) and dec is before[1].layer(k):
                # checked at the level before, and the width is the same
                layer_widths[k] = width_at(layer_widths[k], -1)
                continue
            # check -> whether it fails, per level or (one bool) at every level
            hits = {2: (inc > dec).any(axis=-1)}
            if before is not None:
                hits[0] = _moved(inc, before[0].layer(k), np.less)
                hits[1] = _moved(dec, before[1].layer(k), np.greater)
            faults += [(int(np.argmax(hit)), k, check) for check, hit in hits.items() if hit.any()]
            # dec - inc equals |inc - dec| once inc <= dec, except that it is -0.0
            # where dec is -0.0 and inc +0.0; adding +0.0 clears that sign
            layer_widths[k] = ((dec - inc).max(axis=-1) + 0.0).tolist()
        fault = min(faults, default=None)
        for i, n in enumerate(part):
            if fault is not None and fault[0] == i:
                raise MonotonicityViolated(f"{texts[fault[2]]} at layer {fault[1]}")
            levels.append(n)
            widths.append(max(width_at(w, i) for w in layer_widths))
            resolved.append(solves)
            if widths[-1] < BRACKET_EARLY_STOP:
                return PenalizationTrace(levels, [_level(yi, i)], [_level(yd, i)], widths, resolved)
        before = _level(yi, -1), _level(yd, -1)
    return PenalizationTrace(levels, [before[0]], [before[1]], widths, resolved)


def default_alpha(lipschitz: float) -> float:
    """Weight rate making the fixed-point map contract with factor about 1/2."""
    return 4.0 * (lipschitz**2 + lipschitz) + 1.0


def _weighted_norm(tree: Tree, layer_probs, values: AdaptedValues, alpha: float) -> float:
    """Discrete weighted norm (sum_k e^{alpha t_k} E[Y_k^2] dt)^(1/2) over k < N.

    ``layer_probs`` holds the path probabilities of layers 0, 1, ... (N or
    more), as ``tree.layer_probabilities()`` yields them.
    """
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
            evaluate_generator(spec, tree.grid.time(k), sol_Y.layer(k), sol_Z.layer(k), sol_V.layer(k))
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
        solution = reflected_sweep(problem, drift=frozen_from(Y, Z, V), first=first)
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
