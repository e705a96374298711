"""Shared backward sweep: representation, implicit drift solve, clamps, K bookkeeping.

Conventions on the grid:
  - the clamp against the time-t_k barrier values is the grid analog of the
    continuously-acting push; its increment is attributed to node (k, i) and
    classified as K^c.  It is the push of the discrete reflected equation
    Y_k = E[Y_{k+1} | node] + dt*f(Y_k, Z_k, V_k) + dK^c+ - dK^c-, with f
    evaluated at the clamped value, and nonzero only where a barrier binds;
  - at a flagged layer k the pre-jump barrier values (L_{t_k-}, U_{t_k-})
    induce an extra clamp applied to the layer-k solution value; its
    increment is the predictable part K^d at t_k, and the clamped value is
    the left limit fed to the next backward step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ImplicitSolveDiverged, SeparationViolated
from .lattice import AdaptedValues, Tree, represent_layer
from .model import evaluate_generator

IMPLICIT_TOL = 1e-12
IMPLICIT_BUDGET = 200


@dataclass
class SweepResult:
    """Result of every clamped solve, with the push increments split by class.

    ``dKc_plus``/``dKd_plus`` push up from the lower barrier and
    ``dKc_minus``/``dKd_minus`` push down from the upper one; a one-sided
    solve leaves the other side's increments at zero.  ``Z`` and ``V``
    represent the continuation; the drift solve's value before the clamp is
    not kept, since dKc is nonzero exactly where a barrier binds.
    """

    tree: Tree
    Y: AdaptedValues
    Z: AdaptedValues
    V: AdaptedValues
    dKc_plus: AdaptedValues
    dKc_minus: AdaptedValues
    dKd_plus: AdaptedValues
    dKd_minus: AdaptedValues
    left_limits: dict = field(default_factory=dict)  # layer -> Y_{t_k-} at flagged layers

    def cumulative(self, dKc: AdaptedValues, dKd: AdaptedValues) -> AdaptedValues:
        """Cumulative push along each path: K(node) = K(parent) + dKc(parent) + dKd(node).

        K vanishes at the root; the layer-k clamp acts on the interval
        following t_k, the flagged push at t_k itself.
        """
        layers = [np.zeros(1) + dKd.layer(0)]
        for k in range(1, self.tree.n_layers):
            parent = layers[k - 1] + dKc.layer(k - 1)
            layers.append(self.tree.spread(parent) + dKd.layer(k))
        return AdaptedValues(layers, 0)

    def K_plus(self) -> AdaptedValues:
        return self.cumulative(self.dKc_plus, self.dKd_plus)

    def K_minus(self) -> AdaptedValues:
        return self.cumulative(self.dKc_minus, self.dKd_minus)


def make_drift_solver(tree: Tree, generator, state=None, penalty=None):
    """Build the per-layer implicit solver y = a + dt*f(t_k, x, y, Z, V).

    ``generator`` is a frozen per-node drift (AdaptedValues), for which the
    solver is the explicit step a + dt*drift, or a GeneratorSpec.
    ``penalty`` is None or, with a GeneratorSpec only, (side, barrier,
    level) with the barrier an AdaptedValues: a drift term +n*(L-y)^+ for
    side "lower", -n*(y-U)^+ for side "upper", solved in closed form on its
    linear piece.  The returned function maps (k, a, z, v) to (y, push).
    push(dk, Y, sign) turns one side's clamp increment dk into
    sign*(Y - a - dt*f(Y, Z, V)) in place (sign +1 lower, -1 upper); it is
    None where f does not depend on y and the increment Y - y already is
    that push.
    """
    dt = tree.grid.dt

    def state_layer(k):
        return state.layer(k) if state is not None else np.zeros(tree.layer_size(k))

    if isinstance(generator, AdaptedValues):
        if penalty is not None:
            raise ValueError("a frozen drift takes no penalty")
        return lambda k, a, z, v: (a + dt * generator.layer(k), None)

    if penalty is not None:
        side, barrier, n = penalty
        n = float(n)

    spec = generator
    if spec.affine_in_y:
        denom = 1.0 - dt * spec.y_slope()
        # Y - a - dt*(f0 + b*Y) = denom*(Y - y) for y = (a + dt*f0)/denom
        scale = None if denom == 1.0 else lambda dk, Y, sign: np.multiply(dk, denom, out=dk)

        def solve(k, a, z, v):
            t = tree.grid.time(k)
            x = state_layer(k)
            if denom <= 0.0:
                raise ImplicitSolveDiverged("1 - dt*b <= 0 in closed-form solve; refine grid")
            # f evaluated at y = 0 isolates the y-free part of the affine form
            f0 = evaluate_generator(spec, t, x, np.zeros_like(a), z, v)
            num = a + dt * f0
            y_free = num / denom
            if penalty is None:
                return y_free, scale
            bar = barrier.layer(k)
            # bar + (num - denom*bar)/(denom + n*dt) is the binding-piece
            # solution written so that monotonicity in n survives floating
            # point exactly (fixed numerator, growing positive denominator)
            bound = bar + (num - denom * bar) / (denom + n * dt)
            free = y_free >= bar if side == "lower" else y_free <= bar
            return np.where(free, y_free, bound), scale

        return solve

    def penalized(k, base):
        if penalty is None:
            return base
        bar = barrier.layer(k)
        # written as bar + (base - bar)/(1 + n*dt) on the binding piece so the
        # level-to-level monotonicity survives floating point exactly
        shrink = (base - bar) / (1.0 + n * dt)
        if side == "lower":
            return np.where(base >= bar, base, bar + shrink)
        return np.where(base <= bar, base, bar + shrink)

    def solve(k, a, z, v):
        t = tree.grid.time(k)
        x = state_layer(k)

        def push(dk, Y, sign):
            # f at the clamped value, on the binding nodes only; the floor
            # keeps the iteration's tolerance from leaving a push below zero
            bind = np.flatnonzero(dk)
            f = evaluate_generator(spec, t, x[bind], Y[bind], z[bind], v[bind])
            dk[bind] = np.maximum(sign * (Y[bind] - a[bind] - dt * f), 0.0)

        y = np.array(a, copy=True)
        for _ in range(IMPLICIT_BUDGET):
            y_new = penalized(k, a + dt * evaluate_generator(spec, t, x, y, z, v))
            if np.max(np.abs(y_new - y)) < IMPLICIT_TOL:
                return y_new, push if spec.y_slope() else None
            y = y_new
        raise ImplicitSolveDiverged(
            "implicit one-step solve exceeded its budget (C_f*dt >= 1?); refine grid"
        )

    return solve


def _clamp(y, lo, up, k):
    """Clamp y into [lo, up] (either side may be None): (out, push up, push down).

    Where both sides are given they must be completely separated.
    """
    if lo is not None and up is not None and np.any(lo >= up):
        raise SeparationViolated(f"L >= U at layer {k}")
    yl = np.maximum(lo, y) if lo is not None else y
    out = np.minimum(up, yl) if up is not None else yl
    return out, yl - y, yl - out


def backward_sweep(tree: Tree, terminal: np.ndarray, drift_solver, lower=None, upper=None,
                   pre_jump=None) -> SweepResult:
    """Run the backward induction with optional one- or two-sided clamping.

    The inputs are the problem's data only: ``drift_solver`` maps (k, a, z,
    v) to (y, push) as ``make_drift_solver``'s solvers do, and any penalty
    is a term of its drift.  ``lower``/``upper`` are AdaptedValues or None;
    ``pre_jump`` maps flagged layers to (L_pre, U_pre) arrays (either entry
    may be None).  Every clamp given both a lower and an upper value raises
    SeparationViolated where L >= U, left limits included.
    """
    N = tree.grid.steps
    pre_jump = pre_jump or {}
    zeros = lambda k: np.zeros(tree.layer_size(k))
    Y = [None] * (N + 1)
    Z = [None] * N
    V = [None] * N
    # the clamps fill dKc at every k < N and dKd at the flagged layers
    dKc_p = [None] * N + [zeros(N)]
    dKc_m = [None] * N + [zeros(N)]
    dKd_p = [None if k in pre_jump else zeros(k) for k in range(N + 1)]
    dKd_m = [None if k in pre_jump else zeros(k) for k in range(N + 1)]
    left = {}

    Y[N] = np.asarray(terminal, dtype=float).copy()
    cont = Y[N]
    if N in pre_jump:
        cont, dKd_p[N], dKd_m[N] = _clamp(Y[N], *pre_jump[N], N)
        left[N] = cont

    for k in range(N - 1, -1, -1):
        a, z, v = represent_layer(tree, cont, k)
        y, push = drift_solver(k, a, z, v)
        lo = lower.layer(k) if lower is not None else None
        up = upper.layer(k) if upper is not None else None
        Y[k], dKc_p[k], dKc_m[k] = _clamp(y, lo, up, k)
        if push is not None:
            if lo is not None:
                push(dKc_p[k], Y[k], 1.0)
            if up is not None:
                push(dKc_m[k], Y[k], -1.0)
        Z[k], V[k] = z, v
        cont = Y[k]
        if k in pre_jump:
            cont, dKd_p[k], dKd_m[k] = _clamp(Y[k], *pre_jump[k], k)
            left[k] = cont

    return SweepResult(
        tree=tree,
        Y=AdaptedValues(Y, 0),
        Z=AdaptedValues(Z, 0),
        V=AdaptedValues(V, 0),
        dKc_plus=AdaptedValues(dKc_p, 0),
        dKc_minus=AdaptedValues(dKc_m, 0),
        dKd_plus=AdaptedValues(dKd_p, 0),
        dKd_minus=AdaptedValues(dKd_m, 0),
        left_limits=left,
    )
