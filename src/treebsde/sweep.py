"""Shared backward sweep: representation, implicit drift solve, clamps, K bookkeeping.

Conventions on the grid:
  - the clamp against the time-t_k barrier values is the grid analog of the
    continuously-acting push; its increment is attributed to node (k, i) and
    classified as K^c;
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
    solve leaves the other side's increments at zero.
    """

    tree: Tree
    Y: AdaptedValues
    Z: AdaptedValues
    V: AdaptedValues
    dKc_plus: AdaptedValues
    dKc_minus: AdaptedValues
    dKd_plus: AdaptedValues
    dKd_minus: AdaptedValues
    pre_clamp: AdaptedValues  # implicit-solve value before any clamp
    left_limits: dict = field(default_factory=dict)  # layer -> Y_{t_k-} at flagged layers

    def cumulative(self, dKc: AdaptedValues, dKd: AdaptedValues) -> AdaptedValues:
        """Cumulative push along each path: K(node) = K(parent) + dKc(parent) + dKd(node).

        K vanishes at the root; the layer-k clamp acts on the interval
        following t_k, the flagged push at t_k itself.
        """
        b = self.tree.n_branches
        layers = [np.zeros(1) + dKd.layer(0)]
        for k in range(1, self.tree.n_layers):
            parent = layers[k - 1] + dKc.layer(k - 1)
            layers.append(np.repeat(parent, b) + dKd.layer(k))
        return AdaptedValues(layers, 0)

    def K_plus(self) -> AdaptedValues:
        return self.cumulative(self.dKc_plus, self.dKd_plus)

    def K_minus(self) -> AdaptedValues:
        return self.cumulative(self.dKc_minus, self.dKd_minus)


def make_drift_solver(tree: Tree, generator, state=None):
    """Build the per-layer implicit solver y = a + dt*f(t_k, x, y, Z, V).

    ``generator`` is a frozen per-node drift (AdaptedValues) or a
    GeneratorSpec.  The returned function maps (k, a, z, v, penalty) -> y
    where ``penalty`` is None or (side, barrier_values, level): a drift term
    +n*(L-y)^+ for side "lower", -n*(y-U)^+ for side "upper", solved in
    closed form on its linear piece.
    """
    dt = tree.grid.dt

    def state_layer(k):
        return state.layer(k) if state is not None else np.zeros(tree.layer_size(k))

    if isinstance(generator, AdaptedValues):

        def solve(k, a, z, v, penalty=None):
            base = a + dt * generator.layer(k)
            return _apply_penalty_frozen(base, penalty, dt)

        return solve

    spec = generator
    if spec.affine_in_y:

        def solve(k, a, z, v, penalty=None):
            t = tree.grid.time(k)
            x = state_layer(k)
            denom = 1.0 - dt * spec.y_slope()
            if denom <= 0.0:
                raise ImplicitSolveDiverged("1 - dt*b <= 0 in closed-form solve; refine grid")
            # f evaluated at y = 0 isolates the y-free part of the affine form
            f0 = evaluate_generator(spec, t, x, np.zeros_like(a), z, v)
            num = a + dt * f0
            y_free = num / denom
            if penalty is None:
                return y_free
            side, bar, n = penalty
            # bar + (num - denom*bar)/(denom + n*dt) is the binding-piece
            # solution written so that monotonicity in n survives floating
            # point exactly (fixed numerator, growing positive denominator)
            bound = bar + (num - denom * bar) / (denom + n * dt)
            if side == "lower":
                return np.where(y_free >= bar, y_free, bound)
            return np.where(y_free <= bar, y_free, bound)

        return solve

    def solve(k, a, z, v, penalty=None):
        t = tree.grid.time(k)
        x = state_layer(k)
        y = np.array(a, copy=True)
        for _ in range(IMPLICIT_BUDGET):
            target = a + dt * evaluate_generator(spec, t, x, y, z, v)
            y_new = _apply_penalty_frozen(target, penalty, dt)
            if np.max(np.abs(y_new - y)) < IMPLICIT_TOL:
                return y_new
            y = y_new
        raise ImplicitSolveDiverged(
            "implicit one-step solve exceeded its budget (C_f*dt >= 1?); refine grid"
        )

    return solve


def _apply_penalty_frozen(base, penalty, dt):
    if penalty is None:
        return base
    side, bar, n = penalty
    # written as bar + (base - bar)/(1 + n*dt) on the binding piece so the
    # level-to-level monotonicity survives floating point exactly
    shrink = (base - bar) / (1.0 + n * dt)
    if side == "lower":
        return np.where(base >= bar, base, bar + shrink)
    return np.where(base <= bar, base, bar + shrink)


def backward_sweep(
    tree: Tree,
    terminal: np.ndarray,
    drift_solver,
    lower=None,
    upper=None,
    pre_jump=None,
    penalty_for=None,
    require_separation=False,
) -> SweepResult:
    """Run the backward induction with optional one- or two-sided clamping.

    ``lower``/``upper`` are AdaptedValues or None; ``pre_jump`` maps flagged
    layers to (L_pre, U_pre) arrays (either entry may be None).
    ``penalty_for`` maps a layer index to the penalty tuple handed to the
    drift solver.  ``require_separation`` raises SeparationViolated when a
    two-sided instance has L >= U at a node (including left limits).
    """
    N = tree.grid.steps
    pre_jump = pre_jump or {}

    def clamp(y, lo, up, layer_for_error):
        if require_separation and lo is not None and up is not None and np.any(lo >= up):
            raise SeparationViolated(f"L >= U at layer {layer_for_error}")
        yl = np.maximum(lo, y) if lo is not None else y
        dkp = yl - y
        out = np.minimum(up, yl) if up is not None else yl
        dkm = yl - out
        return out, dkp, dkm

    zeros = lambda k: np.zeros(tree.layer_size(k))
    Y = [None] * (N + 1)
    Z = [None] * N
    V = [None] * N
    pre = [None] * (N + 1)
    dKc_p = [zeros(k) for k in range(N + 1)]
    dKc_m = [zeros(k) for k in range(N + 1)]
    dKd_p = [zeros(k) for k in range(N + 1)]
    dKd_m = [zeros(k) for k in range(N + 1)]
    left = {}

    Y[N] = np.asarray(terminal, dtype=float).copy()
    pre[N] = Y[N].copy()
    cont = Y[N]
    if N in pre_jump:
        lp, up = pre_jump[N]
        cont, dKd_p[N], dKd_m[N] = clamp(Y[N], lp, up, N)
        left[N] = cont

    for k in range(N - 1, -1, -1):
        a, z, v = represent_layer(tree, cont, k)
        penalty = penalty_for(k) if penalty_for is not None else None
        y = drift_solver(k, a, z, v, penalty)
        pre[k] = y
        lo = lower.layer(k) if lower is not None else None
        up = upper.layer(k) if upper is not None else None
        Y[k], dKc_p[k], dKc_m[k] = clamp(y, lo, up, k)
        Z[k], V[k] = z, v
        cont = Y[k]
        if k in pre_jump:
            lp, upv = pre_jump[k]
            cont, dKd_p[k], dKd_m[k] = clamp(Y[k], lp, upv, k)
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
        pre_clamp=AdaptedValues(pre, 0),
        left_limits=left,
    )
