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
from functools import lru_cache, partial

import numpy as np

from .errors import ImplicitSolveDiverged, SeparationViolated
from .lattice import AdaptedValues, Tree, represent_layer
from .model import GeneratorSpec, evaluate_generator


@dataclass
class SweepResult:
    """Result of every clamped solve, with the push increments split by class.

    ``dKc_plus``/``dKd_plus`` push up from the lower barrier and
    ``dKc_minus``/``dKd_minus`` push down from the upper one; a one-sided
    solve leaves the other side's increments at zero, as the read-only
    zeros that every result shares.  ``Z`` and ``V``
    represent the continuation; the drift solve's value before the clamp is
    not kept, since dKc is nonzero exactly where a barrier binds.

    ``Y`` at layer N is a read-only view of the terminal values, and the
    push layers that hold no push (dKc at N, dKd at unflagged layers) are
    read-only zeros; both may be shared between results, as may everything
    taken from a shared ``FirstStep`` (the bracket's sweeps share one, so
    it checks their layer N once per call).

    ``binding`` maps each layer k < N to the sorted indices of its nodes
    where a penalty term of the drift binds; it is empty without a penalty.
    A sweep restricted to ``Rows`` fills ``Y`` and ``left_limits`` only; its
    Z, V and pushes hold no layer.  With a column of L penalty levels, each
    layer it re-solves holds an (L, n_k) block, one row per level, and every
    other layer the other sweep's array, shared by every level.
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
    binding: dict = field(default_factory=dict)  # layer -> nodes where the drift's penalty binds

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


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


@lru_cache(maxsize=1024)
def _zeros(n) -> np.ndarray:
    """Read-only zeros for n nodes, such as a layer that holds no push; cached per n, so results share them.

    ``n`` may be a shape too.  The cache is bounded because a sweep
    restricted to ``Rows`` asks for the sizes of its row sets, and the
    shapes of its batches of levels, too.
    """
    return np.broadcast_to(0.0, n)


def _take(x, rows):
    """``x`` at ``rows`` along its first axis (a copy), or ``x`` itself where rows is None."""
    return x if rows is None else np.take(x, rows, axis=0)


def _put(base, rows, values):
    """A copy of ``base`` holding ``values`` at ``rows``, one copy per row of 2-D (L, len(rows)) values."""
    if values.ndim == 1:
        out = base.copy()
        out[rows] = values  # about half the time of out[..., rows]
        return out
    out = np.broadcast_to(base, (len(values), len(base))).copy()
    out[:, rows] = values
    return out


@dataclass(frozen=True)
class Rows:
    """The rows a sweep re-solves, over the values of another sweep of the same data.

    ``index[k]`` (k < N) is None for every node of layer k, or the sorted
    indices of the nodes to re-solve, maybe none.  Every other node keeps
    its value in ``Y`` and its left limit in ``left`` (the other sweep's
    ``Y`` and ``left_limits``) bit for bit, so ``index`` must hold every
    node whose children or drift solve may differ from that sweep's: a
    node's value depends on its own row only.  A layer with no row to
    re-solve returns the other sweep's arrays themselves.
    """

    Y: AdaptedValues
    left: dict
    index: list


def _free_part(tree: Tree, spec, k, a, z, v):
    """(num, y_free) of the closed-form drift solve at layer k, which no penalty level changes.

    f is affine in y with slope b, or that affine part clipped to [-C, C].
    With num = a + dt*(affine part at y = 0) and denom = 1 - dt*b > 0, the
    residual of y = a + dt*f is strictly increasing and its one root y_free
    is num/denom, clipped (lipschitz-clip) to [a - dt*C, a + dt*C] in the
    generator's min/max order.
    """
    dt = tree.grid.dt
    denom = 1.0 - dt * spec.y_slope()
    if denom <= 0.0:
        raise ImplicitSolveDiverged("1 - dt*b <= 0: the one-step solve has no unique root; refine grid")
    clip = spec.clip_bound()
    affine = spec if clip is None else GeneratorSpec("affine", spec.params)
    # f evaluated at y = 0 isolates the y-free part of the affine form
    f0 = evaluate_generator(affine, tree.grid.time(k), _zeros(a.shape), z, v)
    num = a + dt * f0
    y_free = num / denom
    if clip is not None:
        y_free = np.clip(y_free, a - dt * clip, a + dt * clip)
    return num, y_free


@dataclass(frozen=True)
class FirstStep:
    """A sweep's layer N and the representation of layer N-1, all read-only.

    ``Y`` is a view of the terminal values; at a flagged layer N ``left`` is
    their clamp into the pre-jump values, with its pushes ``dKd_plus`` and
    ``dKd_minus`` (otherwise None and zeros).  (a, z, v) represents layer
    N-1 from the value fed to it, and ``free`` is the level-free part (num,
    y_free) of an affine drift solve there, or None.  None of it depends on
    the barriers at k < N or on a penalty level, so sweeps that share the
    terminal, the pre-jump values at N and the generator may share one.
    """

    Y: np.ndarray
    left: np.ndarray | None
    dKd_plus: np.ndarray
    dKd_minus: np.ndarray
    a: np.ndarray
    z: np.ndarray
    v: np.ndarray
    free: tuple | None = None


def first_step(tree: Tree, terminal, pre_jump=None, generator=None) -> FirstStep:
    """Take a sweep's first step without materializing layer N.

    ``pre_jump`` is the (L_pre, U_pre) pair of a flagged layer N, or None.
    With a GeneratorSpec as ``generator`` the level-free part of its drift
    solve at N-1 is taken too, for solvers built with this step.
    """
    N = tree.grid.steps
    Y = _read_only(np.asarray(terminal, dtype=float).view())
    zeros = _zeros(Y.shape[0])
    left, dKd_plus, dKd_minus = None, zeros, zeros
    if pre_jump is not None:
        left, dKd_plus, dKd_minus = map(_read_only, _clamp(Y, *pre_jump, N))
    a, z, v = map(_read_only, represent_layer(tree, Y if left is None else left, N - 1))
    free = None
    if generator is not None:
        free = tuple(map(_read_only, _free_part(tree, generator, N - 1, a, z, v)))
    return FirstStep(Y, left, dKd_plus, dKd_minus, a, z, v, free)


def make_drift_solver(tree: Tree, generator, penalty=None, first=None, rows=None):
    """Build the per-layer implicit solver y = a + dt*f(t_k, y, Z, V).

    ``generator`` is a frozen per-node drift (AdaptedValues), for which the
    solver is the explicit step a + dt*drift, or a GeneratorSpec, solved in
    closed form (``_free_part``).  ``penalty`` is None or, with a
    GeneratorSpec only, (side, barrier, n) with the barrier an
    AdaptedValues: a drift term +n*(L-y)^+ for side "lower", -n*(y-U)^+ for
    side "upper", solved in closed form piece by piece.  n is a level, or
    an (L, 1) column of levels, for which y holds an (L, n) block, one row
    per level, whether (a, z, v) hold one row per node or such blocks
    themselves.  ``first`` is the FirstStep of the sweeps the solver runs
    in; its level-free part, if any, stands for the solve's own at N-1.
    ``rows`` is the ``Rows`` of a restricted sweep, whose (a, z, v) hold the
    rows of ``rows.index[k]`` only, or None.
    The returned function maps (k, a, z, v) to (y, push, bound).
    push(dk, Y, sign) turns one side's clamp increment dk into
    sign*(Y - a - dt*f(Y, Z, V)) in place (sign +1 lower, -1 upper); it is
    None where f does not depend on y and the increment Y - y already is
    that push.  ``bound`` indexes the entries of y where the penalty binds,
    flat over the rows of a column of levels, or is None without a penalty.
    """
    dt = tree.grid.dt
    at = lambda x, k: x if rows is None else _take(x, rows.index[k])

    if isinstance(generator, AdaptedValues):
        if penalty is not None:
            raise ValueError("a frozen drift takes no penalty")
        return lambda k, a, z, v: (a + dt * at(generator.layer(k), k), None, None)

    if penalty is not None:
        side, barrier, n = penalty
        # a column of levels as a flat array, or None for one level n
        levels = np.ravel(n).astype(float) if np.ndim(n) else None
        n = None if np.ndim(n) else float(n)

    spec = generator
    denom = 1.0 - dt * spec.y_slope()
    clip = spec.clip_bound()
    # Y - a - dt*(f0 + b*Y) = denom*(Y - y) for y = (a + dt*f0)/denom
    scale = None if denom == 1.0 else lambda dk, Y, sign: np.multiply(dk, denom, out=dk)
    shared = first.free if first is not None else None

    def clip_push(k, a, z, v, dk, Y, sign):
        # f at the clamped value, on the binding nodes only; that value lies
        # past the root, but rounding can leave the residual a hair below zero
        bind = np.flatnonzero(dk)
        f = evaluate_generator(spec, tree.grid.time(k), Y[bind], z[bind], v[bind])
        dk[bind] = np.maximum(sign * (Y[bind] - a[bind] - dt * f), 0.0)

    def solve(k, a, z, v):
        if shared is not None and k == tree.grid.steps - 1:
            num, y_free = (at(part, k) for part in shared)
        else:
            num, y_free = _free_part(tree, spec, k, a, z, v)
        push = scale
        if clip is not None:
            push = partial(clip_push, k, a, z, v) if spec.y_slope() else None
        if penalty is None:
            return y_free, push, None
        bar = at(barrier.layer(k), k)
        # each piece's solution, bar + (num - denom*bar)/(denom + n*dt) and a
        # clip's bar + (a -+ dt*C - bar)/(1 + n*dt), is written so that its
        # monotonicity in n survives floating point exactly (fixed numerator,
        # growing positive denominator); formed on the binding entries only,
        # ~free keeping NaN there, through one flat index over every level
        free = y_free >= bar if side == "lower" else y_free <= bar
        if levels is not None:  # one row of y per level
            y_free, free = (np.broadcast_to(x, (len(levels), free.shape[-1])) for x in (y_free, free))
        y = y_free.copy()
        bind, flat = np.flatnonzero(~free), y.reshape(-1)
        if levels is None:
            at_bind, level = (lambda x: x[bind]), n
        else:  # a binding entry's row is its level, and an input with one row per node holds it at its column
            width = y.shape[-1]
            at_bind = lambda x: x.reshape(-1)[bind] if x.ndim == 2 else x[bind % width]
            level = levels[bind // width]
        b = at_bind(bar)
        flat[bind] = b + (at_bind(num) - denom * b) / (denom + level * dt)
        if clip is not None:
            ab = at_bind(a)
            flat[bind] = np.clip(flat[bind], b + (ab - dt * clip - b) / (1.0 + level * dt),
                                 b + (ab + dt * clip - b) / (1.0 + level * dt))
        return y, push, bind

    return solve


def _clamp_steps(y, lo, up, k):
    """(yl, out): y raised to lo, then yl lowered to up (either side may be None).

    Where both sides are given they must be completely separated.
    """
    if lo is not None and up is not None and np.any(lo >= up):
        raise SeparationViolated(f"L >= U at layer {k}")
    yl = np.maximum(lo, y) if lo is not None else y
    return yl, np.minimum(up, yl) if up is not None else yl


def _clamp(y, lo, up, k):
    """Clamp y into [lo, up] (either side may be None): (out, push up, push down).

    Where both sides are given they must be completely separated; a side
    that is not given pushes by shared read-only zeros.
    """
    yl, out = _clamp_steps(y, lo, up, k)
    zeros = _zeros(y.shape[0])
    return out, yl - y if lo is not None else zeros, yl - out if up is not None else zeros


def backward_sweep(tree: Tree, terminal: np.ndarray, drift_solver, lower=None, upper=None,
                   pre_jump=None, first=None, rows=None) -> SweepResult:
    """Run the backward induction with optional one- or two-sided clamping.

    The inputs are the problem's data only: ``drift_solver`` maps (k, a, z,
    v) to (y, push, bound) as ``make_drift_solver``'s solvers do, and any
    penalty is a term of its drift.  ``lower``/``upper`` are AdaptedValues
    or None; ``pre_jump`` maps flagged layers to (L_pre, U_pre) arrays (an
    entry is None for a side with no pre-jump clamp).  Every clamp given
    both a lower and an upper value raises SeparationViolated where L >= U,
    left limits included.
    ``first`` is a ``first_step`` of this terminal and pre-jump values to
    start from, shared with other sweeps; without it the sweep takes its
    own.  ``rows`` is None, or the ``Rows`` to re-solve over another sweep
    of the same data, with a solver built for them: each layer then gathers
    the children of its rows and solves those only, a layer with none is
    skipped, and the pushes, Z, V and binding nodes are not formed.  Its
    solver may solve a batch of L levels (a column of penalty levels): each
    re-solved layer's Y and left limit are then (L, n_k) blocks, one row per
    level, written over the other sweep's arrays.
    """
    N = tree.grid.steps
    pre_jump = pre_jump or {}
    if first is None:
        first = first_step(tree, terminal, pre_jump.get(N))
    index = [None] * N if rows is None else rows.index
    Y = [None] * N + [first.Y]
    Z = [None] * N
    V = [None] * N
    # the clamps fill dKc at every k < N and dKd at the flagged layers
    dKc_p, dKc_m = [None] * (N + 1), [None] * (N + 1)
    dKd_p = [None] * N + [first.dKd_plus]
    dKd_m = [None] * N + [first.dKd_minus]
    left = {} if first.left is None else {N: first.left}
    binding = {}
    # a restricted sweep keeps the values only: its clamps form no push
    clamp = _clamp if rows is None else lambda y, lo, up, k: (_clamp_steps(y, lo, up, k)[1], None, None)

    for k in range(N - 1, -1, -1):
        r = index[k]
        if r is not None and not r.size:  # nothing to re-solve: the other sweep's arrays
            Y[k] = rows.Y.layer(k)
            if k in pre_jump:
                left[k] = rows.left[k]
            cont = left.get(k, Y[k])
            continue
        if k == N - 1:
            a, z, v = (_take(x, r) for x in (first.a, first.z, first.v))
        else:
            a, z, v = represent_layer(tree, cont, k, r)
        y, push, bound = drift_solver(k, a, z, v)
        lo = _take(lower.layer(k), r) if lower is not None else None
        up = _take(upper.layer(k), r) if upper is not None else None
        y, dKc_p[k], dKc_m[k] = clamp(y, lo, up, k)
        if push is not None and rows is None:
            if lo is not None:
                push(dKc_p[k], y, 1.0)
            if up is not None:
                push(dKc_m[k], y, -1.0)
        if rows is None:
            Z[k], V[k] = z, v
            if bound is not None:
                binding[k] = bound
        Y[k] = cont = y if r is None else _put(rows.Y.layer(k), r, y)
        if k in pre_jump:
            pre = (None if x is None else _take(x, r) for x in pre_jump[k])
            y, dKd_p[k], dKd_m[k] = clamp(y, *pre, k)
            left[k] = cont = y if r is None else _put(rows.left[k], r, y)

    # a layer that holds no push holds read-only zeros; a restricted sweep keeps no Z, V or push
    full = lambda layers: AdaptedValues([] if rows is not None else [
        _zeros(tree.layer_size(k)) if x is None else x for k, x in enumerate(layers)], 0)
    return SweepResult(
        tree=tree,
        Y=AdaptedValues(Y, 0),
        Z=full(Z),
        V=full(V),
        dKc_plus=full(dKc_p),
        dKc_minus=full(dKc_m),
        dKd_plus=full(dKd_p),
        dKd_minus=full(dKd_m),
        left_limits=left,
        binding=binding,
    )
