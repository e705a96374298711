"""Finite discrete filtration: a non-recombining tree with m+2 one-step outcomes.

Each non-terminal node branches into a diffusion up move, a diffusion down
move, and one branch per retained mark.  All weights are explicit, so
conditional expectations, one-step martingale representation, change of
measure and forward state propagation are exact (no sampling anywhere).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousNodeIds,
    DensityNotPositive,
    IntensityTooLarge,
    LayerMismatch,
    NonFiniteState,
    SizeOverflow,
)

DEFAULT_NODE_CAP = 2_000_000
# node ids spell each mark's label "1".."9" as one digit; from "10" on they
# are no longer prefix-free, and ids of different nodes would collide
MAX_ID_MARKS = 9

# branch order: 0 = up, 1 = down, 2..m+1 = marks
UP, DOWN = 0, 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*T/N on [0, T]."""

    horizon: float
    steps: int

    def __post_init__(self):
        # each message starts with the field it refuses
        if not self.steps >= 1:
            raise ValueError(f"steps must be >= 1, got {self.steps!r}")
        if self.steps > sys.float_info.max:  # horizon/steps would overflow
            raise ValueError("steps must be at most the largest float, about 1.8e308")
        # also rejects a positive horizon so small that horizon/steps underflows to 0
        if not self.horizon / self.steps > 0:
            raise ValueError(f"horizon/steps must be > 0, got horizon {self.horizon!r}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite, got {self.horizon!r}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def time(self, k: int) -> float:
        return k * self.horizon / self.steps


@dataclass(frozen=True)
class MarkSet:
    """Finite set of retained marks e_j with rates lambda_j (per unit time).

    Truncation/binning of a continuous intensity measure is the caller's
    responsibility; the marks are taken at face value.
    """

    points: tuple = ()
    rates: tuple = ()

    def __post_init__(self):
        if len(self.points) != len(self.rates):
            raise ValueError("points and rates must have equal length")
        if not all(r > 0 for r in self.rates):  # NaN fails too
            raise ValueError("mark rates must be strictly positive")

    @property
    def m(self) -> int:
        return len(self.rates)

    @property
    def total_rate(self) -> float:
        return float(sum(self.rates))


@dataclass
class Tree:
    """Non-recombining tree over a TimeGrid with per-step branch data.

    Layer k holds (m+2)^k nodes indexed 0..(m+2)^k-1; the children of node
    i are nodes (m+2)*i + c at layer k+1, c running over the branch order
    {up, down, mark_1..mark_m}.  Only the tree knows that layout; solvers use
    ``children``, ``spread``, ``child`` and ``layer_probabilities``.
    """

    grid: TimeGrid
    marks: MarkSet
    base_weights: np.ndarray  # shape (m+2,)
    db: np.ndarray  # diffusion increment per branch, shape (m+2,)
    comp: np.ndarray  # compensated mark indicators, shape (m+2, m)

    @property
    def n_branches(self) -> int:
        return self.marks.m + 2

    @property
    def n_layers(self) -> int:
        return self.grid.steps + 1

    def layer_size(self, k: int) -> int:
        return self.n_branches**k

    def node_count(self) -> int:
        b = self.n_branches
        return (b ** (self.grid.steps + 1) - 1) // (b - 1)

    def branch_labels(self) -> list:
        """Node-id label of each branch, in branch order: u, d, 1..m."""
        return ["u", "d"] + [str(j + 1) for j in range(self.marks.m)]

    def _id_labels(self) -> list:
        """``branch_labels``, checked to spell unique node ids.

        Raises
        ------
        AmbiguousNodeIds
            if the tree has more than MAX_ID_MARKS marks.
        """
        if self.marks.m > MAX_ID_MARKS:
            raise AmbiguousNodeIds(f"{self.marks.m} marks: node ids spell each mark by one digit, "
                                   f"so they are unique for at most {MAX_ID_MARKS} marks")
        return self.branch_labels()

    def node_id(self, k: int, i: int) -> str:
        """Path string over the alphabet {u, d, 1..m}; root is ''."""
        labels = self._id_labels()
        digits = []
        for _ in range(k):
            digits.append(labels[i % self.n_branches])
            i //= self.n_branches
        return "".join(reversed(digits))

    def child(self, i, c):
        """Index of child c (branch order) of node i, one layer down."""
        return i * self.n_branches + c

    def children(self, values, k: int, rows=None) -> np.ndarray:
        """Layer-(k+1) ``values`` as an (..., n_k, m+2) view, row i holding node i's children.

        ``values`` runs over the layer's nodes along its last axis; leading
        axes (such as one per penalty level) are kept.  ``rows`` is None for
        every layer-k node, or the indices of some of them, whose children
        are gathered into a copy, one row each.
        """
        values = np.asarray(values, dtype=float)
        n = self.layer_size(k)
        if values.shape[-1] != n * self.n_branches:
            raise LayerMismatch(
                f"expected {n * self.n_branches} child values at layer {k + 1}, got {values.shape[-1]}"
            )
        grouped = values.reshape(values.shape[:-1] + (n, self.n_branches))
        # np.take copies whole rows; indexing by rows took about three times as long
        return grouped if rows is None else np.take(grouped, rows, axis=-2)

    def parents(self, rows) -> np.ndarray:
        """The parent, one layer up, of each node index in ``rows``, repeats kept."""
        return rows // self.n_branches

    def spread(self, values) -> np.ndarray:
        """Each node's entry of ``values`` copied onto its m+2 children, one layer down."""
        return np.repeat(values, self.n_branches, axis=0)

    def layer_probabilities(self):
        """Yield each layer's path probabilities (products of base weights), 0 to N, in one pass."""
        p = np.ones(1)
        yield p
        for _ in range(self.grid.steps):
            p = np.multiply.outer(p, self.base_weights).ravel()
            yield p


@dataclass
class AdaptedValues:
    """One value (or value vector) per node over a contiguous range of layers."""

    layers: list = field(default_factory=list)  # list of np.ndarray, one per layer
    first_layer: int = 0

    @property
    def last_layer(self) -> int:
        return self.first_layer + len(self.layers) - 1

    def layer(self, k: int) -> np.ndarray:
        if not self.first_layer <= k <= self.last_layer:
            raise LayerMismatch(f"layer {k} outside [{self.first_layer}, {self.last_layer}]")
        return self.layers[k - self.first_layer]


def build_tree(grid: TimeGrid, marks: MarkSet | None = None, node_cap: int = DEFAULT_NODE_CAP) -> Tree:
    """Build the exhaustive tree for a grid and mark set.

    Deterministic: the tree enumerates every one-step outcome.  One-step
    weights are p_up = p_down = (1 - dt*sum(lambda))/2 and p_mark_j =
    lambda_j*dt, which make the diffusion increment and the compensated
    mark indicators exact one-step martingales.

    Raises
    ------
    IntensityTooLarge
        if dt * sum(lambda_j) >= 1.
    SizeOverflow
        if the node count exceeds ``node_cap``.
    """
    marks = marks or MarkSet()
    dt = grid.dt
    q = marks.total_rate * dt
    if q >= 1.0:
        raise IntensityTooLarge(f"sum(lambda)*dt = {q:.6g} >= 1; refine the grid")

    m = marks.m
    b = m + 2
    N = grid.steps
    # the count (b**(N+1) - 1)//(b - 1) can run to millions of digits, so it
    # is only formed once its logarithm shows it to be within a factor e of the cap
    if ((N + 1) * math.log(b) - math.log(b - 1) > math.log(max(node_cap, 1)) + 1.0
            or (b ** (N + 1) - 1) // (b - 1) > node_cap):
        raise SizeOverflow(f"a tree of {N} steps with {b} branches per node exceeds "
                           f"the cap of {node_cap} nodes")

    weights = np.empty(b)
    weights[UP] = weights[DOWN] = (1.0 - q) / 2.0
    rates = np.asarray(marks.rates, dtype=float)
    weights[2:] = rates * dt

    db = np.zeros(b)
    sqdt = math.sqrt(dt)
    db[UP], db[DOWN] = sqdt, -sqdt

    # comp[c, j] = 1{c = mark_j} - lambda_j * dt
    comp = np.tile(-rates * dt, (b, 1)) if m else np.zeros((b, 0))
    for j in range(m):
        comp[2 + j, j] += 1.0

    return Tree(grid=grid, marks=marks, base_weights=weights, db=db, comp=comp)


def node_id_table(tree: Tree) -> list:
    """Node ids of every layer, ``table[k][i] == tree.node_id(k, i)``.

    Built one layer at a time: the children of a node are its id plus each
    branch label, in branch order, which is the layer-(k+1) node order.
    Raises AmbiguousNodeIds with more than MAX_ID_MARKS marks.
    """
    labels = tree._id_labels()
    table = [[""]]
    for _ in range(tree.grid.steps):
        table.append([pid + lab for pid in table[-1] for lab in labels])
    return table


def _branch_sum(x: np.ndarray, w) -> np.ndarray:
    """Sum over the last axis of ``x * w``, one column at a time.

    Adds the columns in order onto +0.0, as ``(x * w).sum(axis=-1)`` does, so
    the bits match, signed zeros included, and each entry depends on its own
    row only.  The axis is a node's m+2 branches or its m marks, and must
    not be empty.  NumPy's reduce over so narrow an axis is several times
    slower; a matrix product is slower too (about five times over one mark
    of a 177,147-node layer), and its last bits depend on how many rows a
    call holds.
    """
    total = x[..., 0] * w[..., 0]
    total += 0.0  # the reduce starts from +0.0, which turns a leading -0.0 into +0.0
    for c in range(1, x.shape[-1]):
        total += x[..., c] * w[..., c]
    return total


def conditional_expectation(tree: Tree, child_values: np.ndarray, k: int, weights=None) -> np.ndarray:
    """Exact E[.|node] at layer k from values on layer k+1.

    ``child_values`` has one entry per layer-(k+1) node; ``weights`` is None
    for the base measure, or per-node branch weights of shape (n_k, m+2).
    """
    w = tree.base_weights if weights is None else np.asarray(weights)
    return _branch_sum(tree.children(child_values, k), w)


def represent_layer(tree: Tree, child_values: np.ndarray, k: int, rows=None):
    """One-step martingale representation for every layer-k node at once, or for ``rows`` only.

    Solves, per node and per child c,

        a + Z*dB(c) + sum_j V_j*(1{c=mark_j} - lambda_j*dt) = child_value(c)

    The (m+2)x(m+2) system is nonsingular (TimeGrid keeps dt > 0) and has the
    closed-form solution returned here: ``a`` is the base conditional
    expectation, ``Z = (y_up - y_down)/(2*sqrt(dt))`` and
    ``V_j = y_mark_j - (y_up + y_down)/2``.

    Returns (a, Z, V) with shapes (n,), (n,), (n, m), n = n_k or len(rows),
    behind any leading axes of ``child_values``; each node's entries depend
    on its own children only.
    """
    grouped = tree.children(child_values, k, rows)
    sqdt = math.sqrt(tree.grid.dt)
    # halving each child first cannot overflow, and halving is exact for normal floats
    mid = grouped[..., UP] * 0.5
    mid += grouped[..., DOWN] * 0.5
    z = (grouped[..., UP] - grouped[..., DOWN]) / (2.0 * sqdt)
    v = grouped[..., 2:] - mid[..., None]
    a = _branch_sum(grouped, tree.base_weights)
    return a, z, v


def one_step_density(tree: Tree, theta, beta) -> np.ndarray:
    """Per-branch density zeta(c) = 1 + theta*dB(c) + sum_j beta_j*(1{mark_j} - lambda_j*dt).

    ``theta`` has shape (n,), ``beta`` shape (n, m): one row per node.  The
    density has base-measure mean one at every node by construction.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    beta = np.atleast_2d(np.asarray(beta, dtype=float))
    marks = _branch_sum(beta[:, None, :], tree.comp) if tree.marks.m else 0.0
    return 1.0 + theta[:, None] * tree.db + marks


def reweight(tree: Tree, theta, beta, k: int) -> np.ndarray:
    """Tilted branch weights p(c)*zeta(c) for the nodes of layer k.

    The weights sum to one per node automatically (zeta has base mean one);
    this is the discrete change of measure used for controlled drifts and
    mark-intensity tilts.

    Raises
    ------
    DensityNotPositive
        if any zeta(c) <= 0; reports the offending node and branch.
    """
    zeta = one_step_density(tree, theta, beta)
    if np.any(zeta <= 0.0):
        i, c = np.argwhere(zeta <= 0.0)[0]
        raise DensityNotPositive(k, int(i), int(c), float(zeta[i, c]))
    return tree.base_weights * zeta


def forward_state(tree: Tree, sigma, gamma, x0: float) -> AdaptedValues:
    """Propagate the controlled-state skeleton forward through the tree.

    x(child) = x + sigma(t_k, x)*dB(child) + gamma(t_k, e_j, x)*1{child=mark_j}
               - dt * sum_j gamma(t_k, e_j, x)*lambda_j

    The last term is the compensator of the mark measure; with the branch
    indicator it collapses to gamma contracted against the compensated
    indicators.  ``sigma(t, x)`` and ``gamma(t, e, x)`` must accept numpy
    arrays for ``x``.
    """
    if not np.isfinite(x0):
        raise NonFiniteState(f"x0 = {x0}")
    layers = [np.full(1, float(x0))]
    for k in range(tree.grid.steps):
        x = layers[-1]
        t = tree.grid.time(k)
        s = np.broadcast_to(np.asarray(sigma(t, x), dtype=float), x.shape)
        # without marks the empty sum adds +0.0, which turns a -0.0 into +0.0
        jumps = 0.0
        if tree.marks.m:
            g = np.stack(
                [np.broadcast_to(np.asarray(gamma(t, e, x), dtype=float), x.shape) for e in tree.marks.points],
                axis=1,
            )
            jumps = _branch_sum(g[:, None, :], tree.comp)
        children = x[:, None] + s[:, None] * tree.db + jumps
        children = children.ravel()
        if not np.all(np.isfinite(children)):
            raise NonFiniteState(f"non-finite state at layer {k + 1}")
        layers.append(children)
    return AdaptedValues(layers, 0)


def constant_values(tree: Tree, value: float) -> AdaptedValues:
    return AdaptedValues([np.full(tree.layer_size(k), float(value)) for k in range(tree.n_layers)], 0)


def evaluate_form(tree: Tree, form, state: AdaptedValues | None, k: int) -> np.ndarray:
    """A (t, x) form at every layer-k node, as a new float array; with no state, x is zero.

    ``form`` is a callable fn(t_k, x_k), or a scalar or one value per node
    taken as it is.  The forward state enters the problem here only: every
    barrier and terminal value is built from it, and no solve reads it.
    """
    x = state.layer(k) if state is not None else np.zeros(tree.layer_size(k))
    values = form(tree.grid.time(k), x) if callable(form) else form
    return np.broadcast_to(np.asarray(values, dtype=float), x.shape).copy()


def values_from_function(tree: Tree, fn, state: AdaptedValues | None = None) -> AdaptedValues:
    """Evaluate fn(t_k, x_k) node-wise at every layer (``evaluate_form``)."""
    return AdaptedValues([evaluate_form(tree, fn, state, k) for k in range(tree.n_layers)], 0)
