"""Brute-force enumeration oracles over stopping rules.

These deliberately avoid backward induction: every adapted stopping rule on
the (sub)tree is enumerated and the expectation evaluated path by path, so
they certify the dynamic-programming solvers from the outside.  One table,
the step at which each rule first stops on each path, serves both the
one-player values and the two-player stopping layout; both are built once
per tree shape and kept, read-only, in bounded caches.  Pairs of rules
whose stop slot agrees on every path are summed once, in path order, and
then expanded to every such pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TooLargeToEnumerate
from .lattice import AdaptedValues, Tree, _read_only
from .model import BarrierPair

MAX_STOP_SLOTS = 22
MAX_PAIR_SLOTS = 11
PAIR_OVERFLOW = "{} decision slots > {} for pair enumeration"
CACHED_ENTRY_BYTES = 1 << 20  # a cache keeps no entry larger than this; larger ones are built per call
CACHED_SHAPES = 32  # entries per cache


def digit_table(base: int, n_slots: int) -> np.ndarray:
    """Every assignment of a base-``base`` digit to ``n_slots`` slots, one per row.

    Row ``code`` holds the digits of ``code``, least significant first:
    slot s is (code // base**s) % base.  Each column is contiguous.
    """
    return np.indices((base,) * n_slots).reshape(n_slots, base**n_slots)[::-1].T


def _decision_steps(depth: int, flagged: tuple) -> tuple:
    """The decision instants of a path in time order, (kind, layer) with kind "pre" or "at"."""
    return tuple((kind, j) for j in range(depth + 1)
                 for kind, on in (("pre", j in flagged), ("at", j < depth)) if on)


def _rule_count(b: int, depth: int, steps: tuple) -> int:
    """The number of stopping times over ``steps`` on a ``b``-ary tree: the rows of ``_first_stops``."""
    d = 1
    for j in range(depth, -1, -1):
        d = (d if j == depth else d**b) + sum(at == j for _, at in steps)
    return d


def _cached(fn, nbytes: int):
    """``fn`` itself where an entry of ``nbytes`` fits its cache, else the uncached function it wraps."""
    return fn if nbytes <= CACHED_ENTRY_BYTES else fn.__wrapped__


def _shape(b: int, depth: int, flagged, cap: int, overflow: str) -> tuple:
    """(flagged, dtype, rules, paths) of a tree shape: the flagged layers in 1..depth, sorted.

    Raises TooLargeToEnumerate with ``overflow.format(n_slots, cap)`` past ``cap`` decision slots.
    """
    flagged = tuple(sorted(j for j in set(flagged) if 0 < j <= depth))
    steps = _decision_steps(depth, flagged)
    n_slots = sum(b**j for _, j in steps)
    if n_slots > cap:
        raise TooLargeToEnumerate(overflow.format(n_slots, cap))
    return flagged, np.min_scalar_type(2 * len(steps)), _rule_count(b, depth, steps), b**depth


def _first_stops(b: int, depth: int, flagged, cap: int, overflow: str):
    """Decision steps, per-path nodes and the first stop of every stopping time on a ``b``-ary tree.

    The decision instants of a path are the "at" decisions on its
    non-terminal nodes and the "pre" decisions (just before t_j) on its
    nodes of a flagged layer j > 0, listed in time order as ``steps``.
    Path p takes the branch digits of p, most significant first, so
    ``nodes[j, p]`` = p // b**(depth - j) is its node at layer j.
    ``first[i, p]`` is the step at which stopping time i first stops on
    path p (len(steps): never), in the smallest unsigned dtype that holds
    2 * len(steps), stored column-major.  More than ``cap`` decision slots
    (instants summed over nodes) raise TooLargeToEnumerate with
    ``overflow.format(n_slots, cap)``.

    The arrays are read-only and shared: each tree shape (b, depth, the
    flagged layers in 1..depth) is built once and kept in a cache of
    CACHED_SHAPES entries, except where ``first`` and ``nodes`` together
    exceed CACHED_ENTRY_BYTES, so the cache retains at most 32 MiB.
    """
    flagged, dtype, d, paths = _shape(b, depth, flagged, cap, overflow)
    nbytes = d * paths * dtype.itemsize + (depth + 1) * paths * 8
    return _cached(_stop_table, nbytes)(b, depth, flagged)


@lru_cache(maxsize=CACHED_SHAPES)
def _stop_table(b: int, depth: int, flagged: tuple):
    """``_first_stops`` of one tree shape, built bottom-up, each stopping time once.

    On a subtree rooted at layer j, a stopping time stops at one of the
    root's own instants ("pre", then "at"), or else picks one stopping time
    of each of the b child subtrees, every choice one row of ``digit_table``.
    """
    steps = _decision_steps(depth, flagged)
    n_steps = len(steps)
    dtype = np.min_scalar_type(2 * n_steps)

    first = np.full((1, 1), n_steps, dtype)  # below the horizon: never stops
    for j in range(depth, -1, -1):
        if j < depth:
            # one child stopping time per branch, the branches' paths side by side
            first = first[digit_table(first.shape[0], b)].reshape(-1, b * first.shape[1])
        own = [np.full((1, first.shape[1]), s, dtype) for s, (_, at) in enumerate(steps) if at == j]
        first = np.concatenate(own + [first])

    paths = np.arange(b**depth)
    nodes = np.stack([paths // b ** (depth - j) for j in range(depth + 1)])
    return steps, _read_only(nodes), _read_only(np.asfortranarray(first))


def stop_rule_values(tree: Tree, payoff: AdaptedValues, drift: AdaptedValues | None, k: int) -> np.ndarray:
    """Value of every stopping time from every node of layer k, shape (n_k, d).

    The d rules are those of the depth N - k subtree, one per stopping time
    (see ``_first_stops``), the terminal layer a forced stop.  From node n,
    rule i earns sum_p prob_p *
    pay_p[first[i, p]], where pay_p[d] is the drift integral over the first
    d steps of path p plus the payoff at its depth-d node; the paths are
    summed in path order.  A batch of payoffs and drifts, on one tree or a
    stack of trees (the batch rule of ``lattice``), gives (..., n_k, d).
    """
    b = tree.n_branches
    depth = tree.grid.steps - k
    _, nodes, first = _first_stops(b, depth, (), MAX_STOP_SLOTS, "{} decision nodes > {}")

    roots = np.arange(tree.layer_size(k))[:, None]
    batch = np.broadcast_shapes(np.shape(payoff.layer(k))[:-1], tree.base_weights.shape[:-2],
                                () if drift is None else np.shape(drift.layer(0))[:-1])
    pay = np.empty(batch + (roots.shape[0], nodes.shape[1], depth + 1))
    cum = np.zeros(pay.shape[:-1])
    prob = np.ones(nodes.shape[1])  # per path, behind a stack's (B, 1) axes
    for d in range(depth + 1):
        node = roots * b**d + nodes[d]  # the depth-d node of each path, per root
        pay[..., d] = cum + payoff.layer(k + d)[..., node]
        if d < depth:
            if drift is not None:
                cum = cum + drift.layer(k + d)[..., node] * tree.grid.dt
            prob = prob * tree.base_weights[..., nodes[d + 1] % b]

    values = np.zeros(pay.shape[:-2] + (first.shape[0],))
    for p in range(nodes.shape[1]):
        values += prob[..., p, None] * pay[..., p, first[:, p]]
    return values


@dataclass(frozen=True)
class StoppingLayout:
    """Control-independent part of the stopping-pair enumeration on a tree.

    ``steps`` lists the decision instants of every path in time order as
    (kind, layer) with kind "pre" (just before a flagged grid time) or "at".
    Step s pays ``pay[2s]`` (upper side) or ``pay[2s + 1]`` (lower side);
    ``pay[2S]`` is the terminal payoff, S = len(steps).  The d rules are
    the stopping times, each once (see ``_first_stops``).  When the
    minimizer plays rule i and the maximizer rule j, path p stops at payoff
    index ``stop_columns[p, pair_class[i, j]]``, stored in the smallest
    unsigned dtype that holds 2S: many pairs stop at the same slot on every
    path, so ``stop_columns`` (paths, c) holds each distinct column over
    the d*d pairs once, and ``pair_class`` (d, d) the column of each pair,
    so the pairs of one column are summed once, in path order, and then
    expanded (``dynkin_pair_values``).  ``nodes[j]`` and ``digits[j]``
    give, per path, the node at layer j and the branch taken out of it.
    Every array is read-only.
    """

    steps: tuple
    nodes: np.ndarray
    digits: np.ndarray
    stop_columns: np.ndarray
    pair_class: np.ndarray


def stopping_layout(tree: Tree, flagged=()) -> StoppingLayout:
    """Decision steps and per-path stop indices for ``dynkin_pair_oracle``.

    ``flagged`` holds the layers with a decision instant just before t_k
    (layer 0 carries none).  The layout depends on the tree's branch count
    and steps and the flagged layers in 1..N only, so one layout serves
    every weighting and payoff: each such shape is built once and kept,
    read-only and shared, in a cache of CACHED_SHAPES entries, except where
    the layout's arrays would exceed CACHED_ENTRY_BYTES, so the cache
    retains at most 32 MiB.

    Raises
    ------
    TooLargeToEnumerate
        if the slot count exceeds ``MAX_PAIR_SLOTS``.
    """
    b, N = tree.n_branches, tree.grid.steps
    flagged, dtype, d, paths = _shape(b, N, flagged, MAX_PAIR_SLOTS, PAIR_OVERFLOW)
    # at most one distinct column per pair, the pair classes, nodes and digits
    nbytes = paths * d * d * dtype.itemsize + d * d * 8 + (2 * N + 1) * paths * 8
    return _cached(_pair_layout, nbytes)(b, N, flagged)


@lru_cache(maxsize=CACHED_SHAPES)
def _pair_layout(b: int, N: int, flagged: tuple) -> StoppingLayout:
    """``stopping_layout`` of one tree shape, built."""
    steps, nodes, first = _first_stops(b, N, flagged, MAX_PAIR_SLOTS, PAIR_OVERFLOW)
    # the pair (i, j) stops at the earlier of the two first stops, the
    # minimizer (upper payoff, index 2s) winning ties, or at the horizon
    # (index 2S)
    f = first.T
    stop_index = np.where(f[:, :, None] <= f[:, None, :], 2 * f[:, :, None], 2 * f[:, None, :] + 1)
    columns, classes = np.unique(stop_index.reshape(stop_index.shape[0], -1), axis=1, return_inverse=True)
    arrays = nodes[1:] % b, np.ascontiguousarray(columns), classes.reshape(stop_index.shape[1:])
    return StoppingLayout(steps, nodes, *map(_read_only, arrays))


def dynkin_pair_values(tree: Tree, layout: StoppingLayout, terminal, barriers: BarrierPair, drift=None,
                       weights=None) -> np.ndarray:
    """Expected stopped payoff of every (minimizer rule, maximizer rule) pair.

    Per path: the running drift integral and the path probability are
    accumulated layer by layer, the payoff of each decision instant is
    tabulated, and ``prob * pay[stop]`` is added to the total, one path
    after another in path order.  A "pre" instant pays the
    ``barriers.flagged`` left limits.  Pairs whose stop slot agrees on
    every path (one column of ``layout.stop_columns``) are summed once, in
    path order, and then expanded: every pair gets the sum its own adds,
    in that order, would give.  Returns the (d, d) table over the layout's
    rules.

    ``drift`` layers of shape (B, n_j) and ``weights`` of shape (B, n_j, b)
    score a batch of B drifts and weightings at once, giving (B, d, d);
    the unbatched shapes (n_j,) and (n_j, b) are the zero-dimensional case.
    Barrier and terminal layers of shape (B, n_j), and a stack of B trees
    (the batch rule of ``lattice``), batch the same way.
    """
    N = tree.grid.steps
    dt = tree.grid.dt
    nodes = layout.nodes
    n_paths = nodes.shape[1]
    n_steps = len(layout.steps)
    # the base weights without a stack's node axis: (b,), or (B, b) for a stack of B trees
    base = tree.base_weights.reshape(tree.base_weights.shape[:-2] + tree.base_weights.shape[-1:])
    batch = np.broadcast_shapes(() if drift is None else drift.layer(0).shape[:-1],
                                () if weights is None else weights[0].shape[:-2],
                                np.shape(barriers.lower.layer(0))[:-1], np.shape(terminal)[:-1], base.shape[:-1])

    pay = np.empty(batch + (n_paths, 2 * n_steps + 1))
    cum = np.zeros(batch + (n_paths,))
    prob = np.ones(batch + (n_paths,))
    for s, (kind, j) in enumerate(layout.steps):
        node = nodes[j]
        lo, hi = barriers.flagged[j] if kind == "pre" else (barriers.lower.layer(j), barriers.upper.layer(j))
        pay[..., 2 * s] = cum + hi[..., node]
        pay[..., 2 * s + 1] = cum + lo[..., node]
        if kind == "at":
            if drift is not None:
                cum = cum + drift.layer(j)[..., node] * dt
            digit = layout.digits[j]
            wrow = base[..., digit] if weights is None else weights[j][..., node, digit]
            prob = prob * wrow
    pay[..., 2 * n_steps] = cum + terminal[..., nodes[N]]

    weighted = prob[..., None] * pay
    total = np.zeros(batch + (layout.stop_columns.shape[1],))
    for p in range(n_paths):
        total += weighted[..., p, :].take(layout.stop_columns[p], axis=-1)
    return total[..., layout.pair_class]


def dynkin_pair_oracle(tree: Tree, terminal, barriers: BarrierPair, drift=None):
    """Exact min-max over pairs of stopping rules of the two-player stopped payoff.

    The minimizer stops to pay the upper barrier, the maximizer to collect
    the lower one; on a simultaneous stop before the horizon the upper
    payoff applies, at the horizon the terminal value is paid.  Each
    flagged layer of ``barriers`` contributes an extra decision instant
    just before the grid time, paying its left limits.

    Returns (infsup, supinf): min over minimizer rules of the max over
    maximizer rules, and the reverse.  A batch of instances
    (``dynkin_pair_values``) gives one array of each, one entry per
    instance, where one instance gives two floats.
    """
    layout = stopping_layout(tree, barriers.flagged)
    total = dynkin_pair_values(tree, layout, terminal, barriers, drift)
    infsup, supinf = total.max(axis=-1).min(axis=-1), total.min(axis=-2).max(axis=-1)
    return (float(infsup), float(supinf)) if total.ndim == 2 else (infsup, supinf)
