"""Brute-force enumeration oracles over stopping rules.

These deliberately avoid backward induction: every adapted stopping rule on
the (sub)tree is enumerated and the expectation evaluated path by path, so
they certify the dynamic-programming solvers from the outside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooLargeToEnumerate
from .lattice import Tree

MAX_STOP_SLOTS = 22
MAX_PAIR_SLOTS = 11


def _rule_bits(n_slots: int) -> np.ndarray:
    r = 1 << n_slots
    return ((np.arange(r)[:, None] >> np.arange(n_slots)) & 1).astype(bool)


def enumerate_stop_value(tree: Tree, payoff, drift=None, mode="sup", k0=0, i0=0) -> float:
    """Exact optimum of E[sum drift*dt + payoff at stop] over all stopping rules.

    The optimum runs over every assignment of {stop, continue} to the
    non-terminal nodes of the subtree rooted at node (k0, i0); the terminal
    layer is a forced stop.  ``mode`` selects sup or inf.
    """
    b = tree.n_branches
    N = tree.grid.steps
    depth = N - k0
    dt = tree.grid.dt
    if depth == 0:
        return float(payoff.layer(N)[i0])

    n_slots = (b**depth - 1) // (b - 1)
    if n_slots > MAX_STOP_SLOTS:
        raise TooLargeToEnumerate(f"{n_slots} decision nodes > {MAX_STOP_SLOTS}")
    bits = _rule_bits(n_slots)
    offsets = np.concatenate([[0], np.cumsum(b ** np.arange(depth))])

    n_paths = b**depth
    vals = np.zeros(bits.shape[0])
    w = tree.base_weights
    for p in range(n_paths):
        digits = []
        rem = p
        for _ in range(depth):
            digits.append(rem % b)
            rem //= b
        digits.reverse()
        prob = 1.0
        cum = 0.0
        local = 0
        pay = np.empty(depth + 1)
        slots = np.empty(depth, dtype=int)
        for d in range(depth):
            node = i0 * (b**d) + local
            pay[d] = cum + payoff.layer(k0 + d)[node]
            slots[d] = offsets[d] + local
            if drift is not None:
                cum += drift.layer(k0 + d)[node] * dt
            prob *= w[digits[d]]
            local = local * b + digits[d]
        pay[depth] = cum + payoff.layer(N)[i0 * (b**depth) + local]
        sel = np.full(bits.shape[0], depth)
        for d in range(depth - 1, -1, -1):
            sel = np.where(bits[:, slots[d]], d, sel)
        vals += prob * pay[sel]
    return float(vals.max() if mode == "sup" else vals.min())


@dataclass(frozen=True)
class StoppingLayout:
    """Control-independent part of the stopping-pair enumeration on a tree.

    ``steps`` lists the decision instants of every path in time order as
    (kind, layer) with kind "pre" (just before a flagged grid time) or "at".
    Step s pays ``pay[2s]`` (upper side) or ``pay[2s + 1]`` (lower side);
    ``pay[2S]`` is the terminal payoff, S = len(steps).  ``stop_index[p, i,
    j]`` is the payoff index at which path p stops when the minimizer plays
    rule i and the maximizer rule j, stored in the smallest unsigned dtype
    that holds 2S.  ``nodes[j]`` and ``digits[j]`` give, per path, the node
    at layer j and the branch taken out of it.
    """

    steps: tuple
    bits: np.ndarray
    nodes: np.ndarray
    digits: np.ndarray
    stop_index: np.ndarray


def stopping_layout(tree: Tree, flagged=()) -> StoppingLayout:
    """Slot table, rule bits and per-path stop indices for ``dynkin_pair_oracle``.

    ``flagged`` holds the layers with a decision instant just before t_k
    (layer 0 carries none).  The layout depends on the tree and the flagged
    layers only, so one layout serves every weighting and payoff.

    Raises
    ------
    TooLargeToEnumerate
        if the slot count exceeds ``MAX_PAIR_SLOTS``.
    """
    b = tree.n_branches
    N = tree.grid.steps
    flagged = {j for j in flagged if j > 0}

    # global slot table: "at" slots on non-terminal nodes, "pre" slots on
    # every node of a flagged layer (the decision just before t_k)
    steps, first_slot = [], []
    n_slots = 0
    for j in range(N + 1):
        for kind in ("pre", "at"):
            if (kind == "pre" and j in flagged) or (kind == "at" and j < N):
                steps.append((kind, j))
                first_slot.append(n_slots)
                n_slots += tree.layer_size(j)
    if n_slots > MAX_PAIR_SLOTS:
        raise TooLargeToEnumerate(f"{n_slots} decision slots > {MAX_PAIR_SLOTS} for pair enumeration")
    bits = _rule_bits(n_slots)
    r = bits.shape[0]

    paths = np.arange(b**N)
    nodes = np.stack([paths // b ** (N - j) for j in range(N + 1)])
    digits = nodes[1:] % b

    # first[i, p]: the first step at which rule i stops on path p (S: never);
    # the pair (i, j) stops at the earlier of the two, the minimizer (upper
    # payoff, index 2s) winning ties, or at the horizon (index 2S)
    n_steps = len(steps)
    dtype = np.min_scalar_type(2 * n_steps)
    first = np.full((r, paths.size), n_steps, dtype=dtype)
    for s in range(n_steps - 1, -1, -1):
        first = np.where(bits[:, first_slot[s] + nodes[steps[s][1]]], s, first).astype(dtype)
    stop_index = np.empty((paths.size, r, r), dtype=dtype)
    for p in paths:
        f = first[:, p]
        stop_index[p] = np.where(f[:, None] <= f[None, :], 2 * f[:, None], 2 * f[None, :] + 1)
    return StoppingLayout(tuple(steps), bits, nodes, digits, stop_index)


def dynkin_pair_values(tree: Tree, layout: StoppingLayout, terminal, lower, upper, drift=None,
                       pre_jump=None, weights=None) -> np.ndarray:
    """Expected stopped payoff of every (minimizer rule, maximizer rule) pair.

    Per path: the running drift integral and the path probability are
    accumulated layer by layer, the payoff of each decision instant is
    tabulated, and ``prob * pay[stop_index]`` is added to the total, one
    path after another in path order.  Returns the (r, r) table.
    """
    N = tree.grid.steps
    dt = tree.grid.dt
    pre_jump = pre_jump or {}
    nodes = layout.nodes
    n_paths = nodes.shape[1]
    n_steps = len(layout.steps)

    pay = np.empty((n_paths, 2 * n_steps + 1))
    cum = np.zeros(n_paths)
    prob = np.ones(n_paths)
    for s, (kind, j) in enumerate(layout.steps):
        node = nodes[j]
        if kind == "pre":
            lp, up = pre_jump[j]
            lo = lp if lp is not None else lower.layer(j)
            hi = up if up is not None else upper.layer(j)
        else:
            lo, hi = lower.layer(j), upper.layer(j)
        pay[:, 2 * s] = cum + hi[node]
        pay[:, 2 * s + 1] = cum + lo[node]
        if kind == "at":
            if drift is not None:
                cum = cum + drift.layer(j)[node] * dt
            digit = layout.digits[j]
            wrow = tree.base_weights[digit] if weights is None else weights[j][node, digit]
            prob = prob * wrow
    pay[:, 2 * n_steps] = cum + terminal[nodes[N]]

    weighted = prob[:, None] * pay
    r = layout.bits.shape[0]
    total = np.zeros((r, r))
    for p in range(n_paths):
        total += weighted[p].take(layout.stop_index[p].astype(np.intp))
    return total


def dynkin_pair_oracle(tree: Tree, terminal, lower, upper, drift=None, pre_jump=None, weights=None,
                       layout=None):
    """Exact min-max over pairs of stopping rules of the two-player stopped payoff.

    The minimizer stops to pay the upper barrier, the maximizer to collect
    the lower one; on a simultaneous stop before the horizon the upper
    payoff applies, at the horizon the terminal value is paid.  Flagged
    layers contribute an extra decision instant just before the grid time,
    paying the pre-jump barrier values.

    Returns (infsup, supinf): min over minimizer rules of the max over
    maximizer rules, and the reverse.  ``weights`` optionally replaces the
    base branch weights by per-layer, per-node tilted weights.  ``layout``
    is ``stopping_layout(tree, pre_jump)``, passed in by callers that
    evaluate many weightings or payoffs on one tree.
    """
    pre_jump = pre_jump or {}
    if layout is None:
        layout = stopping_layout(tree, pre_jump)
    total = dynkin_pair_values(tree, layout, terminal, lower, upper, drift, pre_jump, weights)
    return float(total.max(axis=1).min()), float(total.min(axis=0).max())
