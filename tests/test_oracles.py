import tracemalloc

import numpy as np
import pytest

from treebsde import (AdaptedValues, MarkSet, TimeGrid, TooLargeToEnumerate, build_tree,
                      optimal_stopping_oracle, snell_envelope)
from treebsde.oracles import MAX_STOP_SLOTS, digit_table, stopping_layout


def reference_stop_index(tree, flagged):
    """Stop index of every path and rule pair, by nested selection over its decision instants."""
    b, N = tree.n_branches, tree.grid.steps
    slot_id = {}
    for j in range(N + 1):
        if j in flagged and j > 0:
            for i in range(tree.layer_size(j)):
                slot_id[("pre", j, i)] = len(slot_id)
        if j < N:
            for i in range(tree.layer_size(j)):
                slot_id[("at", j, i)] = len(slot_id)
    bits = digit_table(2, len(slot_id)).astype(bool)
    out = []
    for p in range(b**N):
        slots, node = [], 0
        digits = [(p // b ** (N - 1 - j)) % b for j in range(N)]
        for j in range(N + 1):
            if j in flagged and j > 0:
                slots.append(slot_id[("pre", j, node)])
            if j < N:
                slots.append(slot_id[("at", j, node)])
                node = node * b + digits[j]
        idx = np.full((bits.shape[0],) * 2, 2 * len(slots))
        for s in range(len(slots) - 1, -1, -1):
            stop = bits[:, slots[s]]
            idx = np.where(stop[:, None], 2 * s, np.where(stop[None, :], 2 * s + 1, idx))
        out.append(idx)
    return np.array(out)


@pytest.mark.parametrize("N,m,flagged", [
    (1, 0, ()), (1, 1, (1,)), (2, 0, ()), (2, 0, (1,)), (2, 0, (2,)), (2, 0, (1, 2)),
    (2, 1, ()), (2, 1, (1,)), (3, 0, ()), (3, 0, (1,)),
])
def test_stop_index_matches_nested_selection(N, m, flagged):
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0,), (0.3,)) if m else None)
    layout = stopping_layout(tree, flagged)
    assert layout.stop_index.dtype == np.uint8
    # the layout keeps one rule per stopping time: one of each distinct row
    # of the reference table
    ref = reference_stop_index(tree, flagged)
    r = ref.shape[1]
    _, first = np.unique(ref.transpose(1, 0, 2).reshape(r, -1), axis=0, return_index=True)
    ref = ref[:, first][:, :, first]
    # in another order: match the rules by their stop index against
    # themselves, twice the first stop on each path
    where = {tuple(ref[:, i, i].tolist()): i for i in range(ref.shape[1])}
    assert len(where) == ref.shape[1]
    perm = [where[tuple(layout.stop_index[:, i, i].tolist())] for i in range(layout.stop_index.shape[1])]
    assert sorted(perm) == list(range(ref.shape[1]))
    assert np.array_equal(layout.stop_index, ref[:, perm][:, :, perm])
    assert layout.nodes.shape == (N + 1, tree.n_branches**N)


def test_layout_ignores_a_flag_at_the_root():
    tree = build_tree(TimeGrid(1.0, 2))
    assert np.array_equal(stopping_layout(tree, (0,)).stop_index, stopping_layout(tree, ()).stop_index)


def test_slot_cap():
    tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.3,)))  # 13 decision slots
    with pytest.raises(TooLargeToEnumerate):
        stopping_layout(tree)


def test_stopping_oracle_at_the_slot_cap_enumerates_only_stopping_times():
    # N=3 with two marks: 1 + 4 + 16 = 21 decision slots, 83,522 stopping
    # times out of 2^21 stop-flag assignments
    tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0, 2.0), (0.3, 0.2)))
    assert sum(tree.layer_size(k) for k in range(3)) <= MAX_STOP_SLOTS
    rng = np.random.default_rng(21)
    payoff = AdaptedValues([rng.normal(size=tree.layer_size(k)) for k in range(4)], 0)
    tracemalloc.start()
    try:
        oracle = optimal_stopping_oracle(tree, payoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    envelope = snell_envelope(tree, payoff)
    for k in range(tree.n_layers):
        assert np.max(np.abs(oracle.layer(k) - envelope.layer(k))) <= 1e-10
