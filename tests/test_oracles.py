import numpy as np
import pytest

from treebsde import (AdaptedValues, BarrierPair, MarkSet, TimeGrid, TooLargeToEnumerate, acceptance, build_tree,
                      optimal_stopping_oracle, snell_envelope)
import treebsde.game as game_module
import treebsde.oracles as oracles_module
from treebsde.oracles import (MAX_PAIR_SLOTS, MAX_STOP_SLOTS, _first_stops, digit_table, dynkin_pair_values,
                              stopping_layout)
from traced import traced_peak


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


def min_rule_stop_index(tree, flagged):
    """Stop index (paths, d, d) of every rule pair, by the min-rule over the layout's first stops.

    The pair stops at twice the earlier first stop, plus one where the
    maximizer's is strictly earlier; two never-stops give the horizon 2S.
    """
    _, _, first = _first_stops(tree.n_branches, tree.grid.steps, flagged, MAX_PAIR_SLOTS, "{} > {}")
    fi, fj = first.T[:, :, None].astype(int), first.T[:, None, :].astype(int)
    return 2 * np.minimum(fi, fj) + (fj < fi)


@pytest.mark.parametrize("N,m,flagged", [
    (1, 0, ()), (1, 1, (1,)), (2, 0, ()), (2, 0, (1,)), (2, 0, (2,)), (2, 0, (1, 2)),
    (2, 1, ()), (2, 1, (1,)), (3, 0, ()), (3, 0, (1,)),
])
def test_stop_index_matches_nested_selection(N, m, flagged):
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0,), (0.3,)) if m else None)
    layout = stopping_layout(tree, flagged)
    assert layout.stop_columns.dtype == np.uint8
    stop_index = layout.stop_columns[:, layout.pair_class]
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
    perm = [where[tuple(stop_index[:, i, i].tolist())] for i in range(stop_index.shape[1])]
    assert sorted(perm) == list(range(ref.shape[1]))
    assert np.array_equal(stop_index, ref[:, perm][:, :, perm])
    assert layout.nodes.shape == (N + 1, tree.n_branches**N)


def test_layout_ignores_a_flag_at_the_root():
    tree = build_tree(TimeGrid(1.0, 2))
    flagged, plain = stopping_layout(tree, (0,)), stopping_layout(tree, ())
    assert np.array_equal(flagged.stop_columns[:, flagged.pair_class], plain.stop_columns[:, plain.pair_class])


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
    oracles = []
    peak = traced_peak(lambda: oracles.append(optimal_stopping_oracle(tree, payoff)))
    assert peak < 50e6
    (oracle,) = oracles
    envelope = snell_envelope(tree, payoff)
    for k in range(tree.n_layers):
        assert np.max(np.abs(oracle.layer(k) - envelope.layer(k))) <= 1e-10


def verify_layouts():
    """(tree, flagged) of each distinct stopping layout the verify criteria build, in build order."""
    seen = {}
    build = oracles_module.stopping_layout

    def record(tree, flagged=()):
        seen.setdefault((tree.n_branches, tree.grid.steps, tuple(sorted(flagged))), (tree, flagged))
        return build(tree, flagged)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles_module, "stopping_layout", record)
        patch.setattr(game_module, "stopping_layout", record)
        for criterion in (acceptance.criterion_dynkin_oracle, acceptance.criterion_game_value):
            assert criterion().passed
    return list(seen.values())


def per_pair_values(tree, layout, terminal, barriers, drift, weights):
    """Every pair's own sum of prob * pay at its stop index, one path after another in path order."""
    N, dt, nodes = tree.grid.steps, tree.grid.dt, layout.nodes
    batch = () if drift is None else drift.layer(0).shape[:-1]
    pay = np.empty(batch + (nodes.shape[1], 2 * len(layout.steps) + 1))
    cum, prob = np.zeros(pay.shape[:-1]), np.ones(pay.shape[:-1])
    for s, (kind, j) in enumerate(layout.steps):
        lo, hi = barriers.flagged[j] if kind == "pre" else (barriers.lower.layer(j), barriers.upper.layer(j))
        pay[..., 2 * s], pay[..., 2 * s + 1] = cum + hi[nodes[j]], cum + lo[nodes[j]]
        if kind == "at":
            if drift is not None:
                cum = cum + drift.layer(j)[..., nodes[j]] * dt
            digit = layout.digits[j]
            prob = prob * (tree.base_weights[digit] if weights is None else weights[j][..., nodes[j], digit])
    pay[..., -1] = cum + terminal[nodes[N]]
    weighted = prob[..., None] * pay
    stop_index = min_rule_stop_index(tree, barriers.flagged)
    total = np.zeros(batch + stop_index.shape[1:])
    for p in range(nodes.shape[1]):
        total += weighted[..., p, :][..., stop_index[p]]
    return total


def test_pairs_sharing_a_stop_column_keep_their_own_sums_on_every_verify_layout():
    rng = np.random.default_rng(31)
    layouts = verify_layouts()
    assert len(layouts) == 10
    for tree, flagged in layouts:
        N = tree.grid.steps
        low = [rng.normal(-1.0, 0.5, tree.layer_size(k)) for k in range(N + 1)]
        up = [lo + rng.uniform(0.5, 2.0, lo.size) for lo in low]
        pre = {k: (low[k] + rng.normal(0.0, 0.3, low[k].size), up[k] - 0.1) for k in flagged}
        barriers = BarrierPair(AdaptedValues(low, 0), AdaptedValues(up, 0), pre)
        terminal = low[N] + 0.3
        layout = stopping_layout(tree, flagged)
        stop_index = min_rule_stop_index(tree, flagged)
        assert np.array_equal(layout.stop_columns[:, layout.pair_class], stop_index)
        assert layout.stop_columns.shape[1] == np.unique(stop_index.reshape(stop_index.shape[0], -1), axis=1).shape[1]
        drift = AdaptedValues([rng.normal(0.0, 0.6, tree.layer_size(k)) for k in range(N)], 0)
        batched = AdaptedValues([rng.normal(0.0, 0.6, (3, tree.layer_size(k))) for k in range(N)], 0)
        weights = [rng.uniform(0.1, 1.0, (3, tree.layer_size(k), tree.n_branches)) for k in range(N)]
        for d, w in ((None, None), (drift, None), (batched, weights)):
            got = dynkin_pair_values(tree, layout, terminal, barriers, d, w)
            want = per_pair_values(tree, layout, terminal, barriers, d, w)
            assert got.shape == want.shape
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), (tree.n_branches, N, flagged)


def test_layouts_are_kept_per_tree_shape_read_only():
    shape = dict(grid=TimeGrid(1.0, 2), marks=MarkSet((1.0,), (0.3,)))
    layout = stopping_layout(build_tree(**shape), (1,))
    # another tree of that shape, with a flag at the root, which carries none
    again = stopping_layout(build_tree(**shape), {1: None, 0: None}.keys())
    assert again is layout
    for name in ("nodes", "digits", "stop_columns", "pair_class"):
        values = getattr(layout, name)
        with pytest.raises(ValueError, match="read-only"):
            values.reshape(-1)[0] = 1
    table = _first_stops(3, 2, (), MAX_STOP_SLOTS, "{} > {}")
    assert all(x is y for x, y in zip(table, _first_stops(3, 2, [], MAX_STOP_SLOTS, "{} > {}")))
    assert not table[1].flags.writeable and not table[2].flags.writeable


@pytest.mark.parametrize("b,depth,flagged", [(2, 3, ()), (2, 3, (1,)), (3, 2, (1, 2)), (4, 2, ()), (5, 1, (1,))])
def test_the_cache_bound_counts_every_stopping_time(b, depth, flagged):
    # an entry's size is reckoned from the rule count before it is built
    _, dtype, rules, paths = oracles_module._shape(b, depth, flagged, MAX_STOP_SLOTS, "")
    _, nodes, first = _first_stops(b, depth, flagged, MAX_STOP_SLOTS, "")
    assert first.shape == (rules, paths) and first.dtype == dtype and nodes.shape == (depth + 1, paths)


def test_a_shape_too_large_to_keep_is_built_per_call(monkeypatch):
    monkeypatch.setattr(oracles_module, "CACHED_ENTRY_BYTES", 0)
    tree = build_tree(TimeGrid(1.0, 2))
    first, second = stopping_layout(tree, (2,)), stopping_layout(tree, (2,))
    assert first is not second and first.stop_columns is not second.stop_columns
    assert np.array_equal(first.stop_columns, second.stop_columns) and not second.stop_columns.flags.writeable
    assert _first_stops(2, 3, (), MAX_STOP_SLOTS, "{} > {}")[2] is not _first_stops(2, 3, (), MAX_STOP_SLOTS, "")[2]
