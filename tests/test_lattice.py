import time

import numpy as np
import pytest

from treebsde import (
    AdaptedValues,
    AmbiguousNodeIds,
    DensityNotPositive,
    IntensityTooLarge,
    LayerMismatch,
    MarkSet,
    NonFiniteState,
    SizeOverflow,
    TimeGrid,
    build_tree,
    conditional_expectation,
    forward_state,
    node_id_table,
    one_step_density,
    represent_layer,
    reweight,
)
from treebsde.lattice import _branch_sum


def reconstruct_children(tree, a, z, v):
    """Inverse of the representation: child values from (a, Z, V)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    v = np.atleast_2d(np.asarray(v, dtype=float))
    # without marks the empty sum adds +0.0, which turns a -0.0 into +0.0
    marks = _branch_sum(v[:, None, :], tree.comp) if tree.marks.m else 0.0
    out = a[:, None] + z[:, None] * tree.db + marks
    return out.ravel()


def tree_1_0():
    return build_tree(TimeGrid(horizon=1.0, steps=1))


def tree_1_1():
    # dt = 1, lambda = 0.2 -> mark weight 0.2
    return build_tree(TimeGrid(horizon=1.0, steps=1), MarkSet(points=(1.0,), rates=(0.2,)))


class TestBuildTree:
    def test_no_marks_shape(self):
        tree = tree_1_0()
        assert tree.node_count() == 3
        assert np.allclose(tree.base_weights, [0.5, 0.5])

    def test_single_mark_weights(self):
        tree = tree_1_1()
        assert np.allclose(tree.base_weights, [0.4, 0.4, 0.2])
        assert tree.n_branches == 3

    def test_two_step_node_count(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))
        assert tree.node_count() == 1 + 3 + 9

    def test_intensity_too_large(self):
        with pytest.raises(IntensityTooLarge):
            build_tree(TimeGrid(1.0, 1), MarkSet((1.0,), (1.0,)))

    def test_node_cap(self):
        with pytest.raises(SizeOverflow):
            build_tree(TimeGrid(1.0, 5), MarkSet((1.0,), (0.2,)), node_cap=100)

    def test_huge_grid_is_refused_by_its_logarithm(self):
        # 2**(10**9 + 1) nodes: forming that integer would take hours
        start = time.perf_counter()
        with pytest.raises(SizeOverflow, match="a tree of 1000000000 steps with 2 branches"):
            build_tree(TimeGrid(1.0, 10**9))
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("horizon", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_horizon_is_refused(self, horizon):
        # an infinite horizon gave time(0) = 0*inf = NaN and NaN base weights
        with pytest.raises(ValueError, match="horizon"):
            TimeGrid(horizon, 2)

    def test_steps_too_large_for_a_float_is_refused(self):
        # horizon/steps raised a bare OverflowError, which names no field
        with pytest.raises(ValueError, match="^steps must be at most the largest float"):
            TimeGrid(1.0, 10**400)

    @pytest.mark.parametrize("rate", [float("nan"), 0.0, -0.3])
    def test_mark_rate_that_is_not_positive_is_refused(self, rate):
        # a NaN rate passed the old "r <= 0" check, and the solve returned a NaN root
        with pytest.raises(ValueError, match="mark rates must be strictly positive"):
            MarkSet((1.0, 2.0), (0.2, rate))

    def test_weights_sum_to_one(self):
        tree = build_tree(TimeGrid(2.0, 4), MarkSet((1.0, -1.0), (0.3, 0.1)))
        assert tree.base_weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(tree.base_weights > 0)

    def test_node_ids_are_path_strings(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))
        assert tree.node_id(0, 0) == ""
        assert tree.node_id(1, 2) == "1"
        assert tree.node_id(2, 3) == "du"

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_node_id_table_matches_node_id(self, m):
        marks = MarkSet(tuple(float(j) for j in range(m)), tuple(0.1 for _ in range(m)))
        tree = build_tree(TimeGrid(1.0, 4), marks)
        table = node_id_table(tree)
        assert len(table) == tree.n_layers
        for k in range(tree.n_layers):
            assert table[k] == [tree.node_id(k, i) for i in range(tree.layer_size(k))]

    @pytest.mark.parametrize("m", [9, 10, 11])
    def test_node_ids_are_unique_or_refused(self, m):
        # from 10 marks on the labels are not prefix-free: with 11, "11" is mark 11
        # at layer 1 and mark 1 twice at layer 2, and "111" names two layer-2 nodes
        tree = build_tree(TimeGrid(1.0, 2), MarkSet(tuple(float(j) for j in range(m)), (0.05,) * m))
        if m > 9:
            with pytest.raises(AmbiguousNodeIds, match=f"^{m} marks: node ids spell each mark by one digit"):
                node_id_table(tree)
            with pytest.raises(AmbiguousNodeIds):
                tree.node_id(1, 0)
            return
        ids = [nid for layer in node_id_table(tree) for nid in layer]
        assert len(set(ids)) == len(ids) == tree.node_count()

    def test_row_gathers_and_parents_follow_the_layout(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.3,)))
        child_values = np.arange(tree.layer_size(2), dtype=float)
        rows = np.array([0, 2])
        assert np.array_equal(tree.children(child_values, 1, rows), tree.children(child_values, 1)[rows])
        assert np.array_equal(tree.parents(tree.child(rows, 1)), rows)
        full = represent_layer(tree, child_values, 1)
        for whole, part in zip(full, represent_layer(tree, child_values, 1, rows)):
            assert whole[rows].tobytes() == part.tobytes()

    def test_layout_helpers_follow_node_ids(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.3,)))
        ids = node_id_table(tree)
        parent = np.arange(tree.layer_size(1), dtype=float)
        child_values = np.arange(tree.layer_size(2), dtype=float)
        grouped = tree.children(child_values, 1)
        assert np.shares_memory(grouped, child_values)  # a view: sweeps copy no layer
        spread = tree.spread(parent)
        for i in range(tree.layer_size(1)):
            for c, label in enumerate(tree.branch_labels()):
                assert ids[2][tree.child(i, c)] == ids[1][i] + label
                assert grouped[i, c] == child_values[tree.child(i, c)]
                assert spread[tree.child(i, c)] == parent[i]

    def test_layer_probabilities_sum(self):
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.3,)))
        probs = list(tree.layer_probabilities())
        assert len(probs) == 4
        for k in range(4):
            assert probs[k].sum() == pytest.approx(1.0, abs=1e-12)


class TestConditionalExpectation:
    def test_weighted_mean(self):
        tree = tree_1_1()
        out = conditional_expectation(tree, np.array([1.0, -1.0, 2.0]), 0)
        assert out[0] == pytest.approx(0.4, abs=1e-15)

    def test_constant_children(self):
        tree = tree_1_1()
        out = conditional_expectation(tree, np.full(3, 7.25), 0)
        assert out[0] == pytest.approx(7.25, abs=1e-15)

    def test_mark_indicator(self):
        tree = tree_1_1()
        out = conditional_expectation(tree, np.array([0.0, 0.0, 1.0]), 0)
        assert out[0] == pytest.approx(0.2, abs=1e-15)

    def test_layer_mismatch(self):
        tree = tree_1_1()
        with pytest.raises(LayerMismatch):
            conditional_expectation(tree, np.zeros(4), 0)

    def test_tower_property(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.3,)))
        rng = np.random.default_rng(0)
        leaf = rng.normal(size=9)
        two_step = conditional_expectation(tree, conditional_expectation(tree, leaf, 1), 0)
        direct = float(list(tree.layer_probabilities())[2] @ leaf)
        assert two_step[0] == pytest.approx(direct, abs=1e-12)


class TestRepresentation:
    def test_hand_solved_system(self):
        tree = tree_1_1()
        (a,), (z,), (v,) = represent_layer(tree, [1.0, -1.0, 2.0], 0)
        assert a == pytest.approx(0.4, abs=1e-15)
        assert z == pytest.approx(1.0, abs=1e-15)
        assert v[0] == pytest.approx(2.0, abs=1e-15)

    def test_constants(self):
        tree = tree_1_1()
        (a,), (z,), (v,) = represent_layer(tree, [3.0, 3.0, 3.0], 0)
        assert a == pytest.approx(3.0, abs=1e-15)
        assert z == 0.0
        assert v[0] == 0.0

    def test_diffusion_increment_is_basis_vector(self):
        tree = tree_1_1()
        (a,), (z,), (v,) = represent_layer(tree, tree.db, 0)
        assert a == pytest.approx(0.0, abs=1e-15)
        assert z == pytest.approx(1.0, abs=1e-15)
        assert v[0] == pytest.approx(0.0, abs=1e-15)

    def test_reconstruction_roundtrip(self):
        tree = build_tree(TimeGrid(0.7, 2), MarkSet((1.0, 2.0), (0.3, 0.2)))
        rng = np.random.default_rng(1)
        child = rng.normal(size=4 * 4)
        a, z, v = represent_layer(tree, child, 1)
        back = reconstruct_children(tree, a, z, v)
        assert np.max(np.abs(back - child)) < 1e-12


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestBranchSums:
    """The per-node branch sums equal NumPy's row reduce, the reference, bit for bit."""

    @staticmethod
    def reference(grouped, w):
        return (grouped * w).sum(axis=1)

    @staticmethod
    def child_value_sets(rng, size):
        yield rng.normal(size=size) * 10.0 ** rng.integers(-6, 6, size=size)
        # ties and signed zeros
        yield rng.choice([-0.0, 0.0, 1.0, -1.0, 0.25], size=size)
        yield np.full(size, -0.0)
        yield np.where(rng.uniform(size=size) < 0.5, -0.0, rng.normal(size=size))

    @staticmethod
    def weight_sets(rng, tree, n):
        b = tree.n_branches
        yield rng.dirichlet(np.ones(b), size=n)
        yield rng.choice([-0.0, 0.0, 0.5, 0.25], size=(n, b))
        yield np.broadcast_to(tree.base_weights, (n, b))
        yield tree.base_weights[None, :]

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_match_row_reduce(self, m):
        marks = MarkSet(tuple(float(j + 1) for j in range(m)), (0.3,) * m) if m else None
        tree = build_tree(TimeGrid(1.0, 3), marks)
        b, n = tree.n_branches, tree.layer_size(2)
        rng = np.random.default_rng(40 + m)
        for child in self.child_value_sets(rng, n * b):
            grouped = child.reshape(n, b)
            base = self.reference(grouped, tree.base_weights)
            a, _, _ = represent_layer(tree, child, 2)
            assert_same_bits(a, base)
            assert_same_bits(conditional_expectation(tree, child, 2), base)
            for w in self.weight_sets(rng, tree, n):
                want = self.reference(grouped, w)
                assert_same_bits(conditional_expectation(tree, child, 2, weights=w), want)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_mark_contractions_match_row_reduce(self, m):
        # sum_j v_j*comp[c, j] per row; without marks the empty sum still adds +0.0
        marks = MarkSet(tuple(float(j + 1) for j in range(m)), (0.3,) * m) if m else None
        tree = build_tree(TimeGrid(1.0, 3), marks)
        rng = np.random.default_rng(45 + m)
        n = 500
        a, z = rng.normal(size=n), rng.normal(size=n)
        a[::5], z[::5], z[1::5] = -0.0, 0.0, -0.0
        for v in self.child_value_sets(rng, n * m):
            v = v.reshape(n, m)
            jumps = (v[:, None, :] * tree.comp).sum(axis=-1)
            assert_same_bits(reconstruct_children(tree, a, z, v),
                             (a[:, None] + z[:, None] * tree.db + jumps).ravel())
            assert_same_bits(one_step_density(tree, z, v), 1.0 + z[:, None] * tree.db + jumps)

    def test_leading_negative_zero_sums_to_positive_zero(self):
        tree = build_tree(TimeGrid(1.0, 1))
        child = np.array([-0.0, -0.0])
        assert_same_bits(conditional_expectation(tree, child, 0), np.array([0.0]))
        assert_same_bits(represent_layer(tree, child, 0)[0], np.array([0.0]))


class TestReweight:
    def test_identity_tilt(self):
        tree = tree_1_1()
        w = reweight(tree, np.zeros(1), np.zeros((1, 1)), 0)
        assert np.allclose(w, tree.base_weights, atol=1e-15)

    def test_pure_drift(self):
        tree = tree_1_0()
        w = reweight(tree, np.array([0.5]), np.zeros((1, 0)), 0)
        assert np.allclose(w[0], [0.75, 0.25], atol=1e-15)

    def test_pure_mark_tilt(self):
        tree = tree_1_1()
        w = reweight(tree, np.zeros(1), np.ones((1, 1)), 0)
        assert np.allclose(w[0], [0.32, 0.32, 0.36], atol=1e-15)

    def test_mean_one(self):
        tree = build_tree(TimeGrid(1.0, 1), MarkSet((1.0, -2.0), (0.2, 0.1)))
        rng = np.random.default_rng(2)
        zeta = one_step_density(tree, rng.uniform(-0.5, 0.5, 1), rng.uniform(-0.5, 0.5, (1, 2)))
        assert float(tree.base_weights @ zeta[0]) == pytest.approx(1.0, abs=1e-12)

    def test_density_not_positive(self):
        tree = tree_1_0()
        with pytest.raises(DensityNotPositive):
            reweight(tree, np.array([2.0]), np.zeros((1, 0)), 0)


class TestForwardState:
    def test_no_noise(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))
        x = forward_state(tree, lambda t, x: 0.0, lambda t, e, x: 0.0, 3.0)
        for k in range(3):
            assert np.all(x.layer(k) == 3.0)

    def test_unit_diffusion(self):
        tree = tree_1_0()
        x = forward_state(tree, lambda t, x: 1.0, lambda t, e, x: 0.0, 0.0)
        assert np.allclose(x.layer(1), [1.0, -1.0], atol=1e-15)

    def test_compensated_jump(self):
        tree = tree_1_1()
        x = forward_state(tree, lambda t, x: 0.0, lambda t, e, x: 1.0, 0.0)
        assert np.allclose(x.layer(1), [-0.2, -0.2, 0.8], atol=1e-15)

    def test_random_walk_exact(self):
        tree = build_tree(TimeGrid(1.0, 4))
        x = forward_state(tree, lambda t, x: 2.0, lambda t, e, x: 0.0, 0.0)
        step = 2.0 * 0.5  # sigma * sqrt(dt)
        signs = np.array([1.0, -1.0])
        expect = np.add.outer(np.add.outer(signs, signs), signs).ravel() * step
        assert np.array_equal(x.layer(3), expect)

    def test_non_finite_start(self):
        tree = tree_1_0()
        with pytest.raises(NonFiniteState):
            forward_state(tree, lambda t, x: 1.0, lambda t, e, x: 0.0, float("nan"))


class TestAdaptedValues:
    def test_layer_range(self):
        vals = AdaptedValues([np.zeros(1), np.zeros(2)], 0)
        assert vals.last_layer == 1
        with pytest.raises(LayerMismatch):
            vals.layer(2)


@pytest.mark.parametrize("make, error, match", [
    # a float count was accepted, and build_tree reported node_count() 10.0
    (lambda: TimeGrid(1.0, 2.5), ValueError, r"^steps must be an integer, got 2\.5"),
    (lambda: TimeGrid(1.0, 3.0), ValueError, "^steps must be an integer"),
    (lambda: MarkSet((1.0, 2.0), (0.3,)), ValueError, "points and rates must have equal length"),
    (lambda: forward_state(build_tree(TimeGrid(1.0, 2)), lambda t, x: np.full_like(x, np.inf), None, 0.0),
     NonFiniteState, "non-finite state at layer 1"),
], ids=["fractional-steps", "float-steps", "unequal-marks", "infinite-state"])
def test_bad_lattice_input_is_refused(make, error, match):
    with pytest.raises(error, match=match):
        make()
