import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebsde import (
    AdaptedValues,
    BarrierPair,
    ControlGrid,
    DensityNotPositive,
    GameSpec,
    GeneratorSpec,
    MarkSet,
    OracleInconsistent,
    ProblemSpec,
    SaddleViolated,
    SeparationViolated,
    SingularSigma,
    TimeGrid,
    TooLargeToEnumerate,
    backward_clamped_solve,
    brute_force_game_oracle,
    build_tree,
    constant_control_map,
    dynkin_value,
    solve_game,
    reweight,
    tilt_dual,
    values_from_function,
)
from treebsde.acceptance import _random_game
import treebsde.game as game_module
import treebsde.oracles as oracles_module
from treebsde.game import (
    _check_pair_count,
    _hamiltonian_table,
    _layer_columns,
    _map_coefficients,
    _oracle_tables,
    _pair_block_bounds,
    _saddle_from_table,
)
from treebsde.lattice import _branch_sum
from treebsde.oracles import digit_table, stopping_layout
from traced import traced_peak


def pair_oracle(tree, layout, terminal, barriers, drift, weights):
    """``dynkin_pair_oracle``'s (infsup, supinf) under the tilted ``weights``, reduced as it reduces.

    Looks ``dynkin_pair_values`` up on its module at each call, so a patched one is seen.
    """
    total = oracles_module.dynkin_pair_values(tree, layout, terminal, barriers, drift, weights)
    return float(total.max(axis=1).min()), float(total.min(axis=0).max())


def all_maps(tree, n_controls):
    """Every assignment of a control index to each non-terminal node, the reference enumeration.

    Map ``code`` is row ``code`` of the digit table over the nodes in layer
    order, split into per-layer arrays.
    """
    cols = _layer_columns(tree)
    return [[row[c] for c in cols] for row in digit_table(n_controls, cols[-1].stop)]


def wide_game(tree, terminal, **kwargs):
    barriers = BarrierPair(values_from_function(tree, -1e6), values_from_function(tree, 1e6))
    controls = kwargs.pop("controls", ControlGrid((0.0,), (0.0,)))
    return GameSpec(tree, controls, barriers, terminal, **kwargs)


def payoff_table_game(tree, table, terminal=0.0, lower=-1e6, upper=1e6):
    """Controls are row/column indices; running payoff reads the matrix."""
    table = np.asarray(table, dtype=float)
    barriers = BarrierPair(values_from_function(tree, lower), values_from_function(tree, upper))
    controls = ControlGrid(tuple(range(table.shape[0])), tuple(range(table.shape[1])))
    return GameSpec(
        tree, controls, barriers, terminal,
        running=lambda t, x, u, v: table[u, v],
    )


def separable_sigma_game(rng, N=4):
    """One-mark 3x3 game with separable constant tables, sigma = 0.86 and layer 2 flagged."""
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0,), (0.9,)))
    fu, fv, hu, hv, bu, bv = (rng.uniform(-s, s, 3) for s in (0.3, 0.3, 0.3, 0.3, 0.1, 0.1))
    barriers = BarrierPair(values_from_function(tree, -0.6), values_from_function(tree, 0.6),
                           {2: (None, np.full(tree.layer_size(2), 0.1))})
    return GameSpec(
        tree, ControlGrid((0, 1, 2), (0, 1, 2)), barriers, rng.uniform(-0.5, 0.5, tree.layer_size(N)),
        sigma=lambda t, x: np.full_like(x, 0.86),
        gamma=lambda t, e, x: np.full_like(x, -0.27),
        drift=lambda t, x, u, v: np.full_like(x, fu[u] + fv[v]),
        running=lambda t, x, u, v: np.full_like(x, hu[u] + hv[v]),
        tilt=lambda t, e, x, u, v: np.full_like(x, bu[u] + bv[v]),
    )


class TestHamiltonian:
    def test_zero_game(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = wide_game(tree, np.zeros(2))
        assert _hamiltonian_table(game, 0.0, 0.0, 1.0, np.zeros((1, 0)))[0, 0, 0] == 0.0

    def test_drift_term(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = wide_game(
            tree, np.zeros(2),
            controls=ControlGrid((-1.0, 1.0), (-1.0, 1.0)),
            drift=lambda t, x, u, v: u - v,
        )
        table = _hamiltonian_table(game, 0.0, 0.0, 1.0, np.zeros((1, 0)))
        assert table[:, :, 0].tolist() == [[0.0, -2.0], [2.0, 0.0]]

    def test_mark_term(self):
        tree = build_tree(TimeGrid(1.0, 1), MarkSet((1.0,), (0.2,)))
        game = wide_game(
            tree, np.zeros(3),
            tilt=lambda t, e, x, u, v: 1.0,
        )
        # r*beta*lambda = 2 * 1 * 0.2
        out = _hamiltonian_table(game, 0.0, 0.0, 0.0, np.array([[2.0]]))
        assert out[0, 0, 0] == pytest.approx(0.4, abs=1e-15)

    def test_singular_sigma(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = wide_game(tree, np.zeros(2), sigma=lambda t, x: 0.0 * x)
        with pytest.raises(SingularSigma):
            _hamiltonian_table(game, 0.0, 0.0, 1.0, np.zeros((1, 0)))


def one_node_saddle(game):
    """The saddle of one node's H table at z = 0, without marks: (u*, v*, H*, gap)."""
    u, v, h, gap = _saddle_from_table(_hamiltonian_table(game, 0.0, 0.0, 0.0, np.zeros((1, 0))))
    return game.controls.A[u[0]], game.controls.B[v[0]], h[0], gap[0]


class TestSaddleSelect:
    def test_pure_saddle(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = payoff_table_game(tree, [[1.0, 2.0], [0.0, 3.0]])
        u, v, h, gap = one_node_saddle(game)
        assert (u, v) == (0, 1)
        assert h == 2.0
        assert gap == 0.0

    def test_matching_pennies_gap(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = payoff_table_game(tree, [[0.0, 1.0], [1.0, 0.0]])
        _, _, h, gap = one_node_saddle(game)
        assert h == 1.0  # infsup side
        assert gap == 1.0

    def test_constant_table_first_index(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = payoff_table_game(tree, [[5.0, 5.0], [5.0, 5.0]])
        u, v, h, gap = one_node_saddle(game)
        assert (u, v, h, gap) == (0, 0, 5.0, 0.0)


class TestTiltDual:
    def test_no_marks_shrinks_nothing(self):
        tree = build_tree(TimeGrid(1.0, 1))
        zg, rg = tilt_dual(tree, np.array([2.0]), np.zeros((1, 0)))
        assert zg[0] == 2.0

    def test_single_mark(self):
        tree = build_tree(TimeGrid(1.0, 1), MarkSet((1.0,), (0.2,)))
        zg, rg = tilt_dual(tree, np.array([1.0]), np.array([[3.0]]))
        assert zg[0] == pytest.approx(0.8, abs=1e-15)  # 1 - dt*lambda
        assert rg[0, 0] == pytest.approx(3.0 - 0.2 * 3.0, abs=1e-15)


class TestSolveGame:
    def test_degenerate_equals_clamped_solve(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.3,)))
        rng = np.random.default_rng(40)
        lower = values_from_function(tree, -1.0)
        upper = values_from_function(tree, 1.0)
        xi = rng.uniform(-1.0, 1.0, 9)
        game = GameSpec(tree, ControlGrid((0.0,), (0.0,)), BarrierPair(lower, upper), xi)
        result = solve_game(game)
        problem = ProblemSpec(
            tree, GeneratorSpec("constant", {"c0": 0.0}), BarrierPair(lower, upper), xi
        )
        plain = backward_clamped_solve(problem)
        for k in range(3):
            assert np.array_equal(result.Y.layer(k), plain.Y.layer(k))
        assert result.max_gap == 0.0

    def test_constant_running_payoff_accumulates(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))
        rng = np.random.default_rng(41)
        xi = rng.normal(size=9)
        game = wide_game(tree, xi, running=lambda t, x, u, v: 1.0)
        result = solve_game(game)
        expect = float(list(tree.layer_probabilities())[2] @ xi) + 1.0  # E[xi] + T*h
        assert result.Y.layer(0)[0] == pytest.approx(expect, abs=1e-12)

    def test_one_step_matrix_value(self):
        # dt = 1, xi = 0, wide barriers: the value is the saddle of the matrix
        tree = build_tree(TimeGrid(1.0, 1))
        game = payoff_table_game(tree, [[1.0, 2.0], [0.0, 3.0]])
        result = solve_game(game)
        supinf, infsup = brute_force_game_oracle(game)
        assert result.Y.layer(0)[0] == 2.0
        assert supinf == pytest.approx(2.0, abs=1e-12)
        assert infsup == pytest.approx(2.0, abs=1e-12)

    def test_saddle_maps_recorded(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = payoff_table_game(tree, [[1.0, 2.0], [0.0, 3.0]])
        result = solve_game(game)
        assert result.u_star(0) == [0]
        assert result.v_star(0) == [1]


class TestDynkinValue:
    def test_one_step_tilted_expectation(self):
        # theta = 0.5 tilts the coin to (0.75, 0.25); xi = (1, -1) -> 0.5
        tree = build_tree(TimeGrid(1.0, 1))
        game = wide_game(tree, np.array([1.0, -1.0]), drift=lambda t, x, u, v: 0.5)
        um = constant_control_map(tree, 0)
        vm = constant_control_map(tree, 0)
        r1, r2 = dynkin_value(game, um, vm)
        assert r1.layer(0)[0] == pytest.approx(0.5, abs=1e-15)
        assert r2.layer(0)[0] == pytest.approx(0.5, abs=1e-15)

    def test_routes_agree_with_marks(self):
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.4,)))
        rng = np.random.default_rng(42)
        lower = values_from_function(tree, -0.8)
        upper = values_from_function(tree, 0.8)
        xi = rng.uniform(-0.8, 0.8, tree.layer_size(3))
        game = GameSpec(
            tree, ControlGrid((0.0, 1.0), (0.0, 1.0)), BarrierPair(lower, upper), xi,
            drift=lambda t, x, u, v: 0.3 * u - 0.2 * v,
            tilt=lambda t, e, x, u, v: 0.5 * u,
            running=lambda t, x, u, v: u * v,
        )
        um = [rng.integers(0, 2, tree.layer_size(k)) for k in range(3)]
        vm = [rng.integers(0, 2, tree.layer_size(k)) for k in range(3)]
        r1, r2 = dynkin_value(game, um, vm)
        for k in range(4):
            assert np.max(np.abs(r1.layer(k) - r2.layer(k))) <= 1e-14

    def test_single_control_matches_solve_game(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.3,)))
        rng = np.random.default_rng(43)
        lower = values_from_function(tree, -0.5)
        upper = values_from_function(tree, 0.5)
        xi = rng.uniform(-0.5, 0.5, 9)
        game = GameSpec(
            tree, ControlGrid((1.0,), (1.0,)), BarrierPair(lower, upper), xi,
            drift=lambda t, x, u, v: 0.4 * u,
            running=lambda t, x, u, v: 0.1,
        )
        result = solve_game(game)
        r2 = dynkin_value(game, constant_control_map(tree, 0),
                          constant_control_map(tree, 0), route="R2")
        for k in range(3):
            assert np.array_equal(result.Y.layer(k), r2.layer(k))

    def test_solve_game_equals_r2_under_its_saddle_maps(self):
        # sigma != 1 with a flagged layer: the saddle solve and route R2 evaluate
        # the one Hamiltonian at the same pair, so they agree bit for bit
        for seed in range(5):
            game = separable_sigma_game(np.random.default_rng(seed))
            result = solve_game(game)
            r2 = dynkin_value(game, result.u_index.layers, result.v_index.layers, route="R2")
            for k in range(game.tree.n_layers):
                assert np.array_equal(result.Y.layer(k), r2.layer(k)), (seed, k)

    def test_density_not_positive(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = wide_game(tree, np.zeros(2), drift=lambda t, x, u, v: 3.0)
        with pytest.raises(DensityNotPositive):
            dynkin_value(game, constant_control_map(tree, 0),
                         constant_control_map(tree, 0), route="R1")

    def test_bad_route(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = wide_game(tree, np.zeros(2))
        with pytest.raises(ValueError):
            dynkin_value(game, constant_control_map(tree, 0),
                         constant_control_map(tree, 0), route="R3")


class TestGameOracle:
    def test_single_pair_matches_dynkin(self):
        tree = build_tree(TimeGrid(1.0, 2))
        rng = np.random.default_rng(44)
        lower = values_from_function(tree, -0.6)
        upper = values_from_function(tree, 0.6)
        xi = rng.uniform(-0.6, 0.6, 4)
        game = GameSpec(
            tree, ControlGrid((1.0,), (1.0,)), BarrierPair(lower, upper), xi,
            drift=lambda t, x, u, v: 0.3,
            running=lambda t, x, u, v: -0.2,
        )
        supinf, infsup = brute_force_game_oracle(game)
        r1 = dynkin_value(game, constant_control_map(tree, 0),
                          constant_control_map(tree, 0), route="R1")
        assert supinf == pytest.approx(infsup, abs=1e-12)
        assert infsup == pytest.approx(r1.layer(0)[0], abs=1e-10)

    def test_weak_duality(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = payoff_table_game(tree, [[0.0, 1.0], [1.0, 0.0]],
                                 lower=-0.3, upper=0.3)
        supinf, infsup = brute_force_game_oracle(game)
        assert supinf <= infsup + 1e-12

    def test_size_cap(self):
        tree = build_tree(TimeGrid(1.0, 4), MarkSet((1.0,), (0.2,)))
        game = payoff_table_game(tree, [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TooLargeToEnumerate):
            brute_force_game_oracle(game)


class TestGameSpec:
    @pytest.mark.parametrize("n", [3, 5])
    def test_terminal_length_checked(self, n):
        # an extra leaf value must not be dropped, nor a missing one fail inside a solve
        tree = build_tree(TimeGrid(1.0, 2))
        with pytest.raises(ValueError, match=f"terminal layer needs 4 values, got {n}"):
            wide_game(tree, np.zeros(n))

    def test_scalar_terminal_fills_every_leaf(self):
        tree = build_tree(TimeGrid(1.0, 2))
        assert np.array_equal(wide_game(tree, 0.25).terminal, np.full(4, 0.25))

    def test_the_state_stays_that_of_the_specs_callbacks(self):
        # a sigma reassigned after a solve kept the cached state of the old one,
        # while sigma_at read the new one
        tree = build_tree(TimeGrid(1.0, 2))
        game = wide_game(tree, np.zeros(4))
        solve_game(game)
        with pytest.raises(dataclasses.FrozenInstanceError):
            game.sigma = lambda t, x: 3.0 + 0 * x
        assert np.array_equal(np.abs(game.state().layer(1)), np.full(2, np.sqrt(0.5)))
        tripled = dataclasses.replace(game, sigma=lambda t, x: 3.0 + 0 * x)
        assert np.array_equal(np.abs(tripled.state().layer(1)), np.full(2, 3.0 * np.sqrt(0.5)))
        assert game.sigma_at(0.5, game.state().layer(1)).tolist() == [1.0, 1.0]


class TestControlGrid:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ControlGrid((), (1.0,))

    def test_the_grid_is_frozen(self):
        grid = ControlGrid([0.0, 1.0], (2.0,))
        assert grid.A == (0.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.A = (5.0,)


def varying_game(rng, m):
    """Random two-step game, flagged at layer 1, whose coefficients vary with t and x.

    Reading a control table at the wrong layer or node changes the values,
    so the exact comparisons below catch off-by-one indexing.
    """
    tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.4,)) if m else None)
    low = [np.full(tree.layer_size(k), -2.0) + rng.normal(0.0, 0.2, tree.layer_size(k))
           for k in range(tree.n_layers)]
    up = [lo + rng.uniform(2.5, 4.0, lo.shape[0]) for lo in low]
    lp = low[1] + rng.normal(0.0, 0.2, tree.layer_size(1))
    barriers = BarrierPair(AdaptedValues(low, 0), AdaptedValues(up, 0),
                           {1: (lp, lp + rng.uniform(2.0, 3.0, lp.shape[0]))})
    xi = low[-1] + rng.uniform(0.2, 0.8, tree.layer_size(2)) * (up[-1] - low[-1])
    fu, hu, bu = rng.uniform(-0.4, 0.4, (2, 2)), rng.uniform(-0.5, 0.5, (2, 2)), rng.uniform(-0.1, 0.1, (2, 2))
    return GameSpec(
        tree, ControlGrid((0, 1), (0, 1)), barriers, xi,
        sigma=lambda t, x: 1.0 + 0.1 * np.cos(x),
        gamma=(lambda t, e, x: 0.3 + 0.1 * x) if m else None,
        drift=lambda t, x, u, v: fu[u, v] + 0.2 * np.sin(3.0 * x) + 0.1 * t,
        running=lambda t, x, u, v: hu[u, v] + 0.3 * x - 0.2 * t,
        tilt=(lambda t, e, x, u, v: bu[u, v] + 0.05 * np.tanh(x) + 0.02 * t) if m else None,
    )


def eval_callback(fn, t, x, u, v):
    """A control callback's values per node, zeros for None: the former ``GameSpec._eval``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if fn is None:
        return np.zeros_like(x)
    return np.broadcast_to(np.asarray(fn(t, x, u, v), dtype=float), x.shape).astype(float)


def tilt_columns(game, t, x, u, v):
    """Per-mark intensity tilt, shape (n, m): the former ``GameSpec.tilt_at``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = game.tree.marks.m
    if game.tilt is None or m == 0:
        return np.zeros((x.shape[0], m))
    cols = [
        np.broadcast_to(np.asarray(game.tilt(t, e, x, u, v), dtype=float), x.shape)
        for e in game.tree.marks.points
    ]
    return np.stack(cols, axis=1)


def masked_coefficients(game, u_map, v_map):
    """theta, beta, h per layer, each control pair evaluated on its own nodes only."""
    tree = game.tree
    out = []
    for k in range(tree.grid.steps):
        t, x = tree.grid.time(k), game.state().layer(k)
        theta, beta, h = np.zeros(x.shape[0]), np.zeros((x.shape[0], tree.marks.m)), np.zeros(x.shape[0])
        sig = game.sigma_at(t, x)
        for iu, u in enumerate(game.controls.A):
            for iv, v in enumerate(game.controls.B):
                mask = (np.asarray(u_map[k]) == iu) & (np.asarray(v_map[k]) == iv)
                theta[mask] = eval_callback(game.drift, t, x[mask], u, v) / sig[mask]
                h[mask] = eval_callback(game.running, t, x[mask], u, v)
                if tree.marks.m:
                    beta[mask] = tilt_columns(game, t, x[mask], u, v)
        out.append((theta, beta, h))
    return out


def masked_pair_oracle(game, layout, u_map, v_map):
    """``pair_oracle`` under one map pair, its weights and running payoff from ``masked_coefficients``."""
    tree = game.tree
    coeff = masked_coefficients(game, u_map, v_map)
    return pair_oracle(
        tree, layout, game.terminal, game.barriers,
        drift=AdaptedValues([h for _, _, h in coeff], 0),
        weights=[reweight(tree, theta, beta, k) for k, (theta, beta, _) in enumerate(coeff)],
    )


class TestOracleTables:
    @pytest.mark.parametrize("m", [0, 1])
    def test_map_coefficients_equal_masked_evaluation(self, m):
        # bit for bit, for one map pair at a time and for a batch of five
        rng = np.random.default_rng(300 + m)
        game = varying_game(rng, m)
        N = game.tree.grid.steps
        maps = all_maps(game.tree, 2)
        pairs = [(maps[i], maps[j]) for i, j in rng.integers(0, len(maps), (10, 2))]
        for um, vm in pairs:
            for k, ref in enumerate(masked_coefficients(game, um, vm)):
                assert arrays_bits(_map_coefficients(game, um, vm, k)) == arrays_bits(ref)
        batch = pairs[:5]
        u_maps, v_maps = ([np.stack([pair[i][k] for pair in batch]) for k in range(N)] for i in (0, 1))
        refs = [masked_coefficients(game, um, vm) for um, vm in batch]
        for k in range(N):
            stacked = [np.stack([ref[k][i] for ref in refs]) for i in range(3)]
            assert arrays_bits(_map_coefficients(game, u_maps, v_maps, k)) == arrays_bits(stacked)

    @pytest.mark.parametrize("m", [0, 1])
    def test_pair_value_from_tables_equals_dynkin_pair_oracle(self, m):
        rng = np.random.default_rng(310 + m)
        game = varying_game(rng, m)
        tree = game.tree
        layout = stopping_layout(tree, game.barriers.flagged)
        tables = _oracle_tables(game)
        maps = all_maps(tree, 2)
        for um, vm in [(maps[i], maps[j]) for i, j in rng.integers(0, len(maps), (20, 2))]:
            reference = masked_pair_oracle(game, layout, um, vm)
            assert tuple(map(float, _pair_block_bounds(game, layout, tables, um, vm))) == reference

    def test_oracle_brackets_solve_on_varying_game(self):
        game = varying_game(np.random.default_rng(320), 1)
        supinf, infsup = brute_force_game_oracle(game)
        root = solve_game(game).Y.layer(0)[0]
        assert supinf - 1e-9 <= root <= infsup + 1e-9


class TestPairCount:
    def test_huge_count_is_not_formed(self):
        with pytest.raises(TooLargeToEnumerate, match=r"2\^9841 x 2\^9841 control-map pairs"):
            _check_pair_count(2, 2, 9841)

    def test_exact_at_the_cap(self):
        _check_pair_count(10, 1, 6)  # 10**6 pairs: at the cap, allowed
        with pytest.raises(TooLargeToEnumerate):
            _check_pair_count(10, 1, 7)
        _check_pair_count(1, 1, 10**9)


def per_pair_oracle(game):
    """The game oracle as a loop of one ``masked_pair_oracle`` call per map pair, in code order."""
    tree = game.tree
    layout = stopping_layout(tree, game.barriers.flagged)
    vals = []
    for um in all_maps(tree, len(game.controls.A)):
        row = []
        for vm in all_maps(tree, len(game.controls.B)):
            infsup, supinf = masked_pair_oracle(game, layout, um, vm)
            if not abs(infsup - supinf) <= 1e-9 * (1.0 + abs(infsup)):
                raise OracleInconsistent(
                    f"inner stopping game without a value: infsup {infsup!r} != supinf {supinf!r}"
                )
            row.append(infsup)
        vals.append(row)
    vals = np.array(vals)
    return float(vals.min(axis=0).max()), float(vals.max(axis=1).min())


def pair_blocks(game):
    """PAIR_BLOCK values giving one pair per block, a ragged 7-pair block and one block for all."""
    d = stopping_layout(game.tree, game.barriers.flagged).pair_class.shape[0]
    return {"one": 1, "ragged": 7 * d * d, "single": 1 << 40}


class TestPairBlocks:
    @pytest.mark.parametrize("block", ["one", "ragged", "single"])
    @pytest.mark.parametrize("flagged", [True, False])
    @pytest.mark.parametrize("m", [0, 1])
    def test_blocked_oracle_equals_per_pair_loop(self, monkeypatch, m, flagged, block):
        game = varying_game(np.random.default_rng(330 + m), m)
        if not flagged:
            game = dataclasses.replace(game, barriers=BarrierPair(game.barriers.lower, game.barriers.upper))
        monkeypatch.setattr(game_module, "PAIR_BLOCK", pair_blocks(game)[block])
        assert brute_force_game_oracle(game) == per_pair_oracle(game)

    @pytest.mark.parametrize("block", ["one", "ragged", "single"])
    def test_inconsistent_inner_game_names_the_first_pair(self, monkeypatch, block):
        # pairs whose maps play (1, 1) at the root get a diagonal bonus, so
        # their inner game loses its value; the first of them in (u-map,
        # v-map) order is (1, 1), the next (1, 3), with other values
        game = varying_game(np.random.default_rng(340), 0)
        one = constant_control_map(game.tree, 1)
        target = masked_coefficients(game, one, one)[0][2][0]
        values = oracles_module.dynkin_pair_values

        def perturbed(tree, layout, terminal, barriers, drift=None, weights=None):
            total = values(tree, layout, terminal, barriers, drift, weights)
            hit = drift.layer(0)[..., 0] == target
            return np.where(hit[..., None, None], total + 100.0 * np.eye(total.shape[-1]), total)

        monkeypatch.setattr(game_module, "dynkin_pair_values", perturbed)
        monkeypatch.setattr(oracles_module, "dynkin_pair_values", perturbed)
        layout = stopping_layout(game.tree, game.barriers.flagged)
        maps = all_maps(game.tree, 2)
        first, second = (masked_pair_oracle(game, layout, maps[1], maps[j]) for j in (1, 3))
        assert first != second and first[0] - first[1] > 1.0
        message = f"inner stopping game without a value: infsup {first[0]!r} != supinf {first[1]!r}"

        with pytest.raises(OracleInconsistent) as reference:
            per_pair_oracle(game)
        assert str(reference.value) == message
        monkeypatch.setattr(game_module, "PAIR_BLOCK", pair_blocks(game)[block])
        with pytest.raises(OracleInconsistent) as blocked:
            brute_force_game_oracle(game)
        assert str(blocked.value) == message


def grid_game(rng, N, size, marks=MarkSet((1.0,), (0.4,))):
    """Random game on a size x size control grid, its coefficients varying with x (one mark by default)."""
    tree = build_tree(TimeGrid(1.0, N), marks)
    barriers = BarrierPair(values_from_function(tree, -3.0), values_from_function(tree, 3.0))
    f, h, b = (rng.uniform(-s, s, (size, size)) for s in (0.4, 0.5, 0.1))
    return GameSpec(
        tree, ControlGrid(tuple(range(size)), tuple(range(size))), barriers,
        np.tanh(rng.normal(size=tree.layer_size(N))),
        sigma=lambda t, x: 1.0 + 0.1 * np.cos(x),
        gamma=lambda t, e, x: 0.3 + 0.1 * np.sin(x),
        drift=lambda t, x, u, v: f[u, v] + 0.2 * np.sin(3.0 * x),
        running=lambda t, x, u, v: h[u, v] + 0.3 * x,
        tilt=lambda t, e, x, u, v: b[u, v] + 0.05 * np.tanh(x),
    )


TWO_MARKS = MarkSet((1.0, -0.5), (0.4, 0.3))


def flag_layer_two(game):
    """``game`` with a lower pre-jump value of -2.5 at layer 2 and no upper jump there."""
    bar = game.barriers
    flagged = {2: (np.full(game.tree.layer_size(2), -2.5), None)}
    return dataclasses.replace(game, barriers=BarrierPair(bar.lower, bar.upper, flagged))


def result_arrays(result):
    """Every array of a GameResult, with its dtype."""
    out = []
    for name in ("Y", "Z", "R", "u_index", "v_index", "gap"):
        out += [(name, a.dtype, a.tobytes()) for a in getattr(result, name).layers]
    for name, value in vars(result.sweep).items():
        if isinstance(value, AdaptedValues):
            out += [(name, a.dtype, a.tobytes()) for a in value.layers]
    out += [("left_limits", k, a.tobytes()) for k, a in sorted(result.sweep.left_limits.items())]
    return out


class TestSolveGameBlocks:
    @pytest.mark.parametrize("block", [2, 7])
    def test_blocked_tables_give_the_same_result(self, monkeypatch, block):
        game = flag_layer_two(grid_game(np.random.default_rng(350), 4, 3))
        reference = solve_game(game)
        monkeypatch.setattr(game_module, "TABLE_BLOCK", block)
        result = solve_game(game)
        assert result_arrays(result) == result_arrays(reference)
        assert result.max_gap > 1e-3  # non-separable tables: the selection is exercised off-saddle too

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_blocked_tables_give_the_same_result_with_two_marks(self, monkeypatch, block):
        # each node's mark sum sees its own row only, however many rows a block holds
        game = flag_layer_two(grid_game(np.random.default_rng(380), 4, 3, TWO_MARKS))
        reference = solve_game(game)
        monkeypatch.setattr(game_module, "TABLE_BLOCK", block)
        assert result_arrays(solve_game(game)) == result_arrays(reference)

    def test_hamiltonian_scratch_is_one_block(self, monkeypatch):
        # N=7, 10x10 controls: one layer's full H table (100 x 729 values)
        # outweighs everything else solve_game holds at once
        game = grid_game(np.random.default_rng(360), 7, 10)
        game.state()
        monkeypatch.setattr(game_module, "TABLE_BLOCK", 64)
        peak = traced_peak(lambda: solve_game(game))
        full_table = 100 * game.tree.layer_size(6) * 8
        assert peak < full_table, (peak, full_table)


class TestRouteR1Pairs:
    def test_constant_maps_call_each_callback_once_per_layer(self):
        # R1 evaluates only the pair its maps pick, on that pair's nodes
        game = grid_game(np.random.default_rng(385), 4, 3)
        calls = []

        def counted(name, fn):
            return lambda t, *args: calls.append((name, t, args[-2:])) or fn(t, *args)

        game = dataclasses.replace(game, **{name: counted(name, getattr(game, name))
                                            for name in ("drift", "tilt", "running")})
        tree = game.tree
        dynkin_value(game, constant_control_map(tree, 1), constant_control_map(tree, 2), route="R1")
        assert sorted(calls) == sorted((name, tree.grid.time(k), (1, 2))
                                       for name in ("drift", "tilt", "running") for k in range(tree.grid.steps))


class TestOneGameSweep:
    def test_game_solve_and_route_r2_run_on_the_engine(self, monkeypatch):
        # one Hamiltonian sweep on backward_sweep; R1 is the independent loop
        calls = []
        engine = game_module.backward_sweep
        monkeypatch.setattr(game_module, "backward_sweep",
                            lambda *args, **kwargs: calls.append(1) or engine(*args, **kwargs))
        game = separable_sigma_game(np.random.default_rng(5))
        maps = constant_control_map(game.tree, 1), constant_control_map(game.tree, 2)
        counts = []
        for run in (lambda: solve_game(game),
                    lambda: dynkin_value(game, *maps, route="R2"),
                    lambda: dynkin_value(game, *maps, route="R1")):
            calls.clear()
            run()
            counts.append(len(calls))
        assert counts == [1, 1, 0]

    def test_touching_left_limits_violate_separation(self):
        # L_pre = U_pre at layer 1: every route clamps like the engine
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.4,)))
        touch = np.full(tree.layer_size(1), 0.2)
        barriers = BarrierPair(values_from_function(tree, -1.0), values_from_function(tree, 1.0),
                               {1: (touch, touch.copy())})
        game = GameSpec(tree, ControlGrid((0, 1), (0, 1)), barriers, np.zeros(tree.layer_size(2)),
                        drift=lambda t, x, u, v: np.full_like(x, 0.1 * u - 0.2 * v))
        maps = constant_control_map(tree, 0), constant_control_map(tree, 1)
        with pytest.raises(SeparationViolated, match="layer 1"):
            solve_game(game)
        for route in ("R1", "R2", "both"):
            with pytest.raises(SeparationViolated, match="layer 1"):
                dynkin_value(game, *maps, route=route)

    @pytest.mark.parametrize("layer", [1, 2])
    def test_crossed_left_limits_are_named(self, layer):
        # L = -1 < U = 1 at every layer; only the left limits at the flagged layer cross
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.4,)))
        n = tree.layer_size(layer)
        barriers = BarrierPair(values_from_function(tree, -1.0), values_from_function(tree, 1.0),
                               {layer: (np.full(n, 2.0), np.full(n, 1.0))})
        game = GameSpec(tree, ControlGrid((0, 1), (0, 1)), barriers, np.zeros(tree.layer_size(2)))
        maps = constant_control_map(tree, 0), constant_control_map(tree, 1)
        text = f"^left limits L- >= U- at flagged layer {layer}$"
        with pytest.raises(SeparationViolated, match=text):
            solve_game(game)
        for route in ("R1", "R2"):
            with pytest.raises(SeparationViolated, match=text):
                dynkin_value(game, *maps, route=route)


def layer_bits(values, row=None):
    """Each layer of ``values`` (its row ``row`` below layer N, if given) as the list of its int64 view."""
    N = len(values.layers) - 1
    return [np.ascontiguousarray(x if row is None or k == N else x[row]).view(np.int64).tolist()
            for k, x in enumerate(values.layers)]


def batch_game(source, m, flagged):
    """A two- or three-step game with m marks, flagged at layer 2 or 1 if ``flagged``: x-dependent or verify's."""
    if source == "verify":
        return _random_game(np.random.default_rng(420 + m), m, separable=True, flagged=flagged)
    game = grid_game(np.random.default_rng(430 + m), 3, 3, MarkSet((1.0,), (0.4,)) if m else MarkSet())
    return flag_layer_two(game) if flagged else game


class TestBatchedRoutes:
    @pytest.mark.parametrize("source", ["grid", "verify"])
    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("flagged", [False, True])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_a_batch_gives_each_map_pair_its_own_bits(self, source, m, flagged, batch):
        game = batch_game(source, m, flagged)
        tree, N = game.tree, game.tree.grid.steps
        p, q = len(game.controls.A), len(game.controls.B)
        rng = np.random.default_rng(440)
        u_maps = [rng.integers(0, p, (batch, tree.layer_size(k))) for k in range(N)]
        v_maps = [rng.integers(0, q, (batch, tree.layer_size(k))) for k in range(N)]
        for maps, c in ((u_maps, p - 1), (v_maps, 0)):  # the first pair constant, as verify's are
            for layer in maps:
                layer[0] = c
        r1, r2 = dynkin_value(game, u_maps, v_maps, route="both")
        for route, batched in (("R1", r1), ("R2", r2)):
            assert layer_bits(dynkin_value(game, u_maps, v_maps, route=route)) == layer_bits(batched)
            assert [x.shape for x in batched.layers] == [(batch, tree.layer_size(k)) for k in range(N)] + [
                (tree.layer_size(N),)]
            assert np.array_equal(batched.layer(N), game.terminal)
            for b in range(batch):
                single = dynkin_value(game, [u[b] for u in u_maps], [v[b] for v in v_maps], route=route)
                assert layer_bits(batched, b) == layer_bits(single), (route, b)

    @pytest.mark.parametrize("bad, error", [(3, ValueError), (-1, ValueError), (1.7, TypeError)])
    @pytest.mark.parametrize("route", ["R1", "R2", "both"])
    @pytest.mark.parametrize("batch", [None, 5])
    def test_an_out_of_grid_map_index_raises(self, route, batch, bad, error):
        # one past the grid, one before it (no wrap to the last control) and
        # a fraction (no truncation to control 1) raise on every route
        game = grid_game(np.random.default_rng(450), 2, 3)
        good = constant_control_map(game.tree, 1)
        u_map = [u.astype(type(bad)) for u in good]
        u_map[1][2] = bad
        v_map = constant_control_map(game.tree, 0)
        if batch is not None:  # the bad map third of five
            u_map = [np.stack([g] * 2 + [u] + [g] * 2) for g, u in zip(good, u_map)]
            v_map = [np.stack([v] * batch) for v in v_map]
        with pytest.raises(error):
            dynkin_value(game, u_map, v_map, route=route)
        if batch is not None:  # the oracle's gather decodes maps the same way
            layout = stopping_layout(game.tree, game.barriers.flagged)
            with pytest.raises(error):
                _pair_block_bounds(game, layout, _oracle_tables(game), u_map, v_map)

    def test_route_r1_shares_the_read_only_terminal(self):
        game = grid_game(np.random.default_rng(455), 2, 3)
        maps = constant_control_map(game.tree, 1), constant_control_map(game.tree, 2)
        r1, r2 = (values.layer(game.tree.grid.steps) for values in dynkin_value(game, *maps))
        assert r1 is game.terminal and not r1.flags.writeable
        assert r2.base is game.terminal and not r2.flags.writeable  # the engine's read-only view

    def test_density_not_positive_names_the_node_and_the_branch(self):
        # theta = 3 at layer-1 node 1 only: its down branch gets 1 - 3*sqrt(0.5) < 0
        tree = build_tree(TimeGrid(1.0, 2))
        game = wide_game(tree, np.zeros(4), controls=ControlGrid((0.0, 3.0), (0.0,)),
                         drift=lambda t, x, u, v: np.full_like(x, u))
        good, v_map = constant_control_map(tree, 0), constant_control_map(tree, 0)
        bad = [u.copy() for u in good]
        bad[1][1] = 1
        batch = [np.stack([g, g, b]) for g, b in zip(good, bad)], [np.stack([v] * 3) for v in v_map]
        for u_map, v in ((bad, v_map), batch):  # alone, and the third map of a batch
            with pytest.raises(DensityNotPositive, match="layer 1, node 1, branch 1") as err:
                dynkin_value(game, u_map, v, route="R1")
            assert (err.value.layer, err.value.node, err.value.branch) == (1, 1, 1)


class TestHamiltonianRows:
    def test_point_value_equals_its_table_entry_with_two_marks(self):
        # one node's table and the table over a whole layer share one mark sum
        game = grid_game(np.random.default_rng(370), 4, 3, TWO_MARKS)
        result = solve_game(game)
        t, x = game.tree.grid.time(2), game.state().layer(2)
        z, r = result.Z.layer(2), result.R.layer(2)
        table = _hamiltonian_table(game, t, x, z, r)
        point = np.concatenate([_hamiltonian_table(game, t, x[i:i + 1], z[i:i + 1], r[i:i + 1])
                                for i in range(x.shape[0])], axis=2)
        assert table.shape == (3, 3, 16)
        assert point.tobytes() == table.tobytes()


def gathered_saddle(table):
    """First-index saddle selection by argmin/argmax, checked against every row and column of its node.

    H[u*, v*] <= infsup breaks where some row lies wholly below it, and
    supinf <= H[u*, v*] where some column lies wholly above it; a node with
    a NaN entry is not checked.
    """
    max_over_v = table.max(axis=1)
    infsup = max_over_v.min(axis=0)
    u_idx = max_over_v.argmin(axis=0)
    min_over_u = table.min(axis=0)
    supinf = min_over_u.max(axis=0)
    v_idx = min_over_u.argmax(axis=0)
    sel = table[u_idx, v_idx, np.arange(table.shape[2])]
    broken = np.all(table < sel, axis=1).any(axis=0) | np.all(table > sel, axis=0).any(axis=0)
    if np.any(broken & ~np.isnan(table).any(axis=(0, 1))):
        raise SaddleViolated("selected control pair breaks the saddle inequalities")
    return u_idx, v_idx, infsup, infsup - supinf


def saddle_outcome(select, table):
    """Every returned array with its dtype, or the SaddleViolated message."""
    try:
        return [(a.dtype, a.tobytes()) for a in select(table)]
    except SaddleViolated as err:
        return str(err)


def saddle_tables(rng):
    """Random (p, q, n) H tables, a few nodes each, in five families."""
    for _ in range(300):
        p, q, n = rng.integers(1, 5), rng.integers(1, 5), rng.integers(1, 4)
        # ties and exact saddles
        yield rng.integers(-2, 3, (p, q, n)).astype(float)
        yield rng.normal(size=(p, 1, n)) + rng.normal(size=(1, q, n))
        # gaps of 1e-12: matching pennies at that scale, on an offset
        pennies = np.where((np.arange(p)[:, None] + np.arange(q)) % 2 == 1, 1e-12, 0.0)
        yield pennies[:, :, None] + rng.choice([0.0, 1.0, -3.7], size=n)
        # gaps at rounding size: mixed signs and exponents, so infsup - supinf rounds
        tiny = rng.uniform(-1.0, 1.0, (p, q, n)) * 10.0 ** rng.integers(-16, -11, (p, q, n))
        yield tiny
        # NaN entries
        holes = tiny.copy()
        holes[rng.uniform(size=holes.shape) < 0.2] = np.nan
        yield holes


class TestSaddleCheck:
    def test_reduced_check_equals_gathered_check(self):
        # the first-index selection lies between supinf and infsup exactly, so
        # no table raises, those whose gaps round included
        for table in saddle_tables(np.random.default_rng(390)):
            got = saddle_outcome(_saddle_from_table, table)
            assert got == saddle_outcome(gathered_saddle, table), table
            assert not isinstance(got, str), table

    def test_a_selection_off_by_one_raises(self, monkeypatch):
        # u* moved to the next row: its H[u, v*] lies above infsup on most random tables
        first_row = game_module._first_row
        monkeypatch.setattr(game_module, "_first_row", lambda rows, best, arg: (
            first_row(rows, best, arg) + (arg is np.argmin)) % rows.shape[0])
        rng = np.random.default_rng(391)
        tables = [rng.normal(size=(rng.integers(2, 5), rng.integers(1, 5), rng.integers(1, 4))) for _ in range(200)]
        raised = sum(isinstance(saddle_outcome(_saddle_from_table, table), str) for table in tables)
        assert raised > 150, raised

    def test_nan_nodes_are_never_tight(self):
        table = np.array([[[0.0, np.nan], [1.0, 2.0]], [[0.0, 5.0], [1.0, 2.0]]])
        u_idx, v_idx, infsup, gap = _saddle_from_table(table)
        assert np.isnan(gap[1]) and gap[0] == 0.0


def reference_hamiltonian_table(game, t, x, z, r):
    """H over the control grid from whole per-pair coefficient arrays, as ``_hamiltonian_table`` formed it before."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sig = game.sigma_at(t, x)
    rates = np.asarray(game.tree.marks.rates, dtype=float)
    table = np.empty((len(game.controls.A), len(game.controls.B), x.shape[0]))
    for iu, u in enumerate(game.controls.A):
        for iv, v in enumerate(game.controls.B):
            theta = eval_callback(game.drift, t, x, u, v) / sig
            beta = tilt_columns(game, t, x, u, v)
            H = z * theta + eval_callback(game.running, t, x, u, v)
            table[iu, iv] = H + _branch_sum(r * beta, rates) if game.tree.marks.m else H
    return table


def reference_control_table(game, t, x):
    """theta, beta and h at every control pair, as the former per-layer control table formed them."""
    shape = (len(game.controls.A), len(game.controls.B), x.shape[0])
    theta, beta, h = np.empty(shape), np.empty(shape + (game.tree.marks.m,)), np.empty(shape)
    sig = game.sigma_at(t, x)
    for iu, u in enumerate(game.controls.A):
        for iv, v in enumerate(game.controls.B):
            theta[iu, iv] = eval_callback(game.drift, t, x, u, v) / sig
            beta[iu, iv] = tilt_columns(game, t, x, u, v)
            h[iu, iv] = eval_callback(game.running, t, x, u, v)
    return theta, beta, h


KERNEL_TREES = {m: build_tree(TimeGrid(1.0, 1), marks)
                for m, marks in ((0, None), (1, MarkSet((1.0,), (0.4,))), (2, TWO_MARKS))}
# few distinct values, half of them signed zeros, so ties and zero signs are common
ZEROS = st.sampled_from([0.0, -0.0])
KERNEL_VALUES = st.one_of(ZEROS, st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.0, 1e-300]))
SPECIAL_VALUES = st.one_of(ZEROS, st.sampled_from([1.0, -1.5, 0.25, np.inf, -np.inf, np.nan, 1e300]))
CALLBACK_KINDS = ("none", "float", "int", "array", "one")


def kernel_callback(kind, table, tilt=False):
    """A control callback returning per pair a Python float or int, an (n,) or (1,) array, or None."""
    value = {
        "none": None,
        "float": lambda x, c: float(c),
        "int": lambda x, c: int(round(c)),
        "array": lambda x, c: c + 0.25 * x,
        "one": lambda x, c: np.array([c]),
    }[kind]
    if value is None:
        return None
    if tilt:
        return lambda t, e, x, u, v: value(x, table[u, v] * e)
    return lambda t, x, u, v: value(x, table[u, v])


@st.composite
def kernel_cases(draw):
    """A game on a one-step tree with m = 0, 1 or 2 marks, its states x and a dual pair (z, r)."""
    m, p, q, n = (draw(st.integers(lo, hi)) for lo, hi in ((0, 2), (1, 3), (1, 3), (1, 4)))
    tree = KERNEL_TREES[m]
    tables = {name: np.array(draw(st.lists(KERNEL_VALUES, min_size=p * q, max_size=p * q))).reshape(p, q)
              for name in ("drift", "running", "tilt")}
    kinds = {name: draw(st.sampled_from(CALLBACK_KINDS)) for name in tables}
    sigma = draw(st.sampled_from([None, lambda t, x: -0.5, lambda t, x: 1.0 + 0.1 * np.cos(x)]))
    game = GameSpec(
        tree, ControlGrid(tuple(range(p)), tuple(range(q))),
        BarrierPair(values_from_function(tree, -1.0), values_from_function(tree, 1.0)), 0.0, sigma=sigma,
        **{name: kernel_callback(kinds[name], tables[name], name == "tilt") for name in tables},
    )
    x = np.array(draw(st.lists(KERNEL_VALUES, min_size=n, max_size=n)))
    z = np.array(draw(st.lists(SPECIAL_VALUES, min_size=n, max_size=n)))
    r = np.array(draw(st.lists(SPECIAL_VALUES, min_size=n * m, max_size=n * m))).reshape(n, m)
    return game, x, z, r


def arrays_bits(arrays):
    """dtype, shape and bytes of each array, every NaN written as one NaN.

    Which operand's NaN a numpy loop passes on depends on the array length
    and on whether the output aliases an input, so only NaN-ness is pinned.
    """
    return [(a.dtype, a.shape, np.where(np.isnan(a), np.nan, a).tobytes()) for a in arrays]


def with_layer_zero_states(game, x):
    """A copy of ``game`` whose forward state at layer 0 is ``x``, so its layer-0 evaluators run over those states."""
    staged = dataclasses.replace(game)
    object.__setattr__(staged, "_state", AdaptedValues([x], 0))
    return staged


class TestKernelBits:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(case=kernel_cases())
    def test_tables_and_saddle_equal_the_reference_formulas(self, case):
        # bit for bit, signed zeros included, on scalar, int, (n,), (1,) and
        # absent callbacks, with inf and NaN in the dual pair
        game, x, z, r = case
        t = 0.5
        with np.errstate(all="ignore"):  # inf*0 and overflow are part of the cases
            table = _hamiltonian_table(game, t, x, z, r)
            assert arrays_bits([table]) == arrays_bits([reference_hamiltonian_table(game, t, x, z, r)])
            # the fixed-map evaluator at layer 0, its states set to x: one
            # constant map per pair as a batch, as the oracle calls it, and
            # each pair's map alone
            coeffs = reference_control_table(game, game.tree.grid.time(0), x)
            staged = with_layer_zero_states(game, x)
            (p, q), n = coeffs[0].shape[:2], x.shape[0]
            u_all, v_all = ([np.repeat(c, n).reshape(p * q, n)] for c in np.divmod(np.arange(p * q), q))
            assert (arrays_bits(_map_coefficients(staged, u_all, v_all, 0))
                    == arrays_bits([c.reshape((p * q,) + c.shape[2:]) for c in coeffs]))
            for iu in range(p):
                for iv in range(q):
                    assert (arrays_bits(_map_coefficients(staged, [np.full(n, iu)], [np.full(n, iv)], 0))
                            == arrays_bits([c[iu, iv] for c in coeffs]))
            assert saddle_outcome(_saddle_from_table, table) == saddle_outcome(gathered_saddle, table)
