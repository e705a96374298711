import dataclasses
import tracemalloc

import numpy as np
import pytest

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
    SeparationViolated,
    SingularSigma,
    TimeGrid,
    TooLargeToEnumerate,
    backward_clamped_solve,
    brute_force_game_oracle,
    build_tree,
    constant_control_map,
    constant_values,
    dynkin_pair_oracle,
    dynkin_value,
    hamiltonian,
    saddle_select,
    solve_game,
    reweight,
    tilt_dual,
)
import treebsde.game as game_module
import treebsde.oracles as oracles_module
from treebsde.game import (
    _all_maps,
    _check_pair_count,
    _controlled_coefficients,
    _map_pair_bounds,
    _oracle_tables,
)
from treebsde.oracles import stopping_layout


def wide_game(tree, terminal, **kwargs):
    barriers = BarrierPair(constant_values(tree, -1e6), constant_values(tree, 1e6))
    controls = kwargs.pop("controls", ControlGrid((0.0,), (0.0,)))
    return GameSpec(tree, controls, barriers, terminal, **kwargs)


def payoff_table_game(tree, table, terminal=0.0, lower=-1e6, upper=1e6):
    """Controls are row/column indices; running payoff reads the matrix."""
    table = np.asarray(table, dtype=float)
    barriers = BarrierPair(constant_values(tree, lower), constant_values(tree, upper))
    controls = ControlGrid(tuple(range(table.shape[0])), tuple(range(table.shape[1])))
    return GameSpec(
        tree, controls, barriers, terminal,
        running=lambda t, x, u, v: table[u, v],
    )


def separable_sigma_game(rng, N=4):
    """One-mark 3x3 game with separable constant tables, sigma = 0.86 and layer 2 flagged."""
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0,), (0.9,)))
    fu, fv, hu, hv, bu, bv = (rng.uniform(-s, s, 3) for s in (0.3, 0.3, 0.3, 0.3, 0.1, 0.1))
    barriers = BarrierPair(constant_values(tree, -0.6), constant_values(tree, 0.6),
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
        assert hamiltonian(game, 0.0, 0.0, 1.0, np.zeros((1, 0)), 0.0, 0.0) == 0.0

    def test_drift_term(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = wide_game(
            tree, np.zeros(2),
            controls=ControlGrid((-1.0, 1.0), (-1.0, 1.0)),
            drift=lambda t, x, u, v: u - v,
        )
        vals = {
            hamiltonian(game, 0.0, 0.0, 1.0, np.zeros((1, 0)), u, v)
            for u in (-1.0, 1.0) for v in (-1.0, 1.0)
        }
        assert vals == {-2.0, 0.0, 2.0}

    def test_mark_term(self):
        tree = build_tree(TimeGrid(1.0, 1), MarkSet((1.0,), (0.2,)))
        game = wide_game(
            tree, np.zeros(3),
            tilt=lambda t, e, x, u, v: 1.0,
        )
        # r*beta*lambda = 2 * 1 * 0.2
        out = hamiltonian(game, 0.0, 0.0, 0.0, np.array([[2.0]]), 0.0, 0.0)
        assert out == pytest.approx(0.4, abs=1e-15)

    def test_singular_sigma(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = wide_game(tree, np.zeros(2), sigma=lambda t, x: 0.0 * x)
        with pytest.raises(SingularSigma):
            hamiltonian(game, 0.0, 0.0, 1.0, np.zeros((1, 0)), 0.0, 0.0)


class TestSaddleSelect:
    def test_pure_saddle(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = payoff_table_game(tree, [[1.0, 2.0], [0.0, 3.0]])
        u, v, h, gap = saddle_select(game, 0.0, 0.0, 0.0, np.zeros((1, 0)))
        assert (u, v) == (0, 1)
        assert h == 2.0
        assert gap == 0.0

    def test_matching_pennies_gap(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = payoff_table_game(tree, [[0.0, 1.0], [1.0, 0.0]])
        _, _, h, gap = saddle_select(game, 0.0, 0.0, 0.0, np.zeros((1, 0)))
        assert h == 1.0  # infsup side
        assert gap == 1.0

    def test_constant_table_first_index(self):
        tree = build_tree(TimeGrid(1.0, 1))
        game = payoff_table_game(tree, [[5.0, 5.0], [5.0, 5.0]])
        u, v, h, gap = saddle_select(game, 0.0, 0.0, 0.0, np.zeros((1, 0)))
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
        lower = constant_values(tree, -1.0)
        upper = constant_values(tree, 1.0)
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
        lower = constant_values(tree, -0.8)
        upper = constant_values(tree, 0.8)
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
        lower = constant_values(tree, -0.5)
        upper = constant_values(tree, 0.5)
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
        lower = constant_values(tree, -0.6)
        upper = constant_values(tree, 0.6)
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


class TestControlGrid:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ControlGrid((), (1.0,))


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
                theta[mask] = game._eval(game.drift, t, x[mask], u, v) / sig[mask]
                h[mask] = game._eval(game.running, t, x[mask], u, v)
                if tree.marks.m:
                    beta[mask] = game.tilt_at(t, x[mask], u, v)
        out.append((theta, beta, h))
    return out


class TestOracleTables:
    @pytest.mark.parametrize("block", [None, 2])
    @pytest.mark.parametrize("m", [0, 1])
    def test_controlled_coefficients_equal_masked_evaluation(self, monkeypatch, m, block):
        if block is not None:
            monkeypatch.setattr(game_module, "TABLE_BLOCK", block)
        rng = np.random.default_rng(300 + m)
        game = varying_game(rng, m)
        maps = _all_maps(game.tree, 2)
        for um, vm in [(maps[i], maps[j]) for i, j in rng.integers(0, len(maps), (10, 2))]:
            got = _controlled_coefficients(game, um, vm)
            for (theta, beta, h), (theta_ref, beta_ref, h_ref) in zip(got, masked_coefficients(game, um, vm)):
                assert np.array_equal(theta, theta_ref)
                assert np.array_equal(beta, beta_ref)
                assert np.array_equal(h, h_ref)

    @pytest.mark.parametrize("m", [0, 1])
    def test_pair_value_from_tables_equals_dynkin_pair_oracle(self, m):
        rng = np.random.default_rng(310 + m)
        game = varying_game(rng, m)
        tree = game.tree
        layout = stopping_layout(tree, game.barriers.flagged)
        tables = _oracle_tables(game)
        maps = _all_maps(tree, 2)
        for um, vm in [(maps[i], maps[j]) for i, j in rng.integers(0, len(maps), (20, 2))]:
            coeff = _controlled_coefficients(game, um, vm)
            reference = dynkin_pair_oracle(
                tree, game.terminal, game.barriers.lower, game.barriers.upper,
                drift=AdaptedValues([h for _, _, h in coeff], 0),
                pre_jump=dict(game.barriers.flagged),
                weights=[reweight(tree, theta, beta, k) for k, (theta, beta, _) in enumerate(coeff)],
            )
            assert _map_pair_bounds(game, layout, tables, um, vm) == reference

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
    """The game oracle as a loop of one ``dynkin_pair_oracle`` call per map pair, in code order."""
    tree = game.tree
    layout = stopping_layout(tree, game.barriers.flagged)
    tables = _oracle_tables(game)
    vals = []
    for um in _all_maps(tree, len(game.controls.A)):
        row = []
        for vm in _all_maps(tree, len(game.controls.B)):
            rows = [(um[k], vm[k], np.arange(um[k].shape[0])) for k in range(tree.grid.steps)]
            infsup, supinf = dynkin_pair_oracle(
                tree, game.terminal, game.barriers.lower, game.barriers.upper,
                drift=AdaptedValues([h[r] for (_, h), r in zip(tables, rows)], 0),
                pre_jump=game.barriers.flagged,
                weights=[w[r] for (w, _), r in zip(tables, rows)],
                layout=layout,
            )
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
    d = stopping_layout(game.tree, game.barriers.flagged).stop_index.shape[1]
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
        target = _oracle_tables(game)[0][1][1, 1, 0]
        values = oracles_module.dynkin_pair_values

        def perturbed(tree, layout, terminal, lower, upper, drift=None, pre_jump=None, weights=None):
            total = values(tree, layout, terminal, lower, upper, drift, pre_jump, weights)
            hit = drift.layer(0)[..., 0] == target
            return np.where(hit[..., None, None], total + 100.0 * np.eye(total.shape[-1]), total)

        monkeypatch.setattr(game_module, "dynkin_pair_values", perturbed)
        monkeypatch.setattr(oracles_module, "dynkin_pair_values", perturbed)
        layout = stopping_layout(game.tree, game.barriers.flagged)
        tables = _oracle_tables(game)
        maps = _all_maps(game.tree, 2)
        first, second = (_map_pair_bounds(game, layout, tables, maps[1], maps[j]) for j in (1, 3))
        assert first != second and first[0] - first[1] > 1.0
        message = f"inner stopping game without a value: infsup {first[0]!r} != supinf {first[1]!r}"

        with pytest.raises(OracleInconsistent) as reference:
            per_pair_oracle(game)
        assert str(reference.value) == message
        monkeypatch.setattr(game_module, "PAIR_BLOCK", pair_blocks(game)[block])
        with pytest.raises(OracleInconsistent) as blocked:
            brute_force_game_oracle(game)
        assert str(blocked.value) == message


def grid_game(rng, N, size):
    """Random one-mark game on a size x size control grid, its coefficients varying with x."""
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0,), (0.4,)))
    barriers = BarrierPair(constant_values(tree, -3.0), constant_values(tree, 3.0))
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
        game = grid_game(np.random.default_rng(350), 4, 3)
        game.barriers.flagged[2] = (np.full(9, -2.5), None)
        reference = solve_game(game)
        monkeypatch.setattr(game_module, "TABLE_BLOCK", block)
        result = solve_game(game)
        assert result_arrays(result) == result_arrays(reference)
        assert result.max_gap > 1e-3  # non-separable tables: the selection is exercised off-saddle too

    def test_hamiltonian_scratch_is_one_block(self, monkeypatch):
        # N=7, 10x10 controls: one layer's full H table (100 x 729 values)
        # outweighs everything else solve_game holds at once
        game = grid_game(np.random.default_rng(360), 7, 10)
        game.state()
        monkeypatch.setattr(game_module, "TABLE_BLOCK", 64)
        tracemalloc.start()
        try:
            solve_game(game)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        full_table = 100 * game.tree.layer_size(6) * 8
        assert peak < full_table, (peak, full_table)


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
        barriers = BarrierPair(constant_values(tree, -1.0), constant_values(tree, 1.0),
                               {1: (touch, touch.copy())})
        game = GameSpec(tree, ControlGrid((0, 1), (0, 1)), barriers, np.zeros(tree.layer_size(2)),
                        drift=lambda t, x, u, v: np.full_like(x, 0.1 * u - 0.2 * v))
        maps = constant_control_map(tree, 0), constant_control_map(tree, 1)
        with pytest.raises(SeparationViolated, match="layer 1"):
            solve_game(game)
        for route in ("R1", "R2", "both"):
            with pytest.raises(SeparationViolated, match="layer 1"):
                dynkin_value(game, *maps, route=route)
