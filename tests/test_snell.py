import numpy as np
import pytest

from treebsde import (
    AdaptedValues,
    BarrierPair,
    GeneratorSpec,
    MarkSet,
    ProblemSpec,
    StoppingRule,
    TimeGrid,
    TooLargeToEnumerate,
    build_tree,
    constant_values,
    enumerate_stop_value,
    optimal_stopping_oracle,
    snell_envelope,
    solve_one_barrier,
)


def random_payoff(tree, rng):
    return AdaptedValues(
        [rng.normal(size=tree.layer_size(k)) for k in range(tree.n_layers)], 0
    )


class TestSnellEnvelope:
    def test_constant_payoff(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))
        env = snell_envelope(tree, constant_values(tree, 4.0))
        for k in range(3):
            assert np.all(env.layer(k) == 4.0)

    def test_one_step_max(self):
        tree = build_tree(TimeGrid(1.0, 1))
        payoff = AdaptedValues([np.array([0.0]), np.array([2.0, 0.0])], 0)
        env = snell_envelope(tree, payoff)
        assert env.layer(0)[0] == 1.0

    def test_domination_and_supermartingale_step(self):
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.3,)))
        rng = np.random.default_rng(3)
        payoff = random_payoff(tree, rng)
        drift = AdaptedValues([rng.normal(size=tree.layer_size(k)) for k in range(3)], 0)
        env = snell_envelope(tree, payoff, drift)
        dt = tree.grid.dt
        for k in range(3):
            assert np.all(env.layer(k) >= payoff.layer(k))
            cont = env.layer(k + 1).reshape(-1, 3) @ tree.base_weights
            assert np.all(env.layer(k) >= cont + drift.layer(k) * dt - 1e-12)


class TestStoppingOracle:
    def test_constant_payoff_both_modes(self):
        tree = build_tree(TimeGrid(1.0, 2))
        payoff = constant_values(tree, 1.25)
        for mode in ("sup", "inf"):
            out = optimal_stopping_oracle(tree, payoff, mode=mode)
            assert np.all(out.layer(0) == 1.25)

    def test_matches_envelope(self):
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.3,)))
        rng = np.random.default_rng(4)
        payoff = random_payoff(tree, rng)
        drift = AdaptedValues([rng.normal(size=tree.layer_size(k)) for k in range(3)], 0)
        env = snell_envelope(tree, payoff, drift)
        oracle = optimal_stopping_oracle(tree, payoff, drift, mode="sup")
        for k in range(4):
            assert np.max(np.abs(env.layer(k) - oracle.layer(k))) <= 1e-10

    def test_sign_symmetry(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))
        rng = np.random.default_rng(5)
        payoff = random_payoff(tree, rng)
        neg = AdaptedValues([-a for a in payoff.layers], 0)
        lo = enumerate_stop_value(tree, neg, mode="inf")
        hi = enumerate_stop_value(tree, payoff, mode="sup")
        assert lo == pytest.approx(-hi, abs=1e-12)

    def test_size_cap(self):
        tree = build_tree(TimeGrid(1.0, 4), MarkSet((1.0, 2.0), (0.1, 0.1)))
        with pytest.raises(TooLargeToEnumerate):
            enumerate_stop_value(tree, constant_values(tree, 0.0))


class TestOneBarrier:
    def test_barrier_never_binds(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))
        rng = np.random.default_rng(6)
        xi = rng.normal(size=9)
        barriers = BarrierPair(constant_values(tree, -1e6), constant_values(tree, 1e6))
        problem = ProblemSpec(tree, GeneratorSpec("constant", {"c0": 0.0}), barriers, xi)
        sol = solve_one_barrier(problem, side="upper")
        cont = conditional = xi
        for k in (1, 0):
            conditional = conditional.reshape(-1, 3) @ tree.base_weights
            assert np.allclose(sol.Y.layer(k), conditional, atol=1e-12)
            assert np.all(sol.dKc_minus.layer(k) == 0.0)

    def test_one_step_clamp(self):
        tree = build_tree(TimeGrid(1.0, 1))
        xi = np.array([2.0, 1.0])  # mean 1.5
        barriers = BarrierPair(constant_values(tree, -10.0), constant_values(tree, 1.0))
        problem = ProblemSpec(tree, GeneratorSpec("constant", {"c0": 0.0}), barriers, xi)
        sol = solve_one_barrier(problem, side="upper")
        assert sol.Y.layer(0)[0] == 1.0
        assert sol.dKc_minus.layer(0)[0] == 0.5
        assert sol.dKd_minus.layer(0)[0] == 0.0

    def test_flagged_jump_matches_hand_rolled_recursion(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.4,)))
        rng = np.random.default_rng(7)
        xi = rng.normal(0.5, 1.0, 9)
        upper = AdaptedValues([rng.uniform(0.2, 1.0, tree.layer_size(k)) for k in range(3)], 0)
        u_pre = rng.uniform(-0.2, 0.6, 3)
        barriers = BarrierPair(
            constant_values(tree, -50.0), upper, {1: (np.full(3, -50.0), u_pre)}
        )
        xi = np.minimum(xi, upper.layer(2))
        problem = ProblemSpec(tree, GeneratorSpec("constant", {"c0": 0.3}), barriers, xi)
        sol = solve_one_barrier(problem, side="upper")

        dt = tree.grid.dt
        y1 = np.minimum(upper.layer(1), xi.reshape(3, 3) @ tree.base_weights + 0.3 * dt)
        left = np.minimum(u_pre, y1)  # predictable clamp against U_{t_1-}
        y0 = np.minimum(upper.layer(0), left @ tree.base_weights + 0.3 * dt)
        assert np.allclose(sol.Y.layer(1), y1, atol=1e-14)
        assert np.allclose(sol.dKd_minus.layer(1), np.maximum(y1 - u_pre, 0.0), atol=1e-14)
        assert np.allclose(sol.Y.layer(0), y0, atol=1e-14)
        # the clamped left limit is what feeds the earlier step
        assert np.allclose(sol.left_limits[1], left, atol=1e-14)

    def test_stopping_characterization(self):
        # upper-side solution = smallest cost of stopping to pay U, xi at the end
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.3,)))
        rng = np.random.default_rng(8)
        upper = AdaptedValues([rng.uniform(0.0, 1.0, tree.layer_size(k)) for k in range(3)], 0)
        xi = np.minimum(rng.normal(0.5, 0.5, 9), upper.layer(2))
        drift = AdaptedValues([rng.normal(size=tree.layer_size(k)) for k in range(2)], 0)
        barriers = BarrierPair(constant_values(tree, -50.0), upper)
        problem = ProblemSpec(tree, GeneratorSpec("constant", {"c0": 0.0}), barriers, xi)
        sol = solve_one_barrier(problem, side="upper")
        # redo with the frozen random drift via the generator-free sweep
        from treebsde.drbsde import backward_clamped_solve

        problem2 = ProblemSpec(
            tree, GeneratorSpec("constant", {"c0": 0.0}),
            BarrierPair(constant_values(tree, -1e9), upper), np.asarray(xi),
        )
        sol2 = backward_clamped_solve(problem2, frozen_drift=drift)
        payoff = AdaptedValues([upper.layer(0), upper.layer(1), xi], 0)
        oracle = optimal_stopping_oracle(tree, payoff, drift, mode="inf")
        for k in range(3):
            assert np.max(np.abs(sol2.Y.layer(k) - oracle.layer(k))) <= 1e-10
        assert np.max(np.abs(sol.Y.layer(0) - optimal_stopping_oracle(
            tree, payoff, None, mode="inf").layer(0))) <= 1e-10

    def test_flat_off_condition(self):
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.3,)))
        rng = np.random.default_rng(9)
        upper = AdaptedValues([rng.uniform(0.0, 0.6, tree.layer_size(k)) for k in range(4)], 0)
        xi = np.minimum(rng.normal(0.5, 0.5, tree.layer_size(3)), upper.layer(3))
        barriers = BarrierPair(constant_values(tree, -50.0), upper)
        problem = ProblemSpec(tree, GeneratorSpec("constant", {"c0": 0.2}), barriers, xi)
        sol = solve_one_barrier(problem, side="upper")
        for k in range(3):
            acting = sol.dKc_minus.layer(k) > 0
            assert np.all(np.abs((sol.Y.layer(k) - upper.layer(k))[acting]) <= 1e-12)


class TestStoppingRule:
    def test_stop_layer_walk(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))
        rule = StoppingRule.never(tree)
        assert rule.stop_layer([0, 0]) == 2
        rule.stop[1][2] = True  # stop at node "1"
        assert rule.stop_layer([2, 0]) == 1
        assert rule.stop_layer([0, 2]) == 2
