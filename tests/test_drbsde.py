import numpy as np
import pytest

from treebsde import (
    AdaptedValues,
    BarrierPair,
    GeneratorSpec,
    ImplicitSolveDiverged,
    MarkSet,
    NoContraction,
    ProblemSpec,
    SeparationViolated,
    StoppingRule,
    TimeGrid,
    alpha_norm,
    backward_clamped_solve,
    build_tree,
    constant_values,
    default_alpha,
    first_increase_time,
    mokobodski_certificate,
    penalization_bracket,
    penalize_decreasing,
    penalize_increasing,
    picard_solve,
    solve_one_barrier,
)


def make_problem(tree, lower, upper, terminal, gen=None, flagged=None):
    barriers = BarrierPair(
        constant_values(tree, lower), constant_values(tree, upper), flagged or {}
    )
    if gen is None:
        gen = GeneratorSpec("constant", {"c0": 0.0})
    return ProblemSpec(tree, gen, barriers, terminal)


def random_problem(rng, N=3, m=1, a0=0.0):
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0,) * m, (0.3,) * m) if m else None)
    lower = AdaptedValues(
        [rng.normal(-1.0, 0.5, tree.layer_size(k)) for k in range(N + 1)], 0
    )
    upper = AdaptedValues(
        [lower.layer(k) + rng.uniform(0.5, 2.0, tree.layer_size(k)) for k in range(N + 1)], 0
    )
    frac = rng.uniform(0.1, 0.9, tree.layer_size(N))
    xi = lower.layer(N) + frac * (upper.layer(N) - lower.layer(N))
    gen = GeneratorSpec("constant", {"c0": a0})
    return ProblemSpec(tree, gen, BarrierPair(lower, upper), xi)


class TestClampedSolve:
    def test_upper_clamp_one_step(self):
        tree = build_tree(TimeGrid(1.0, 1))
        problem = make_problem(tree, -10.0, 1.0, np.array([2.0, 1.0]))  # mean 1.5
        sol = backward_clamped_solve(problem)
        assert sol.Y.layer(0)[0] == 1.0
        assert sol.dKc_minus.layer(0)[0] == 0.5
        assert sol.dKc_plus.layer(0)[0] == 0.0

    def test_lower_clamp_one_step(self):
        tree = build_tree(TimeGrid(1.0, 1))
        problem = make_problem(tree, 0.0, 10.0, np.array([0.6, -1.0]))  # mean -0.2
        sol = backward_clamped_solve(problem)
        assert sol.Y.layer(0)[0] == 0.0
        assert sol.dKc_plus.layer(0)[0] == 0.2
        assert sol.dKc_minus.layer(0)[0] == 0.0

    def test_sandwiched_between_barriers(self):
        rng = np.random.default_rng(20)
        problem = random_problem(rng, a0=0.4)
        sol = backward_clamped_solve(problem)
        for k in range(problem.tree.n_layers):
            assert np.all(problem.barriers.lower.layer(k) <= sol.Y.layer(k))
            assert np.all(sol.Y.layer(k) <= problem.barriers.upper.layer(k))

    def test_decomposition_identity(self):
        # Y at a node reproduces pre_clamp plus the two continuous pushes
        rng = np.random.default_rng(21)
        problem = random_problem(rng, a0=-0.3)
        sol = backward_clamped_solve(problem)
        for k in range(problem.tree.grid.steps):
            recon = sol.pre_clamp.layer(k) + sol.dKc_plus.layer(k) - sol.dKc_minus.layer(k)
            assert np.array_equal(sol.Y.layer(k), recon)

    def test_cumulative_push_consistency(self):
        rng = np.random.default_rng(22)
        problem = random_problem(rng)
        sol = backward_clamped_solve(problem)
        kp = sol.K_plus()
        b = problem.tree.n_branches
        for k in range(problem.tree.grid.steps):
            parent = np.repeat(kp.layer(k) + sol.dKc_plus.layer(k), b)
            assert np.allclose(kp.layer(k + 1), parent + sol.dKd_plus.layer(k + 1), atol=1e-15)

    def test_separation_violated(self):
        tree = build_tree(TimeGrid(1.0, 1))
        problem = make_problem(tree, 1.0, 1.0, np.array([1.0, 1.0]))
        with pytest.raises(SeparationViolated):
            backward_clamped_solve(problem)

    def test_implicit_solve_diverged(self):
        tree = build_tree(TimeGrid(2.0, 1))  # dt = 2
        gen = GeneratorSpec("affine", {"b": 1.0}, lipschitz=1.0)  # 1 - dt*b = -1
        problem = make_problem(tree, -10.0, 10.0, np.zeros(2), gen=gen)
        with pytest.raises(ImplicitSolveDiverged):
            backward_clamped_solve(problem)


class TestPenalization:
    def test_level_zero_equals_one_barrier(self):
        rng = np.random.default_rng(23)
        problem = random_problem(rng, a0=0.2)
        inc = penalize_increasing(problem, 0.0)
        one = solve_one_barrier(problem, side="upper")
        for k in range(problem.tree.n_layers):
            assert np.array_equal(inc.Y.layer(k), one.Y.layer(k))

    def test_closed_form_binding_value(self):
        # one step, dt = 1, xi = 0, L = 1, n = 1:
        # y solves y = 0 + n*dt*(L - y)^+  =>  y = 1/2
        tree = build_tree(TimeGrid(1.0, 1))
        problem = make_problem(tree, 1.0, 10.0, np.zeros(2))
        inc = penalize_increasing(problem, 1.0)
        assert inc.Y.layer(0)[0] == pytest.approx(0.5, abs=1e-15)

    def test_closed_form_binding_value_mirror(self):
        # y = 2 - n*dt*(y - U)^+ with U = 1, n = 1  =>  y = 3/2
        tree = build_tree(TimeGrid(1.0, 1))
        problem = make_problem(tree, -10.0, 1.0, np.full(2, 2.0))
        dec = penalize_decreasing(problem, 1.0)
        assert dec.Y.layer(0)[0] == pytest.approx(1.5, abs=1e-15)

    def test_large_level_close_to_clamped(self):
        rng = np.random.default_rng(24)
        problem = random_problem(rng, a0=0.3)
        sol = backward_clamped_solve(problem)
        inc = penalize_increasing(problem, 1e6)
        dec = penalize_decreasing(problem, 1e6)
        for k in range(problem.tree.n_layers):
            assert np.max(np.abs(inc.Y.layer(k) - sol.Y.layer(k))) < 1e-4
            assert np.max(np.abs(dec.Y.layer(k) - sol.Y.layer(k))) < 1e-4

    def test_bracket_widths_decrease(self):
        rng = np.random.default_rng(25)
        problem = random_problem(rng, a0=-0.2)
        trace = penalization_bracket(problem, schedule=[1, 4, 16, 64, 256])
        assert all(b <= a for a, b in zip(trace.widths, trace.widths[1:]))
        sol = backward_clamped_solve(problem)
        for k in range(problem.tree.n_layers):
            assert np.all(trace.increasing[-1].layer(k) <= sol.Y.layer(k))
            assert np.all(sol.Y.layer(k) <= trace.decreasing[-1].layer(k))

    def test_bad_schedule(self):
        rng = np.random.default_rng(26)
        problem = random_problem(rng)
        with pytest.raises(ValueError):
            penalization_bracket(problem, schedule=[4, 2])

    def test_non_positive_schedule(self):
        rng = np.random.default_rng(26)
        problem = random_problem(rng)
        with pytest.raises(ValueError):
            penalization_bracket(problem, schedule=[0, 1])


class TestPicard:
    def test_constant_generator_converges_immediately(self):
        rng = np.random.default_rng(27)
        problem = random_problem(rng, a0=0.4)
        direct = backward_clamped_solve(problem)
        sol, trace = picard_solve(problem)
        # the drift never changes, so the second pass reproduces the first
        assert trace[1] == pytest.approx(0.0, abs=1e-15)
        for k in range(problem.tree.n_layers):
            assert np.array_equal(sol.Y.layer(k), direct.Y.layer(k))

    def test_affine_generator_fixed_point(self):
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.3,)))
        gen = GeneratorSpec("affine", {"a0": 0.3, "b": 0.5}, lipschitz=0.5)
        problem = make_problem(tree, -5.0, 5.0, np.full(tree.layer_size(3), 0.5), gen=gen)
        sol, trace = picard_solve(problem, tol=1e-12)
        assert trace[-1] < 1e-12
        # the fixed point satisfies the implicit one-step relation off the barriers
        dt = tree.grid.dt
        for k in range(tree.grid.steps):
            y = sol.Y.layer(k)
            cont = sol.pre_clamp.layer(k)
            # pre_clamp solves y = E[next] + dt * f(y), so check the residual
            nxt = cont - dt * (0.3 + 0.5 * cont)
            # residual of the implicit relation measured against the sweep
            assert np.max(np.abs(cont - (nxt + dt * (0.3 + 0.5 * cont)))) < 1e-12

    def test_uniqueness_from_different_starts(self):
        rng = np.random.default_rng(28)
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.3,)))
        gen = GeneratorSpec("affine", {"a0": 0.2, "b": 1.0, "c": 0.3}, lipschitz=1.3)
        problem = make_problem(tree, -2.0, 2.0, rng.uniform(-1.0, 1.0, tree.layer_size(3)), gen=gen)
        start_lo = constant_values(tree, -2.0)
        start_hi = constant_values(tree, 2.0)
        sol_lo, _ = picard_solve(problem, tol=1e-12, initial=start_lo)
        sol_hi, _ = picard_solve(problem, tol=1e-12, initial=start_hi)
        for k in range(tree.n_layers):
            assert np.max(np.abs(sol_lo.Y.layer(k) - sol_hi.Y.layer(k))) < 1e-10

    def test_default_alpha_formula(self):
        assert default_alpha(0.0) == 1.0
        assert default_alpha(1.0) == 9.0

    def test_alpha_norm_constant(self):
        tree = build_tree(TimeGrid(1.0, 2))
        vals = constant_values(tree, 2.0)
        # sum over k<2 of e^{0*t_k} * 4 * 0.5 = 4
        assert alpha_norm(tree, vals, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_no_contraction(self):
        # dt = 1 with |b| = 1.5 amplifies each pass by 1.5; alpha = 0 sees it
        tree = build_tree(TimeGrid(1.0, 1))
        gen = GeneratorSpec("affine", {"b": -1.5}, lipschitz=1.5)
        problem = make_problem(tree, -1e6, 1e6, np.array([2.0, 0.0]), gen=gen)
        with pytest.raises(NoContraction):
            picard_solve(problem, alpha=0.0, tol=0.0, max_iter=60)


class TestFirstIncreaseTime:
    def test_flat_push_runs_to_horizon(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))
        K = constant_values(tree, 0.0)
        rule = first_increase_time(tree, K, StoppingRule.never(tree))
        for k in range(3):
            assert not rule.stop[k].any()

    def test_increase_detected_after_start(self):
        tree = build_tree(TimeGrid(1.0, 2))
        # K jumps on the up-up path only, at the final layer
        K = AdaptedValues([np.zeros(1), np.zeros(2), np.array([1.0, 0.0, 0.0, 0.0])], 0)
        start = StoppingRule.never(tree)
        start.stop[0][:] = True
        rule = first_increase_time(tree, K, start)
        assert rule.stop[2][0]
        assert not rule.stop[2][1:].any()
        assert not rule.stop[1].any()

    def test_path_consistency_random(self):
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.3,)))
        rng = np.random.default_rng(30)
        problem = random_problem(rng)
        sol = backward_clamped_solve(problem)
        K = sol.K_plus()
        start = StoppingRule.never(tree)
        start.stop[0][:] = True  # watch from the root
        rule = first_increase_time(tree, K, start)
        b = tree.n_branches
        # walk explicit paths and recompute the first strict increase by hand
        for path in ([0, 0, 0], [2, 1, 0], [1, 2, 2]):
            idx = 0
            ref = K.layer(0)[0]
            expected = None
            ids = [0]
            for k, c in enumerate(path, start=1):
                idx = idx * b + c
                ids.append(idx)
                if expected is None and K.layer(k)[idx] > ref:
                    expected = k
            for k in range(1, 4):
                assert rule.stop[k][ids[k]] == (expected == k)


class TestMokobodski:
    def test_trivial_positive_instance(self):
        # wide barriers, xi >= 0, zero generator: h is the value, h' vanishes
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))
        rng = np.random.default_rng(31)
        xi = rng.uniform(0.5, 1.5, 9)
        problem = make_problem(tree, -100.0, 100.0, xi)
        sol = backward_clamped_solve(problem)
        cert = mokobodski_certificate(tree, sol)
        for k in range(3):
            assert np.allclose(cert.h.layer(k), sol.Y.layer(k), atol=1e-14)
            assert np.all(cert.h_prime.layer(k) == 0.0)

    def test_difference_reproduces_value(self):
        rng = np.random.default_rng(32)
        problem = random_problem(rng)
        sol = backward_clamped_solve(problem)
        cert = mokobodski_certificate(problem.tree, sol)
        for k in range(problem.tree.n_layers):
            diff = cert.h.layer(k) - cert.h_prime.layer(k)
            assert np.max(np.abs(diff - sol.Y.layer(k))) < 1e-12

    def test_supermartingale_defects(self):
        rng = np.random.default_rng(33)
        problem = random_problem(rng)
        sol = backward_clamped_solve(problem)
        cert = mokobodski_certificate(problem.tree, sol)
        for k in range(problem.tree.grid.steps):
            assert np.all(cert.defect.layer(k) <= 1e-12)
            assert np.all(cert.defect_prime.layer(k) <= 1e-12)
            assert np.all(cert.h.layer(k) >= 0.0)
            assert np.all(cert.h_prime.layer(k) >= 0.0)

    def test_barrier_sandwich(self):
        rng = np.random.default_rng(34)
        problem = random_problem(rng)
        sol = backward_clamped_solve(problem)
        cert = mokobodski_certificate(problem.tree, sol)
        for k in range(problem.tree.n_layers):
            diff = cert.h.layer(k) - cert.h_prime.layer(k)
            assert np.all(problem.barriers.lower.layer(k) <= diff + 1e-12)
            assert np.all(diff <= problem.barriers.upper.layer(k) + 1e-12)
