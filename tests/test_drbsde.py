import copy
import importlib.util
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from treebsde import (
    AdaptedValues,
    BarrierPair,
    ComparisonViolated,
    GeneratorSpec,
    ImplicitSolveDiverged,
    MarkSet,
    MonotonicityViolated,
    NoContraction,
    ProblemSpec,
    SeparationViolated,
    TimeGrid,
    WeightOverflow,
    backward_clamped_solve,
    barriers_from_functions,
    build_tree,
    conditional_expectation,
    constant_values,
    default_alpha,
    evaluate_generator,
    forward_state,
    mokobodski_certificate,
    penalization_bracket,
    picard_solve,
    reflected_sweep,
    represent_layer,
    solve_one_barrier,
)
from treebsde import drbsde, snell, sweep
from treebsde.drbsde import _weighted_norm
from treebsde.sweep import Rows, first_step, make_drift_solver


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


def markov_problem(N):
    """Affine-state barriers and terminal over a one-mark forward state, a flagged
    upper pre-jump value at layer 2 and a solution-dependent affine generator."""
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0,), (0.93,)))
    state = forward_state(tree, lambda t, x: np.full_like(x, 0.86), lambda t, e, x: np.full_like(x, -0.27), 0.0)
    slope = 0.214
    barriers = barriers_from_functions(
        tree, lambda t, x: -0.593 + slope * x, lambda t, x: 0.373 + slope * x,
        state=state, flagged={2: (None, -0.08)},
    )
    gen = GeneratorSpec("affine", {"a0": 2.507, "a1": -0.463, "b": -0.313, "c": 0.114, "d": [0.059]},
                        lipschitz=0.486)
    return ProblemSpec(tree, gen, barriers, -0.177 + slope * state.layer(N), state)


def reference_bracket(problem, schedule):
    """The bracket as it kept every level: (levels, widths, final increasing Y, final decreasing Y).

    Each sweep runs on its own copy of the problem, so the sweeps share no array.
    """
    levels, inc, dec, widths = [], [], [], []
    for n in schedule:
        yi = reflected_sweep(copy.deepcopy(problem), penalty=("lower", n)).Y
        yd = reflected_sweep(copy.deepcopy(problem), penalty=("upper", n)).Y
        levels.append(n)
        inc.append(yi)
        dec.append(yd)
        widths.append(max(float(np.max(np.abs(x - y))) for x, y in zip(yi.layers, yd.layers)))
        if widths[-1] < drbsde.BRACKET_EARLY_STOP:
            break
    return levels, widths, inc[-1], dec[-1]


def fake_layer(n, make):
    """A fake sweep's layer ``make(n)`` at level n; for an (L, 1) column of levels, the (L, n_k)
    block of ``make(level)``, one row per level, as a batched sweep returns it."""
    return np.array([make(float(x)) for x in np.ravel(n)]) if np.ndim(n) else make(n)


def fake_sweep(tree, layers, rows):
    """A monkeypatched scheme's sweep result on the ``rows`` contract: every node binds, so
    each later level re-solves every row below layer N and may move any value there."""
    assert rows is None or all(r is None for r in rows.index)
    binding = {k: np.arange(tree.layer_size(k)) for k in range(tree.grid.steps)}
    return SimpleNamespace(Y=AdaptedValues(layers, 0), left_limits={}, binding=binding)


def same_bits(a: AdaptedValues, b: AdaptedValues) -> bool:
    return len(a.layers) == len(b.layers) and all(
        x.tobytes() == y.tobytes() for x, y in zip(a.layers, b.layers)
    )


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
        # Y at a node reproduces the drift step plus the two continuous pushes
        rng = np.random.default_rng(21)
        problem = random_problem(rng, a0=-0.3)
        sol = backward_clamped_solve(problem)
        dt = problem.tree.grid.dt
        for k in range(problem.tree.grid.steps):
            a, _, _ = represent_layer(problem.tree, sol.Y.layer(k + 1), k)
            recon = a + dt * -0.3 + sol.dKc_plus.layer(k) - sol.dKc_minus.layer(k)
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

    @pytest.mark.parametrize("form, b, root", [
        ("affine", 1.0, None),  # 1 - dt*b = -1
        # 1 - dt*b = -0.5: 2.25, -1.7 and -1.75 all solve y = 0.25 + 2*clip(0.3 + 0.75*y, -1, 1)
        ("lipschitz-clip", 0.75, None),
        # 1 - dt*b = 4: one root, which iterating y -> 0.25 + 2*clip(0.3 - 1.5*y, -1, 1) never reaches
        ("lipschitz-clip", -1.5, 0.2125),
    ])
    def test_implicit_solve_diverged(self, form, b, root):
        tree = build_tree(TimeGrid(2.0, 1))  # dt = 2
        params = {"a0": 0.3, "b": b, **({"clip": 1.0} if form == "lipschitz-clip" else {})}
        gen = GeneratorSpec(form, params, lipschitz=abs(b))
        problem = make_problem(tree, -10.0, 10.0, np.full(2, 0.25), gen=gen)
        if root is None:
            with pytest.raises(ImplicitSolveDiverged, match="no unique root"):
                backward_clamped_solve(problem)
            return
        y = backward_clamped_solve(problem).Y.layer(0)
        assert y[0] == pytest.approx(root, abs=1e-15)
        assert y[0] == pytest.approx(0.25 + 2.0 * evaluate_generator(gen, 0.0, y, 0.0, np.zeros((1, 0)))[0],
                                     abs=1e-15)


class TestPenalization:
    def test_level_zero_equals_one_barrier(self):
        rng = np.random.default_rng(23)
        problem = random_problem(rng, a0=0.2)
        inc = reflected_sweep(problem, penalty=("lower", 0.0))
        one = solve_one_barrier(problem, side="upper")
        for k in range(problem.tree.n_layers):
            assert np.array_equal(inc.Y.layer(k), one.Y.layer(k))

    def test_closed_form_binding_value(self):
        # one step, dt = 1, xi = 0, L = 1, n = 1:
        # y solves y = 0 + n*dt*(L - y)^+  =>  y = 1/2
        tree = build_tree(TimeGrid(1.0, 1))
        problem = make_problem(tree, 1.0, 10.0, np.zeros(2))
        inc = reflected_sweep(problem, penalty=("lower", 1.0))
        assert inc.Y.layer(0)[0] == pytest.approx(0.5, abs=1e-15)

    def test_closed_form_binding_value_mirror(self):
        # y = 2 - n*dt*(y - U)^+ with U = 1, n = 1  =>  y = 3/2
        tree = build_tree(TimeGrid(1.0, 1))
        problem = make_problem(tree, -10.0, 1.0, np.full(2, 2.0))
        dec = reflected_sweep(problem, penalty=("upper", 1.0))
        assert dec.Y.layer(0)[0] == pytest.approx(1.5, abs=1e-15)

    def test_large_level_close_to_clamped(self):
        rng = np.random.default_rng(24)
        problem = random_problem(rng, a0=0.3)
        sol = backward_clamped_solve(problem)
        inc = reflected_sweep(problem, penalty=("lower", 1e6))
        dec = reflected_sweep(problem, penalty=("upper", 1e6))
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

    @pytest.mark.parametrize("seed", [25, 31, 32, 33])
    def test_bracket_matches_all_levels_reference(self, seed):
        # the bracket's sweeps share one first step; the reference shares nothing,
        # for every generator form, with and without a flagged last layer
        rng = np.random.default_rng(seed)
        m = seed % 3
        base = random_problem(rng, N=3 + seed % 2, m=m, a0=rng.uniform(-0.5, 0.5))
        tree, bar, N = base.tree, base.barriers, base.tree.grid.steps
        gap = bar.upper.layer(N) - bar.lower.layer(N)
        n = tree.layer_size(N)
        # the two-sided pre-jump clamp binds on both sides at some leaves
        flagged_N = {N: (bar.lower.layer(N) + 0.6 * gap * rng.uniform(size=n),
                         bar.upper.layer(N) - 0.3 * gap * rng.uniform(size=n))}
        affine = {"a0": rng.uniform(-0.5, 0.5), "b": -0.4, "c": 0.2, "d": [0.1] * m}
        generators = [
            base.generator,
            GeneratorSpec("affine", affine, lipschitz=0.4 + 0.2 + 0.1 * m),
            GeneratorSpec("lipschitz-clip", dict(affine, clip=0.3), lipschitz=0.4 + 0.2 + 0.1 * m),
        ]
        schedule = [1, 4, 16, 64, 256, 2**20, 2**40]
        for gen in generators:
            for flagged in ({}, flagged_N):
                problem = ProblemSpec(tree, gen, BarrierPair(bar.lower, bar.upper, flagged), base.terminal)
                levels, widths, inc, dec = reference_bracket(problem, schedule)
                trace = penalization_bracket(problem, schedule=schedule)
                assert trace.levels == levels
                assert np.array(trace.widths).tobytes() == np.array(widths).tobytes()
                assert len(trace.increasing) == len(trace.decreasing) == 1
                assert same_bits(trace.increasing[0], inc) and same_bits(trace.decreasing[0], dec)

    def test_bracket_matches_reference_on_markov_instance(self):
        problem = markov_problem(6)
        levels, widths, inc, dec = reference_bracket(problem, [2**k for k in range(21)])
        trace = penalization_bracket(problem)
        assert trace.levels == levels
        assert np.array(trace.widths).tobytes() == np.array(widths).tobytes()
        assert same_bits(trace.increasing[-1], inc) and same_bits(trace.decreasing[-1], dec)

    @staticmethod
    def bracket_rows(problem):
        """The first step and, per side, the first level's sweep and the rows its later levels re-solve."""
        tree, N = problem.tree, problem.tree.grid.steps
        first = first_step(tree, problem.terminal, problem.barriers.flagged.get(N), problem.generator)
        sweeps = {side: reflected_sweep(problem, penalty=(side, 1.0), first=first) for side in ("lower", "upper")}
        return first, {side: (sol, drbsde._dependent_rows(tree, sol)) for side, sol in sweeps.items()}

    @staticmethod
    def assert_matches_reference(problem, schedule):
        levels, widths, inc, dec = reference_bracket(problem, schedule)
        trace = penalization_bracket(problem, schedule=schedule)
        assert trace.levels == levels and len(levels) > 1
        assert np.array(trace.widths).tobytes() == np.array(widths).tobytes()
        assert same_bits(trace.increasing[0], inc) and same_bits(trace.decreasing[0], dec)
        return trace

    def test_a_scheme_that_never_binds_re_solves_nothing_after_its_first_level(self, monkeypatch):
        # the lower barrier lies far below every value, so the increasing scheme's penalty never binds
        base = random_problem(np.random.default_rng(39), N=4, m=1, a0=0.6)
        tree, N = base.tree, base.tree.grid.steps
        problem = ProblemSpec(tree, base.generator, BarrierPair(constant_values(tree, -1e3), base.barriers.upper),
                              base.terminal)
        first, rows = self.bracket_rows(problem)
        sol, lower = rows["lower"]
        assert not sol.binding[N - 1].size and all(r.size == 0 for r in lower)
        calls = []
        represent = sweep.represent_layer
        monkeypatch.setattr(sweep, "represent_layer",
                            lambda tree, child, k, rows=None: calls.append(k) or represent(tree, child, k, rows))
        later = reflected_sweep(problem, penalty=("lower", 2.0**20), first=first,
                                rows=Rows(sol.Y, sol.left_limits, lower))
        assert calls == [] and all(later.Y.layer(k) is sol.Y.layer(k) for k in range(N + 1))
        monkeypatch.undo()
        upper = rows["upper"][1]
        solved = sum(tree.layer_size(k) if r is None else r.size for k, r in enumerate(upper))
        assert 0 < solved < sum(tree.layer_size(k) for k in range(N))
        # the increasing scheme runs no sweep after its first level; the decreasing one runs one batch
        sides, run = [], drbsde.reflected_sweep
        monkeypatch.setattr(drbsde, "reflected_sweep", lambda problem, penalty, first, rows=None:
                            sides.append(penalty[0]) or run(problem, penalty=penalty, first=first, rows=rows))
        trace = self.assert_matches_reference(problem, [1, 4, 16, 64, 256, 2**20])
        assert sides == ["lower", "upper", "upper"]
        assert trace.resolved[1:] == [solved] * (len(trace.levels) - 1)

    def test_a_scheme_that_binds_everywhere_runs_whole_layers(self):
        # every value lies below the lower barrier, so the increasing scheme's penalty binds at every node
        tree = build_tree(TimeGrid(1.0, 4), MarkSet((1.0,), (0.3,)))
        rng = np.random.default_rng(40)
        problem = make_problem(tree, 0.5, 1.0, rng.uniform(-1.5, -0.5, tree.layer_size(4)))
        first, rows = self.bracket_rows(problem)
        sol, lower = rows["lower"]
        assert all(sol.binding[k].size == tree.layer_size(k) for k in range(4))
        assert lower == [None] * 4
        trace = self.assert_matches_reference(problem, [1, 4, 16, 64, 256, 2**20])
        upper = rows["upper"][1]
        solved = sum(tree.layer_size(k) if r is None else r.size for k, r in enumerate(upper))
        assert trace.resolved[1:] == [40 + solved] * (len(trace.levels) - 1)

    @staticmethod
    def fake_schemes(monkeypatch, tree, bend, schedule=(1.0, 2.0, 4.0)):
        """Replace both schemes of the bracket's sweeps, the first level's and each batch's, by
        constant values -1 - 1/n and 1 + 1/n, passed through ``bend(side, level index, layer, values)``."""
        schedule = list(schedule)

        def run(problem, penalty, first, rows=None):
            side, sign = ("inc", -1.0) if penalty[0] == "lower" else ("dec", 1.0)
            layer = lambda k, n: bend(side, schedule.index(n), k, np.full(tree.layer_size(k), sign * (1.0 + 1.0 / n)))
            return fake_sweep(tree, [fake_layer(penalty[1], lambda n: layer(k, n)) for k in range(tree.n_layers)], rows)

        monkeypatch.setattr(drbsde, "reflected_sweep", run)
        return schedule

    @pytest.mark.parametrize("layer", [0, 2, 3])
    @pytest.mark.parametrize("fault, text", [
        ("fell", "increasing scheme fell between levels"),
        ("rose", "decreasing scheme rose between levels"),
        ("inverted", "scheme bracket inverted"),
    ])
    def test_monotonicity_violations_name_the_layer(self, monkeypatch, fault, text, layer):
        problem = random_problem(np.random.default_rng(34))

        def bend(side, i, k, y):
            if k != layer or i != 1:
                return y
            if fault == "fell" and side == "inc":
                return y - 1.0  # below level 0's -2
            if fault == "rose" and side == "dec":
                return y + 1.0  # above level 0's 2
            if fault == "inverted" and side == "inc":
                return y + 5.0  # above the decreasing scheme, yet still rising
            return y

        schedule = self.fake_schemes(monkeypatch, problem.tree, bend)
        with pytest.raises(MonotonicityViolated, match=f"^{text} at layer {layer}$"):
            penalization_bracket(problem, schedule=schedule)

    @pytest.mark.parametrize("layer", [0, 3])
    @pytest.mark.parametrize("fault, text", [
        ("fell", "increasing scheme fell between levels"),
        ("rose", "decreasing scheme rose between levels"),
        ("inverted", "scheme bracket inverted"),
    ])
    def test_a_violation_at_a_batch_s_last_level_names_the_layer(self, monkeypatch, fault, text, layer):
        # levels 2, 4 and 8 run as one batch; only level 8 breaks the order, at one layer
        problem = random_problem(np.random.default_rng(34))

        def bend(side, i, k, y):
            if k != layer or i != 3:
                return y
            if fault == "fell" and side == "inc":
                return y - 1.0  # below level 4's -1.25
            if fault == "rose" and side == "dec":
                return y + 1.0  # above level 4's 1.25
            if fault == "inverted" and side == "inc":
                return y + 5.0  # above the decreasing scheme, yet still rising
            return y

        schedule = self.fake_schemes(monkeypatch, problem.tree, bend, schedule=(1.0, 2.0, 4.0, 8.0))
        with pytest.raises(MonotonicityViolated, match=f"^{text} at layer {layer}$"):
            penalization_bracket(problem, schedule=schedule)

    def test_nothing_past_the_early_stop_is_checked(self, monkeypatch):
        # level 2's width is below BRACKET_EARLY_STOP; level 4, in the same batch, inverts the bracket
        problem = random_problem(np.random.default_rng(35))
        bend = lambda side, i, k, y: y * 1e-8 if i == 1 else y + 5.0 if i == 2 and side == "inc" else y
        schedule = self.fake_schemes(monkeypatch, problem.tree, bend)
        fake, shapes = drbsde.reflected_sweep, []
        monkeypatch.setattr(drbsde, "reflected_sweep", lambda problem, penalty, first, rows=None:
                            shapes.append(np.shape(penalty[1])) or fake(problem, penalty, first, rows))
        trace = penalization_bracket(problem, schedule=schedule)
        assert shapes == [(), (), (2, 1), (2, 1)]
        assert trace.levels == [1.0, 2.0] and trace.widths[-1] < drbsde.BRACKET_EARLY_STOP
        assert all(np.all(trace.increasing[0].layer(k) == -1.5 * 1e-8) for k in range(problem.tree.n_layers))

    def test_zero_width_has_no_sign(self, monkeypatch):
        # increasing +0.0 under decreasing -0.0 is no inversion; the width is +0.0, as |+0.0 - -0.0|
        problem = random_problem(np.random.default_rng(35))
        bend = lambda side, i, k, y: np.full_like(y, 0.0 if side == "inc" else -0.0)
        schedule = self.fake_schemes(monkeypatch, problem.tree, bend)
        trace = penalization_bracket(problem, schedule=schedule)
        assert trace.levels == [1.0] and trace.widths == [0.0]
        assert not np.signbit(trace.final_width)

    def test_bracket_memory_is_about_two_solves(self):
        # N=8, one mark: 9,841 nodes; keeping every level's Ys took 6.6 times one solve's peak
        problem = markov_problem(8)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        solve = peak(lambda: backward_clamped_solve(problem))
        bracket = peak(lambda: penalization_bracket(problem))
        assert bracket <= 3 * solve, (bracket, solve)

    def test_separation_violated_at_flagged_left_limit(self):
        # the penalized schemes clamp both left limits exactly, so they need L- < U-
        tree = build_tree(TimeGrid(1.0, 2))
        touching = {1: (np.full(2, 0.5), np.full(2, 0.5))}
        problem = make_problem(tree, -1.0, 1.0, np.zeros(4), flagged=touching)
        with pytest.raises(SeparationViolated, match="layer 1"):
            reflected_sweep(problem, penalty=("lower", 4.0))

    def test_unknown_side_is_refused(self):
        problem = random_problem(np.random.default_rng(26))
        with pytest.raises(ValueError, match="sides must be 'lower' and/or 'upper'"):
            reflected_sweep(problem, sides=("up",))

    def test_frozen_drift_takes_no_penalty(self):
        tree = build_tree(TimeGrid(1.0, 1))
        zero = constant_values(tree, 0.0)
        with pytest.raises(ValueError, match="frozen drift"):
            make_drift_solver(tree, zero, penalty=("lower", zero, 1))

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

    @pytest.mark.parametrize("schedule", [[math.nan], [1.0, math.nan], [math.nan, 1.0]])
    def test_nan_schedule(self, schedule):
        problem = random_problem(np.random.default_rng(26))
        with pytest.raises(ValueError, match="schedule must be non-empty, positive and strictly increasing"):
            penalization_bracket(problem, schedule=schedule)

    @staticmethod
    def comparison_problem(seed, d):
        """N=3, one mark at rate 0.2 and f = 0.2 + d*v: mark child weight dt*(0.2 + d)."""
        base = random_problem(np.random.default_rng(seed), N=3, m=1)
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.2,)))
        gen = GeneratorSpec("affine", {"a0": 0.2, "d": [d]}, lipschitz=abs(d))
        return ProblemSpec(tree, gen, base.barriers, base.terminal)

    @pytest.mark.parametrize("d, weight", [(-0.25, (0.2 - 0.25) / 3), (-0.2, 0.0)])
    def test_bracket_refuses_a_problem_without_the_comparison_condition(self, monkeypatch, d, weight):
        # without the check the bracket broke its order on 13 and 10 of these 20 seeds
        steps = []
        monkeypatch.setattr(drbsde, "first_step", lambda *args: steps.append(args))
        for seed in range(20):
            with pytest.raises(ComparisonViolated, match="on child '1': the comparison condition fails") as err:
                penalization_bracket(self.comparison_problem(seed, d))
            assert err.value.child == "1" and err.value.weight == pytest.approx(weight, abs=1e-15)
        assert steps == []  # refused before any sweep

    def test_bracket_runs_where_every_weight_is_positive(self):
        for seed in range(20):
            trace = penalization_bracket(self.comparison_problem(seed, -0.15))
            assert trace.final_width < 1e-4

    def test_lipschitz_clip_bracket_keeps_its_order(self):
        base = random_problem(np.random.default_rng(5), N=2, m=1)
        gen = GeneratorSpec("lipschitz-clip", {"a0": 0.5, "b": 0.4, "c": 0.1, "d": [0.05], "clip": 0.6},
                            lipschitz=0.55)
        problem = ProblemSpec(base.tree, gen, base.barriers, base.terminal)
        penalization_bracket(problem, schedule=[1])

    @staticmethod
    def clip_problem(seed):
        """A lipschitz-clip problem with N 2-4, m 0-2 and every one-step weight positive; odd seeds flag layers."""
        rng = np.random.default_rng(seed)
        N, m = int(rng.integers(2, 5)), int(rng.integers(0, 3))
        base = random_problem(rng, N=N, m=m)
        tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0, -1.0)[:m], (0.3, 0.2)[:m]) if m else None)
        lo, up = base.barriers.lower.layers, base.barriers.upper.layers
        flagged = {}
        for k in range(1, N + 1) if seed % 2 else ():
            if rng.uniform() < 0.5:
                lp = lo[k] + rng.uniform(0.0, 0.5, lo[k].shape) * (up[k] - lo[k])
                flagged[k] = (lp, lp + rng.uniform(0.1, 0.5, lp.shape) * (up[k] - lp))
        b, c, d = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.8), rng.uniform(-0.3, 0.3), rng.uniform(-0.1, 0.2, m)
        params = {"a0": rng.uniform(-1.0, 1.0), "a1": rng.uniform(-1.0, 1.0), "b": b, "c": c, "d": list(d),
                  "clip": rng.uniform(0.05, 1.0)}
        gen = GeneratorSpec("lipschitz-clip", params, lipschitz=abs(b) + abs(c) + float(np.linalg.norm(d)))
        return ProblemSpec(tree, gen, BarrierPair(base.barriers.lower, base.barriers.upper, flagged), base.terminal)

    @pytest.mark.parametrize("seeds", [range(0, 32), range(32, 64)])
    def test_random_lipschitz_clip_brackets_keep_their_order(self, seeds):
        # an iterated clip solve stopped the two schemes ~1e-13 apart and broke the order on 3 of these
        for seed in seeds:
            problem = self.clip_problem(seed)
            trace = penalization_bracket(problem)
            clamped = backward_clamped_solve(problem).Y
            for k in range(problem.tree.n_layers):
                assert np.all(trace.increasing[0].layer(k) <= clamped.layer(k)), (seed, k)
                assert np.all(clamped.layer(k) <= trace.decreasing[0].layer(k)), (seed, k)


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
            free = (sol.dKc_plus.layer(k) == 0.0) & (sol.dKc_minus.layer(k) == 0.0)
            assert np.any(free)
            want = conditional_expectation(tree, sol.Y.layer(k + 1), k) + dt * (0.3 + 0.5 * y)
            assert np.max(np.abs(y - want)[free]) < 1e-12

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

    @pytest.mark.parametrize("seed", [7, 11, 3])
    def test_sweep_pushes_equal_picard_on_markov_instances(self, seed):
        # the benchmark's Markov family at N=8: affine in y, both clamps bind
        path = Path(__file__).parents[1] / "perfbench" / "inputs.py"
        spec = importlib.util.spec_from_file_location("markov_inputs", path)
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        problem = inputs.markov_problem(inputs.markov_params(seed, 8))
        sol = backward_clamped_solve(problem)
        ref, trace = picard_solve(problem, tol=1e-12)
        assert trace[-1] < 1e-12
        for name in ("Y", "dKc_plus", "dKc_minus", "dKd_plus", "dKd_minus"):
            for k in range(problem.tree.n_layers):
                diff = getattr(sol, name).layer(k) - getattr(ref, name).layer(k)
                assert np.max(np.abs(diff)) <= 1e-12, (name, k)

    def test_default_alpha_formula(self):
        assert default_alpha(0.0) == 1.0
        assert default_alpha(1.0) == 9.0

    def test_alpha_norm_constant(self):
        tree = build_tree(TimeGrid(1.0, 2))
        vals = constant_values(tree, 2.0)
        # sum over k<2 of e^{0*t_k} * 4 * 0.5 = 4
        assert _weighted_norm(tree, tree.layer_probabilities(), vals, 0.0) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_alpha_norm_matches_layer_probabilities(self, m):
        tree = build_tree(TimeGrid(1.3, 5), MarkSet((1.0,) * m, (0.4,) * m) if m else None)
        rng = np.random.default_rng(50 + m)
        vals = AdaptedValues([rng.normal(size=tree.layer_size(k)) for k in range(6)], 0)
        total = 0.0
        layers = list(tree.layer_probabilities())
        for k in range(tree.grid.steps):
            probs = layers[k]
            total += math.exp(2.5 * tree.grid.time(k)) * float(probs @ vals.layer(k) ** 2) * tree.grid.dt
        assert _weighted_norm(tree, tree.layer_probabilities(), vals, 2.5) == math.sqrt(total)

    def test_no_contraction(self):
        # dt = 1 with |b| = 1.5 amplifies each pass by 1.5; alpha = 0 sees it
        tree = build_tree(TimeGrid(1.0, 1))
        gen = GeneratorSpec("affine", {"b": -1.5}, lipschitz=1.5)
        problem = make_problem(tree, -1e6, 1e6, np.array([2.0, 0.0]), gen=gen)
        with pytest.raises(NoContraction):
            picard_solve(problem, alpha=0.0, tol=0.0, max_iter=60)

    def test_weight_overflow_is_typed(self, monkeypatch):
        # lipschitz 20 gives the default alpha 1681, and e^(1681*0.75) is no float
        tree = build_tree(TimeGrid(1.0, 4), MarkSet((1.0,), (0.5,)))
        gen = GeneratorSpec("affine", {"a0": 0.1, "b": -0.5}, lipschitz=20.0)
        problem = make_problem(tree, -1.0, 1.0, np.zeros(tree.layer_size(4)), gen=gen)
        passes = []
        monkeypatch.setattr(drbsde, "reflected_sweep", lambda *a, **k: passes.append(a))
        with pytest.raises(WeightOverflow, match=r"alpha=1681\.0 .* largest usable alpha is about 946\.377$"):
            picard_solve(problem)
        assert not passes
        # alpha 946 still fits: e^(946*0.75) = e^709.5
        monkeypatch.undo()
        sol, trace = picard_solve(problem, alpha=946.0)
        assert all(math.isfinite(d) for d in trace)

    @staticmethod
    def roundoff_floor_problem():
        """N=4, two marks, affine f declared 2.5-Lipschitz (alpha 36), barriers -1 and 1."""
        tree = build_tree(TimeGrid(1.0, 4), MarkSet((1.0, -1.0), (0.3, 0.2)))
        gen = GeneratorSpec("affine", {"a0": 0.2, "b": -0.8, "c": -0.2}, lipschitz=2.5)
        return make_problem(tree, -1.0, 1.0, np.random.default_rng(0).uniform(-1.0, 1.0, 256), gen=gen)

    def test_roundoff_floor_instance_converges_at_a_looser_tolerance(self):
        problem = self.roundoff_floor_problem()
        sol, trace = picard_solve(problem, tol=1e-10)
        clamped = backward_clamped_solve(problem)
        assert trace[-1] < 1e-10
        assert max(float(np.max(np.abs(a - b))) for a, b in zip(sol.Y.layers, clamped.Y.layers)) < 1e-13

    @pytest.mark.xfail(raises=NoContraction, strict=True,
                       reason="the e^(alpha*t) weights lift last-bit differences to a 1.2e-11 plateau; "
                              "the stopping rule cannot tell that floor from a failure to contract")
    def test_roundoff_floor_is_not_a_failure_to_contract(self):
        sol, trace = picard_solve(self.roundoff_floor_problem(), tol=1e-12)
        assert trace[-1] < 1e-12


def per_pass_picard(problem, alpha=None, tol=1e-10, max_iter=60, initial=None):
    """Picard as a loop of whole clamped solves: each pass takes its own first step
    and its own layer probabilities, and copies its frozen drift."""
    tree = problem.tree
    spec = problem.generator
    if alpha is None:
        alpha = default_alpha(spec.lipschitz)
    N = tree.grid.steps
    t_last = tree.grid.time(N - 1)
    try:
        math.exp(alpha * t_last)
    except OverflowError:
        raise WeightOverflow(
            f"alpha={alpha} overflows the norm's weight e^(alpha*t) at t={t_last}; "
            f"the largest usable alpha is about {math.log(np.finfo(float).max) / t_last:.6g}"
        ) from None

    def frozen_from(sol_Y, sol_Z, sol_V):
        return AdaptedValues([
            np.asarray(evaluate_generator(spec, tree.grid.time(k), sol_Y.layer(k), sol_Z.layer(k), sol_V.layer(k)),
                       dtype=float).copy()
            for k in range(N)
        ], 0)

    if initial is None:
        initial = AdaptedValues([np.zeros(tree.layer_size(k)) for k in range(N + 1)], 0)
    Y = initial
    Z = AdaptedValues([np.zeros(tree.layer_size(k)) for k in range(N)], 0)
    V = AdaptedValues([np.zeros((tree.layer_size(k), tree.marks.m)) for k in range(N)], 0)
    trace, bad_streak, solution = [], 0, None
    for _ in range(max_iter):
        solution = backward_clamped_solve(problem, frozen_drift=frozen_from(Y, Z, V))
        diff = AdaptedValues([solution.Y.layer(k) - Y.layer(k) for k in range(N)], 0)
        dist = _weighted_norm(tree, tree.layer_probabilities(), diff, alpha)
        if trace and trace[-1] > 0:
            bad_streak = bad_streak + 1 if dist / trace[-1] >= 1.0 else 0
            if bad_streak >= 5:
                raise NoContraction(f"no geometric decay with alpha={alpha}; increase the weight rate")
        trace.append(dist)
        Y, Z, V = solution.Y, solution.Z, solution.V
        if dist < tol:
            return solution, trace
    return solution, trace


def picard_outcome(run, problem, **kwargs):
    """Every array of the solution and the trace's bits, or the error's type and message."""
    try:
        sol, trace = run(problem, **kwargs)
    except (NoContraction, WeightOverflow) as err:
        return type(err).__name__, str(err)
    arrays = [(name, a.tobytes()) for name, value in vars(sol).items() if isinstance(value, AdaptedValues)
              for a in value.layers]
    arrays += [("left_limits", k, a.tobytes()) for k, a in sorted(sol.left_limits.items())]
    return arrays, np.array(trace).tobytes()


def picard_problem(m, form, flag_N, N=3):
    rng = np.random.default_rng(70 + 10 * m + N)
    problem = random_problem(rng, N=N, m=m)
    params = {"a0": 0.2, "a1": -0.3, "b": -0.4, "c": 0.3, "d": list(rng.uniform(0.0, 0.2, m)),
              "c0": 0.3, "c1": -0.2, "clip": 0.25}
    problem.generator = GeneratorSpec(form, params, lipschitz=0.7 + 0.2 * m)
    bar = problem.barriers
    lo, up = bar.lower.layers, bar.upper.layers
    flagged = {1: (None, lo[1] + 0.5 * (up[1] - lo[1]))}
    if flag_N:
        flagged[N] = (lo[N] + 0.2 * (up[N] - lo[N]), up[N] - 0.3 * (up[N] - lo[N]))
    problem.barriers = BarrierPair(bar.lower, bar.upper, flagged)
    return problem


class TestPicardFirstStep:
    """Picard's passes share one first step and one list of layer probabilities."""

    def test_layer_N_minus_1_is_represented_once_per_call(self, monkeypatch):
        problem = markov_problem(4)
        calls = []
        represent = sweep.represent_layer
        monkeypatch.setattr(sweep, "represent_layer",
                            lambda tree, child, k, rows=None: calls.append(k) or represent(tree, child, k, rows))
        for _ in range(2):
            calls.clear()
            sol, trace = picard_solve(problem, tol=1e-12)
            assert len(trace) > 3
            assert calls.count(3) == 1
            assert calls.count(0) == len(trace)
        # the weight check still comes before any representation
        calls.clear()
        with pytest.raises(WeightOverflow):
            picard_solve(problem, alpha=1e4)
        assert calls == []

    @pytest.mark.parametrize("flag_N", [False, True])
    @pytest.mark.parametrize("form", ["constant", "affine", "lipschitz-clip"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_equals_the_per_pass_loop(self, m, form, flag_N):
        problem = picard_problem(m, form, flag_N)
        got = picard_outcome(picard_solve, problem, tol=1e-12)
        assert got == picard_outcome(per_pass_picard, problem, tol=1e-12)
        assert not isinstance(got[0], str)
        start = constant_values(problem.tree, 0.25)
        got = picard_outcome(picard_solve, problem, alpha=3.0, tol=0.0, max_iter=4, initial=start)
        assert got == picard_outcome(per_pass_picard, problem, alpha=3.0, tol=0.0, max_iter=4, initial=start)

    def test_errors_equal_the_per_pass_loop(self):
        # dt = 1 with |b| = 1.5 amplifies each pass by 1.5; alpha = 0 sees it
        tree = build_tree(TimeGrid(1.0, 1))
        gen = GeneratorSpec("affine", {"b": -1.5}, lipschitz=1.5)
        problem = make_problem(tree, -1e6, 1e6, np.array([2.0, 0.0]), gen=gen)
        got = picard_outcome(picard_solve, problem, alpha=0.0, tol=0.0)
        assert got[0] == "NoContraction"
        assert got == picard_outcome(per_pass_picard, problem, alpha=0.0, tol=0.0)
        problem = picard_problem(2, "affine", True)
        got = picard_outcome(picard_solve, problem, alpha=1e4)
        assert got[0] == "WeightOverflow"
        assert got == picard_outcome(per_pass_picard, problem, alpha=1e4)


class TestSharedLayers:
    """Layer N is never materialized, and what results share is read-only."""

    @staticmethod
    def flagged_last_layer(N=3):
        rng = np.random.default_rng(36)
        problem = random_problem(rng, N=N, m=1, a0=0.1)
        n = problem.tree.layer_size(N)
        bar = problem.barriers
        problem.barriers = BarrierPair(bar.lower, bar.upper,
                                       {1: (None, np.full(3, 0.5)), N: (np.full(n, -0.5), np.full(n, 0.5))})
        return problem

    @staticmethod
    def assert_read_only(*arrays):
        for x in arrays:
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1.0

    def test_layer_N_and_zero_pushes_are_read_only(self):
        problem = markov_problem(4)
        sol = backward_clamped_solve(problem)
        # Y at N views the terminal; dKc at N and dKd at unflagged layers hold no push
        self.assert_read_only(sol.Y.layer(4), sol.dKc_plus.layer(4), sol.dKc_minus.layer(4),
                              sol.dKd_plus.layer(4), sol.dKd_minus.layer(3), sol.dKd_plus.layer(0))
        assert np.shares_memory(sol.Y.layer(4), problem.terminal)
        # a flagged layer still gets its own push arrays
        sol.dKd_minus.layer(2)[0] += 0.0

    def test_bracket_shares_a_read_only_first_step(self):
        problem = self.flagged_last_layer()
        bar = problem.barriers
        first = first_step(problem.tree, problem.terminal, bar.flagged[3], problem.generator)
        self.assert_read_only(first.Y, first.left, first.dKd_plus, first.dKd_minus,
                              first.a, first.z, first.v, *first.free)
        inc = reflected_sweep(problem, penalty=("lower", 4.0), first=first)
        dec = reflected_sweep(problem, penalty=("upper", 64.0), first=first)
        assert inc.Z.layer(2) is dec.Z.layer(2) is first.z
        assert inc.left_limits[3] is dec.left_limits[3] is first.left
        self.assert_read_only(inc.Z.layer(2), dec.V.layer(2), inc.dKd_plus.layer(3))
        trace = penalization_bracket(problem)
        self.assert_read_only(trace.increasing[0].layer(3), trace.decreasing[0].layer(3))

    def test_every_solver_leaves_the_terminal_as_it_was(self):
        for problem in (self.flagged_last_layer(), markov_problem(4)):
            terminal = problem.terminal.copy()
            backward_clamped_solve(problem)
            solve_one_barrier(problem, "upper")
            solve_one_barrier(problem, "lower")
            reflected_sweep(problem, penalty=("lower", 8.0))
            reflected_sweep(problem, penalty=("upper", 8.0))
            penalization_bracket(problem)
            picard_solve(problem)
            assert problem.terminal.tobytes() == terminal.tobytes()

    @staticmethod
    def snell_sweep(problem, monkeypatch):
        """The sweep behind ``snell_envelope`` on the lower barrier, which returns only its Y."""
        swept = []
        run = snell.backward_sweep
        monkeypatch.setattr(snell, "backward_sweep", lambda *args, **kw: swept.append(run(*args, **kw)) or swept[0])
        snell.snell_envelope(problem.tree, problem.barriers.lower)
        monkeypatch.undo()
        return swept[0]

    # solver -> (present side, absent side) of its layer clamps
    ONE_SIDED = {
        "one-barrier upper": (lambda p, mp: solve_one_barrier(p, "upper"), "dKc_minus", "dKc_plus"),
        "one-barrier lower": (lambda p, mp: solve_one_barrier(p, "lower"), "dKc_plus", "dKc_minus"),
        "snell": (lambda p, mp: TestSharedLayers.snell_sweep(p, mp), "dKc_plus", "dKc_minus"),
        "increasing": (lambda p, mp: reflected_sweep(p, penalty=("lower", 4.0)), "dKc_minus", "dKc_plus"),
        "decreasing": (lambda p, mp: reflected_sweep(p, penalty=("upper", 4.0)), "dKc_plus", "dKc_minus"),
    }

    @pytest.mark.parametrize("form", ["constant", "affine", "lipschitz-clip"])
    @pytest.mark.parametrize("solver", list(ONE_SIDED))
    def test_one_sided_clamps_push_shared_zeros_on_the_absent_side(self, monkeypatch, solver, form):
        # narrow barriers around a terminal that crosses both, so every clamp binds
        rng = np.random.default_rng(38)
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0,), (0.3,)))
        lower = AdaptedValues([rng.uniform(-0.4, -0.1, tree.layer_size(k)) for k in range(4)], 0)
        upper = AdaptedValues([rng.uniform(0.1, 0.4, tree.layer_size(k)) for k in range(4)], 0)
        flagged = {2: (np.full(9, -0.05), np.full(9, 0.05))}
        params = {"a0": 0.0, "b": -0.4, "c": 0.2, "d": [0.1], "clip": 0.25}
        gen = GeneratorSpec(form, params if form != "constant" else {"c0": 0.1}, lipschitz=0.7)
        problem = ProblemSpec(tree, gen, BarrierPair(lower, upper, flagged), rng.uniform(-1.0, 1.0, 27))
        run, present, absent = self.ONE_SIDED[solver]
        sol = run(problem, monkeypatch)
        # the reference clamps both sides, the absent one against an infinite barrier
        clamp = sweep._clamp
        infinite = lambda y, side, sign: np.full(y.shape[0], sign * np.inf) if side is None else side
        monkeypatch.setattr(sweep, "_clamp", lambda y, lo, up, k: clamp(y, infinite(y, lo, -1.0),
                                                                         infinite(y, up, 1.0), k))
        ref = run(problem, monkeypatch)
        for k in range(tree.n_layers):
            zeros = getattr(sol, absent).layer(k)
            assert zeros is sweep._zeros(tree.layer_size(k)) and not zeros.flags.writeable, k
            assert not np.any(getattr(ref, absent).layer(k)), k
            for name in ("Y", present):
                assert getattr(sol, name).layer(k).tobytes() == getattr(ref, name).layer(k).tobytes(), (name, k)
        assert any(np.any(getattr(sol, present).layer(k)) for k in range(tree.grid.steps))

    @pytest.mark.parametrize("shared", ["increasing", "decreasing"])
    def test_layer_N_shared_by_one_scheme_only_is_checked_at_every_level(self, monkeypatch, shared):
        # the other scheme returns its own copy of first.Y and breaks the order there at level 2
        problem = random_problem(np.random.default_rng(37))
        tree, N = problem.tree, problem.tree.grid.steps
        schedule = [1.0, 2.0, 4.0]

        def run(problem, penalty, first, rows=None):
            scheme, sign = ("increasing", -1.0) if penalty[0] == "lower" else ("decreasing", 1.0)
            levels = penalty[1]  # the first level's, then the batch of levels 2 and 4
            layers = [fake_layer(levels, lambda n: np.full(tree.layer_size(k), sign * (1.0 + 1.0 / n)))
                      for k in range(N)]
            last = first.Y if scheme == shared else fake_layer(levels, lambda n: first.Y + (sign if n == 4.0 else 0.0))
            return fake_sweep(tree, layers + [last], rows)

        monkeypatch.setattr(drbsde, "reflected_sweep", run)
        text = "decreasing scheme rose" if shared == "increasing" else "increasing scheme fell"
        with pytest.raises(MonotonicityViolated, match=f"^{text} between levels at layer {N}$"):
            penalization_bracket(problem, schedule=schedule)

    def test_clamped_solve_peaks_below_four_terminal_layers(self):
        # N=8, one mark: copying layer N and allocating zero pushes over it peaked at 9 layers
        problem = markov_problem(8)
        backward_clamped_solve(problem)
        tracemalloc.start()
        try:
            backward_clamped_solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * problem.terminal.nbytes, peak / problem.terminal.nbytes


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
