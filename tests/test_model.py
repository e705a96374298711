import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from treebsde import (
    BarrierPair,
    GeneratorSpec,
    MarkSet,
    ProblemSpec,
    TimeGrid,
    UnknownForm,
    barriers_from_functions,
    build_tree,
    constant_values,
    evaluate_generator,
    validate,
)
from treebsde import cli, represent_layer
from treebsde.model import _lipschitz_probe, comparison_weights
from treebsde.sweep import _free_part

ROOT = Path(__file__).parents[1]


def small_tree():
    return build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))


def flat_problem(tree, lower, upper, terminal, flagged=None, lipschitz=0.0):
    barriers = BarrierPair(
        constant_values(tree, lower), constant_values(tree, upper), flagged or {}
    )
    gen = GeneratorSpec("constant", {"c0": 0.0}, lipschitz=lipschitz)
    return ProblemSpec(tree, gen, barriers, terminal)


class TestGeneratorRegistry:
    def test_unknown_form(self):
        with pytest.raises(UnknownForm):
            GeneratorSpec("cubic", {})

    def test_affine_constant_part(self):
        spec = GeneratorSpec("affine", {"a0": 1.0})
        out = evaluate_generator(spec, 0.3, 0.0, np.zeros(2), np.zeros(2), np.zeros((2, 0)))
        assert np.all(out == 1.0)

    def test_affine_y_slope(self):
        spec = GeneratorSpec("affine", {"b": 2.0})
        out = evaluate_generator(spec, 0.0, 0.0, np.array([3.0]), np.zeros(1), np.zeros((1, 0)))
        assert out[0] == 6.0

    def test_clip(self):
        spec = GeneratorSpec("lipschitz-clip", {"a0": 5.0, "clip": 1.0})
        out = evaluate_generator(spec, 0.0, 0.0, np.zeros(1), np.zeros(1), np.zeros((1, 0)))
        assert out[0] == 1.0

    def test_mark_components(self):
        spec = GeneratorSpec("affine", {"d": [2.0, -1.0]})
        v = np.array([[1.0, 3.0]])
        out = evaluate_generator(spec, 0.0, 0.0, np.zeros(1), np.zeros(1), v)
        assert out[0] == pytest.approx(-1.0, abs=1e-15)

    def test_y_slope_is_the_affine_coefficient_of_y(self):
        assert GeneratorSpec("constant", {"c0": 1.0, "b": 2.0}).y_slope() == 0.0
        assert GeneratorSpec("affine", {"c": 0.5}).y_slope() == 0.0
        assert GeneratorSpec("affine", {"b": -0.3}).y_slope() == -0.3
        assert GeneratorSpec("lipschitz-clip", {"b": 0.4, "clip": 1.0}).y_slope() == 0.4


class TestValidation:
    def test_all_pass(self):
        tree = small_tree()
        report = validate(flat_problem(tree, 0.0, 1.0, np.full(9, 0.5)), require_h=True)
        assert report.passed

    def test_coincident_barriers_fail_strict_separation(self):
        tree = small_tree()
        report = validate(flat_problem(tree, 0.0, 0.0, np.zeros(9)), require_h=True)
        assert report.check("barrier-order").passed
        assert not report.check("strict-separation").passed

    def test_flagged_left_limit_violation(self):
        tree = small_tree()
        flagged = {1: (np.zeros(3), np.zeros(3))}  # U_pre equals L_pre
        report = validate(
            flat_problem(tree, 0.0, 1.0, np.full(9, 0.5), flagged=flagged), require_h=True
        )
        assert not report.check("strict-separation").passed

    def test_terminal_sandwich(self):
        tree = small_tree()
        report = validate(flat_problem(tree, 0.0, 1.0, np.full(9, 1.5)))
        assert not report.check("terminal-sandwich").passed

    def test_lipschitz_probe_catches_understated_constant(self):
        tree = small_tree()
        barriers = BarrierPair(constant_values(tree, -5.0), constant_values(tree, 5.0))
        gen = GeneratorSpec("affine", {"b": 2.0}, lipschitz=0.5)  # understated
        report = validate(ProblemSpec(tree, gen, barriers, np.zeros(9)))
        assert not report.check("lipschitz-probe").passed

    def test_lipschitz_probe_accepts_honest_constant(self):
        tree = small_tree()
        barriers = BarrierPair(constant_values(tree, -5.0), constant_values(tree, 5.0))
        gen = GeneratorSpec("affine", {"b": 1.0, "c": 0.5, "d": [0.3]}, lipschitz=1.8)
        report = validate(ProblemSpec(tree, gen, barriers, np.zeros(9)))
        assert report.check("lipschitz-probe").passed

    def test_contraction_margin_warning(self):
        tree = build_tree(TimeGrid(4.0, 2))  # dt = 2
        barriers = BarrierPair(constant_values(tree, -5.0), constant_values(tree, 5.0))
        gen = GeneratorSpec("affine", {"b": 0.6}, lipschitz=0.6)  # C_f*dt = 1.2
        report = validate(ProblemSpec(tree, gen, barriers, np.zeros(4)))
        assert not report.check("contraction-margin").passed


def pairwise_probe(spec, tree, rng, n_pairs=1000):
    """The probe one pair at a time: the reference for the batched probe."""
    m = tree.marks.m
    worst = 0.0
    t_samples = rng.uniform(0.0, tree.grid.horizon, n_pairs)
    a = rng.normal(size=(n_pairs, 2 + m)) * 3.0
    b = rng.normal(size=(n_pairs, 2 + m)) * 3.0
    for i in range(n_pairs):
        y1, z1, v1 = a[i, 0], a[i, 1], a[i, 2:]
        y2, z2, v2 = b[i, 0], b[i, 1], b[i, 2:]
        f1 = float(evaluate_generator(spec, t_samples[i], 0.0, np.atleast_1d(y1), np.atleast_1d(z1), v1[None, :])[0])
        f2 = float(evaluate_generator(spec, t_samples[i], 0.0, np.atleast_1d(y2), np.atleast_1d(z2), v2[None, :])[0])
        denom = abs(y1 - y2) + abs(z1 - z2) + float(np.linalg.norm(v1 - v2))
        if denom > 1e-12:
            worst = max(worst, abs(f1 - f2) / denom)
    return worst


class TestLipschitzProbe:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("form", ["constant", "affine", "lipschitz-clip"])
    def test_batched_probe_equals_pairwise_probe(self, m, form):
        marks = MarkSet(tuple(float(j) for j in range(m)), tuple(0.1 for _ in range(m)))
        tree = build_tree(TimeGrid(2.0, 3), marks)
        params = {"a0": 0.3, "a1": -1.1, "b": 0.7, "c": -1.9, "c0": 0.2, "c1": 0.8, "clip": 0.6,
                  "d": list(np.random.default_rng(m).normal(size=m))}
        spec = GeneratorSpec(form, params)
        for seed in (42, 7, 123):
            batched = _lipschitz_probe(spec, tree, np.random.default_rng(seed), n_pairs=200)
            assert batched == pairwise_probe(spec, tree, np.random.default_rng(seed), n_pairs=200)


class TestBarriers:
    def test_flagged_realization_from_callables(self):
        tree = small_tree()
        barriers = barriers_from_functions(
            tree,
            lower_fn=lambda t, x: -1.0,
            upper_fn=lambda t, x: 1.0 + t,
            flagged={1: (None, 0.25)},
        )
        lp, up = barriers.pre_jump(1)
        assert np.all(lp == -1.0)  # missing side defaults to the at-time value
        assert np.all(up == 0.25)
        lp0, up0 = barriers.pre_jump(2)  # unflagged: left limit equals the value
        assert np.all(up0 == barriers.upper.layer(2))

    def test_terminal_broadcast(self):
        tree = small_tree()
        problem = flat_problem(tree, 0.0, 1.0, 0.5)
        assert problem.terminal.shape == (9,)

    def test_terminal_wrong_length(self):
        tree = small_tree()
        with pytest.raises(ValueError):
            flat_problem(tree, 0.0, 1.0, np.zeros(4))


class TestMarkSum:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("form", ["constant", "affine", "lipschitz-clip"])
    def test_layer_call_equals_row_by_row_calls(self, m, form):
        # the mark sum of each row must not depend on how many rows a call holds
        rng = np.random.default_rng(60 + m)
        params = {"a0": 0.3, "a1": -1.1, "b": 0.7, "c": -1.9, "c0": 0.2, "c1": 0.8, "clip": 0.6,
                  "d": list(rng.normal(size=m))}
        spec = GeneratorSpec(form, params)
        n = 1000
        y, z = rng.normal(size=n), rng.normal(size=n)
        v = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 3, size=(n, m))
        v[::7] = -0.0
        layer = evaluate_generator(spec, 0.4, 0.0, y, z, v)
        rows = np.concatenate([evaluate_generator(spec, 0.4, 0.0, y[i:i + 1], z[i:i + 1], v[i:i + 1])
                               for i in range(n)])
        assert layer.tobytes() == rows.tobytes()

    def test_mark_count_must_match_d(self):
        spec = GeneratorSpec("affine", {"d": [1.0, 2.0]})
        for m in (0, 1, 3):
            with pytest.raises(ValueError, match=f"d has 2 entries for {m} marks"):
                evaluate_generator(spec, 0.0, 0.0, np.zeros(2), np.zeros(2), np.zeros((2, m)))


class TestComparisonWeights:
    @pytest.mark.parametrize("form", ["constant", "affine", "lipschitz-clip"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_weights_are_the_slopes_of_the_drift_solves_numerator(self, form, m):
        # node i of layer 1 has its child i at 1 and the others at 0, so the
        # numerator a + dt*(affine part at y = 0) there, less its value with
        # every child at 0, is child i's weight
        tree = build_tree(TimeGrid(1.0, 3), MarkSet((1.0, -1.0)[:m], (0.3, 0.2)[:m]) if m else None)
        params = {"a0": 0.4, "a1": 0.3, "b": -0.3, "c": -0.7, "d": [0.25, -0.1][:m], "c0": 0.2, "c1": 1.0,
                  "clip": 0.5}
        spec = GeneratorSpec(form, params)
        b = m + 2
        num = lambda children: _free_part(tree, spec, None, 1, *represent_layer(tree, children, 1))[0]
        slopes = num(np.eye(b).ravel()) - num(np.zeros(b * b))
        np.testing.assert_allclose(comparison_weights(tree, spec), slopes, rtol=0, atol=1e-15)
        if form == "constant":
            assert comparison_weights(tree, spec).tolist() == tree.base_weights.tolist()

    def test_mark_weights_need_one_entry_per_mark(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0, -1.0), (0.3, 0.2)))
        with pytest.raises(ValueError, match="d has 1 entries for 2 marks"):
            comparison_weights(tree, GeneratorSpec("affine", {"d": [0.1]}))

    def test_shipped_instances_meet_the_comparison_condition(self):
        # the configs and the benchmark's Markov family run the penalization bracket
        for path in sorted((ROOT / "configs").glob("*.json")):
            cfg = json.loads(path.read_text())
            if "problem" in cfg:
                problem = cli.build_problem(cfg, cli.build_tree_from_config(cfg))
                assert np.all(comparison_weights(problem.tree, problem.generator) > 0.0), path.name
        spec = importlib.util.spec_from_file_location("markov_inputs", ROOT / "perfbench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        for seed in range(100):
            for steps in (8, 12):
                # the tree's data and the generator, without the forward state
                p = inputs.markov_params(seed, steps)
                weights = comparison_weights(inputs._tree(steps, p["rate"]), inputs._generator(p))
                assert np.all(weights > 0.0), (seed, steps)
