import copy
import dataclasses
import importlib.util
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from treebsde import (
    AdaptedValues,
    BarrierPair,
    ConfigError,
    ControlGrid,
    GameSpec,
    GeneratorSpec,
    LayerMismatch,
    MarkSet,
    NotConverged,
    ProblemSpec,
    TimeGrid,
    TreeBsdeError,
    UnknownForm,
    backward_clamped_solve,
    barriers_from_functions,
    build_tree,
    evaluate_generator,
    picard_solve,
    validate,
    values_from_function,
)
from treebsde import cli, represent_layer
from treebsde.model import _lipschitz_probe, comparison_weights
from treebsde.sweep import _free_part
from test_drbsde import form_params

ROOT = Path(__file__).parents[1]


def small_tree():
    return build_tree(TimeGrid(1.0, 2), MarkSet((1.0,), (0.2,)))


def flat_problem(tree, lower, upper, terminal, flagged=None, lipschitz=0.0):
    barriers = BarrierPair(
        values_from_function(tree, lower), values_from_function(tree, upper), flagged or {}
    )
    gen = GeneratorSpec("constant", {"c0": 0.0}, lipschitz=lipschitz)
    return ProblemSpec(tree, gen, barriers, terminal)


class TestGeneratorRegistry:
    def test_unknown_form(self):
        with pytest.raises(UnknownForm):
            GeneratorSpec("cubic", {})

    def test_affine_constant_part(self):
        spec = GeneratorSpec("affine", {"a0": 1.0})
        out = evaluate_generator(spec, 0.3, np.zeros(2), np.zeros(2), np.zeros((2, 0)))
        assert np.all(out == 1.0)

    def test_affine_y_slope(self):
        spec = GeneratorSpec("affine", {"b": 2.0})
        out = evaluate_generator(spec, 0.0, np.array([3.0]), np.zeros(1), np.zeros((1, 0)))
        assert out[0] == 6.0

    def test_clip(self):
        spec = GeneratorSpec("lipschitz-clip", {"a0": 5.0, "clip": 1.0})
        out = evaluate_generator(spec, 0.0, np.zeros(1), np.zeros(1), np.zeros((1, 0)))
        assert out[0] == 1.0

    @pytest.mark.parametrize("clip", [-1.0, -1e-300, float("nan")])
    def test_clip_bound_below_zero_is_refused(self, clip):
        # a negative bound C makes the generator C everywhere, which the Lipschitz probe cannot see
        with pytest.raises(TreeBsdeError, match="the clip bound must be >= 0"):
            GeneratorSpec("lipschitz-clip", {"a0": 5.0, "clip": clip})
        assert GeneratorSpec("lipschitz-clip", {"clip": 0.0}).clip == 0.0
        assert GeneratorSpec("affine", {}).clip is None  # no other form reads it
        with pytest.raises(ConfigError, match="^params.clip: not a parameter of the affine form"):
            GeneratorSpec("affine", {"clip": clip})

    @pytest.mark.parametrize("form, key, value", [
        ("affine", "b", float("nan")), ("affine", "d", [float("nan")]), ("affine", "a0", float("inf")),
        ("affine", "a1", -float("inf")), ("affine", "c", float("nan")), ("constant", "c0", float("nan")),
        ("constant", "c1", float("inf")), ("lipschitz-clip", "clip", float("inf")),
        ("lipschitz-clip", "d", [0.1, float("inf")]),
    ])
    def test_non_finite_parameter_is_refused(self, form, key, value):
        # {"b": nan} and {"d": [nan]} passed validate(require_h=True), as the probe skips NaN
        # ratios, and the solve returned a NaN root
        with pytest.raises(ConfigError) as exc:
            GeneratorSpec(form, {key: value}, lipschitz=1.0)
        assert exc.value.path == f"params.{key}"

    def test_mark_components(self):
        spec = GeneratorSpec("affine", {"d": [2.0, -1.0]})
        v = np.array([[1.0, 3.0]])
        out = evaluate_generator(spec, 0.0, np.zeros(1), np.zeros(1), v)
        assert out[0] == pytest.approx(-1.0, abs=1e-15)

    def test_y_slope_is_the_affine_coefficient_of_y(self):
        assert GeneratorSpec("constant", {"c0": 1.0}).b == 0.0
        assert GeneratorSpec("affine", {"c": 0.5}).b == 0.0
        assert GeneratorSpec("affine", {"b": -0.3}).b == -0.3
        assert GeneratorSpec("lipschitz-clip", {"b": 0.4, "clip": 1.0}).b == 0.4
        # constant reads c0 and c1 as the intercept and time slope, and refuses every other key
        spec = GeneratorSpec("constant", {"c0": 1.5, "c1": -2.0})
        assert (spec.a0, spec.a1, spec.b, spec.c, spec.d.size, spec.clip) == (1.5, -2.0, 0.0, 0.0, 0, None)
        for key, value in (("a0", 9.0), ("b", 2.0), ("c", 3.0), ("d", [1.0]), ("clip", 0.1)):
            with pytest.raises(ConfigError, match=f"^params.{key}: not a parameter of the constant form"):
                GeneratorSpec("constant", {"c0": 1.5, key: value})

    def test_the_spec_is_frozen_and_reads_its_params_once(self):
        # checks made at construction keep holding: a later edit of params
        # changes no evaluation and no solve, and no field can be reassigned
        tree = small_tree()
        spec = GeneratorSpec("lipschitz-clip", {"a0": 0.4, "b": 0.5, "c": -0.3, "clip": 0.2}, lipschitz=0.5)
        y, z, v = np.linspace(-2.0, 2.0, 5), np.linspace(1.0, -1.0, 5), np.zeros((5, 1))
        barriers = BarrierPair(values_from_function(tree, -0.9), values_from_function(tree, 0.9))
        problem = ProblemSpec(tree, spec, barriers, np.linspace(-1.0, 1.0, 9))
        solved = lambda: np.concatenate(backward_clamped_solve(problem).Y.layers).tobytes()
        before = evaluate_generator(spec, 0.3, y, z, v).tobytes(), solved()
        spec.params["clip"] = -1.0
        spec.params["b"] = 5.0
        assert evaluate_generator(spec, 0.3, y, z, v).tobytes() == before[0]
        assert solved() == before[1]
        for name, value in (("form", "affine"), ("params", {}), ("lipschitz", 9.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)
        assert not GeneratorSpec("affine", {"d": [0.1]}).d.flags.writeable


def by_name(report):
    return {c.name: c for c in report.checks}


class TestValidation:
    def test_all_pass(self):
        tree = small_tree()
        report = validate(flat_problem(tree, 0.0, 1.0, np.full(9, 0.5)), require_h=True)
        assert report.passed

    def test_coincident_barriers_fail_strict_separation(self):
        tree = small_tree()
        report = validate(flat_problem(tree, 0.0, 0.0, np.zeros(9)), require_h=True)
        assert by_name(report)["barrier-order"].passed
        assert not by_name(report)["strict-separation"].passed

    def test_flagged_left_limit_violation(self):
        tree = small_tree()
        flagged = {1: (np.zeros(3), np.zeros(3))}  # U_pre equals L_pre
        report = validate(
            flat_problem(tree, 0.0, 1.0, np.full(9, 0.5), flagged=flagged), require_h=True
        )
        assert not by_name(report)["strict-separation"].passed

    @pytest.mark.parametrize("pre, separated", [
        ((None, 0.5), True), ((0.5, None), True),
        ((None, 0.0), False), ((1.0, None), False),  # the missing side is the at-time value: L = 0, U = 1
    ])
    def test_missing_pre_jump_side_is_the_at_time_value(self, pre, separated):
        # a BarrierPair holds a None side as its at-time array, which every reader then compares
        tree = small_tree()
        flagged = {1: tuple(None if v is None else np.full(3, v) for v in pre)}
        report = validate(flat_problem(tree, 0.0, 1.0, np.full(9, 0.5), flagged=flagged), require_h=True)
        check = by_name(report)["strict-separation"]
        assert check.passed == separated
        assert check.detail == ("" if separated else "left limits L- >= U- at flagged layer 1")

    @pytest.mark.parametrize("at_time_layer, detail", [
        (2, "left limits L- >= U- at flagged layer 1"),
        (1, "L >= U at layer 1"),
    ])
    def test_separation_reports_the_first_layer_at_time_values_first(self, at_time_layer, detail):
        # the left limits at flagged layer 1 fail, and so do the at-time values at layer 1 or 2
        tree = small_tree()
        upper = [np.ones(tree.layer_size(k)) for k in range(3)]
        upper[at_time_layer][0] = 0.0
        barriers = BarrierPair(values_from_function(tree, 0.0), AdaptedValues(upper, 0), {1: (np.full(3, 0.5),) * 2})
        report = validate(ProblemSpec(tree, GeneratorSpec("constant"), barriers, 0.0), require_h=True)
        assert by_name(report)["strict-separation"].detail == detail

    @pytest.mark.parametrize("edits, order, separation", [
        ([("lower", 2, 4, 2.0)], "L > U at layer 2, node 4", "L >= U at layer 2"),
        # a NaN compares false both ways: it passed validate(require_h=True) with every check PASS
        ([("lower", 1, 0, np.nan)], "NaN barrier at layer 1, node 0", "L >= U at layer 1"),
        ([("upper", 1, 2, np.nan)], "NaN barrier at layer 1, node 2", "L >= U at layer 1"),
        # the walk goes on past the first separation fault to find the first order fault
        ([("lower", 0, 0, 1.0), ("lower", 2, 7, 3.0)], "L > U at layer 2, node 7", "L >= U at layer 0"),
    ])
    def test_barrier_faults_fail_order_and_separation(self, edits, order, separation):
        tree = small_tree()
        values = {"lower": [np.zeros(tree.layer_size(k)) for k in range(3)],
                  "upper": [np.ones(tree.layer_size(k)) for k in range(3)]}
        for side, layer, node, value in edits:
            values[side][layer][node] = value
        barriers = BarrierPair(AdaptedValues(values["lower"], 0), AdaptedValues(values["upper"], 0))
        report = validate(ProblemSpec(tree, GeneratorSpec("constant"), barriers, 0.5), require_h=True)
        checks = by_name(report)
        assert (checks["barrier-order"].passed, checks["barrier-order"].detail) == (False, order)
        assert (checks["strict-separation"].passed, checks["strict-separation"].detail) == (False, separation)

    @pytest.mark.parametrize("pre", [(np.nan, 0.5), (0.2, np.nan)])
    def test_a_nan_left_limit_fails_separation(self, pre):
        tree = small_tree()
        flagged = {1: (np.array([0.2, pre[0], 0.2]), np.array([0.5, pre[1], 0.5]))}
        report = validate(flat_problem(tree, 0.0, 1.0, np.full(9, 0.5), flagged=flagged), require_h=True)
        checks = by_name(report)
        assert checks["barrier-order"].passed
        assert not checks["strict-separation"].passed
        assert checks["strict-separation"].detail == "left limits L- >= U- at flagged layer 1"

    def test_terminal_sandwich(self):
        tree = small_tree()
        report = validate(flat_problem(tree, 0.0, 1.0, np.full(9, 1.5)))
        assert not by_name(report)["terminal-sandwich"].passed

    def test_lipschitz_probe_catches_understated_constant(self):
        tree = small_tree()
        barriers = BarrierPair(values_from_function(tree, -5.0), values_from_function(tree, 5.0))
        gen = GeneratorSpec("affine", {"b": 2.0}, lipschitz=0.5)  # understated
        report = validate(ProblemSpec(tree, gen, barriers, np.zeros(9)))
        assert not by_name(report)["lipschitz-probe"].passed

    def test_lipschitz_probe_accepts_honest_constant(self):
        tree = small_tree()
        barriers = BarrierPair(values_from_function(tree, -5.0), values_from_function(tree, 5.0))
        gen = GeneratorSpec("affine", {"b": 1.0, "c": 0.5, "d": [0.3]}, lipschitz=1.8)
        report = validate(ProblemSpec(tree, gen, barriers, np.zeros(9)))
        assert by_name(report)["lipschitz-probe"].passed

    def test_contraction_margin_warning(self):
        tree = build_tree(TimeGrid(4.0, 2))  # dt = 2
        barriers = BarrierPair(values_from_function(tree, -5.0), values_from_function(tree, 5.0))
        gen = GeneratorSpec("affine", {"b": 0.6}, lipschitz=0.6)  # C_f*dt = 1.2
        report = validate(ProblemSpec(tree, gen, barriers, np.zeros(4)))
        assert not by_name(report)["contraction-margin"].passed


class TestFlaggedEntries:
    """A BarrierPair refuses flagged entries that no solver could read."""

    @pytest.mark.parametrize("layer", [0, 3, 7])
    def test_flagged_layer_outside_the_tree(self, layer):
        # layers 1..2 of an N=2 tree can jump; a flag elsewhere was silently ignored
        tree = small_tree()
        with pytest.raises(LayerMismatch, match=f"flagged layer {layer} outside \\[1, 2\\]"):
            BarrierPair(values_from_function(tree, 0.0), values_from_function(tree, 1.0), {layer: (np.zeros(2), None)})

    @pytest.mark.parametrize("pre", [(np.zeros(2), None), (None, np.ones(4)), (np.zeros((3, 1)), None)])
    def test_pre_jump_values_of_the_wrong_length(self, pre):
        # layer 1 of the one-mark tree has 3 nodes; validate and the solvers
        # failed on these with numpy's broadcast ValueError
        tree = small_tree()
        with pytest.raises(LayerMismatch, match="pre-jump values at flagged layer 1 have shape"):
            BarrierPair(values_from_function(tree, 0.0), values_from_function(tree, 1.0), {1: pre})


class TestMarkWeights:
    """A ProblemSpec refuses a generator that has mark weights d, but not one per tree mark."""

    def test_mark_weights_need_one_entry_per_mark(self):
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0, -1.0), (0.3, 0.2)))
        barriers = BarrierPair(values_from_function(tree, 0.0), values_from_function(tree, 1.0))
        with pytest.raises(LayerMismatch, match="d has 1 entries for 2 marks"):
            ProblemSpec(tree, GeneratorSpec("affine", {"d": [0.1]}), barriers, 0.5)

    @pytest.mark.parametrize("form", ["affine", "lipschitz-clip"])
    def test_two_weights_on_a_one_mark_tree(self, form):
        # validate, the clamped solve and the bracket raised a bare ValueError on it
        tree = small_tree()
        barriers = BarrierPair(values_from_function(tree, 0.0), values_from_function(tree, 1.0))
        with pytest.raises(LayerMismatch, match="d has 2 entries for 1 marks"):
            ProblemSpec(tree, GeneratorSpec(form, {"b": 0.1, "d": [0.1, 0.2]}), barriers, 0.5)

    def test_constant_form_refuses_mark_weights(self):
        # they used to be accepted and ignored
        tree = small_tree()
        with pytest.raises(ConfigError, match="^params.d: not a parameter of the constant form"):
            GeneratorSpec("constant", {"c0": 0.0, "d": [0.1, 0.2]})
        barriers = BarrierPair(values_from_function(tree, 0.0), values_from_function(tree, 1.0))
        problem = ProblemSpec(tree, GeneratorSpec("constant", {"c0": 0.0}), barriers, 0.5)
        assert validate(problem).passed
        assert comparison_weights(tree, problem.generator).tolist() == tree.base_weights.tolist()

    @pytest.mark.parametrize("d", [[0.1], [0.1, 0.2, 0.3]])
    def test_comparison_weights_refuse_a_weight_count_that_is_not_the_mark_count(self, d):
        # one weight used to be spread over both marks, three to end in a bare numpy ValueError
        tree = build_tree(TimeGrid(1.0, 2), MarkSet((1.0, -1.0), (0.3, 0.2)))
        with pytest.raises(LayerMismatch, match=f"d has {len(d)} entries for 2 marks"):
            comparison_weights(tree, GeneratorSpec("affine", {"d": d}))

    def test_a_generator_cannot_be_reassigned(self):
        # the weight check at construction holds for the life of the problem
        problem = flat_problem(small_tree(), 0.0, 1.0, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.generator = GeneratorSpec("affine", {"b": 0.1, "d": [0.1, 0.2]}, lipschitz=0.4)

    @pytest.mark.parametrize("d", [[], [0.3]])
    def test_no_weight_or_one_per_mark_is_accepted(self, d):
        tree = small_tree()
        barriers = BarrierPair(values_from_function(tree, 0.0), values_from_function(tree, 1.0))
        assert validate(ProblemSpec(tree, GeneratorSpec("affine", {"d": d}, lipschitz=0.3), barriers, 0.5)).passed


class TestFrozenProblem:
    """A problem's barriers, pre-jump values and terminal cannot change after construction."""

    @staticmethod
    def flagged_problem():
        tree = build_tree(TimeGrid(1.0, 2))
        return flat_problem(tree, -1.0, 1.0, 0.0, flagged={1: (np.full(2, -2.0), None)})

    def test_flagged_values_cannot_be_replaced(self):
        # a None side assigned afterwards was read as "no clamp" and ended validate in a TypeError
        problem = self.flagged_problem()
        bar = problem.barriers
        with pytest.raises(dataclasses.FrozenInstanceError):
            bar.flagged = {1: (np.full(2, 2.0), None)}
        with pytest.raises(TypeError):
            bar.flagged[1] = (np.full(2, 2.0), None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.barriers = BarrierPair(bar.lower, bar.upper)
        assert validate(problem, require_h=True).passed

    def test_arrays_are_read_only(self):
        problem = self.flagged_problem()
        bar = problem.barriers
        for values in (bar.lower.layer(1), bar.upper.layer(0), *bar.flagged[1], problem.terminal):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 2.0

    def test_a_copy_is_a_new_frozen_pair(self):
        bar = self.flagged_problem().barriers
        twin = copy.deepcopy(bar)
        assert twin.flagged.keys() == bar.flagged.keys() and twin.flagged[1][0] is not bar.flagged[1][0]
        assert [x.tobytes() for x in twin.flagged[1]] == [x.tobytes() for x in bar.flagged[1]]
        assert not twin.lower.layer(1).flags.writeable
        with pytest.raises(TypeError):
            twin.flagged[2] = bar.flagged[1]

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["deepcopy", "pickle"])
    def test_a_copied_problem_keeps_a_read_only_terminal(self, copier):
        # the default reduce restored the fields without the constructor, so the copy's terminal was writable
        problem = self.flagged_problem()
        twin = copier(problem)
        assert twin.terminal is not problem.terminal
        assert twin.terminal.tobytes() == problem.terminal.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            twin.terminal[0] = 5.0
        assert not twin.barriers.flagged[1][0].flags.writeable
        assert backward_clamped_solve(twin).Y.layer(0).tobytes() == backward_clamped_solve(problem).Y.layer(0).tobytes()


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
        f1 = float(evaluate_generator(spec, t_samples[i], np.atleast_1d(y1), np.atleast_1d(z1), v1[None, :])[0])
        f2 = float(evaluate_generator(spec, t_samples[i], np.atleast_1d(y2), np.atleast_1d(z2), v2[None, :])[0])
        denom = abs(y1 - y2) + abs(z1 - z2) + float(np.linalg.norm(v1 - v2))
        if denom > 1e-12:
            worst = max(worst, abs(f1 - f2) / denom)
    return worst


class TestLipschitzProbe:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("form", ["constant", "affine", "lipschitz-clip"])
    def test_batched_probe_equals_pairwise_probe(self, m, form, monkeypatch):
        monkeypatch.setattr("treebsde.model.PROBE_PAIRS", 200)
        marks = MarkSet(tuple(float(j) for j in range(m)), tuple(0.1 for _ in range(m)))
        tree = build_tree(TimeGrid(2.0, 3), marks)
        params = {"a0": 0.3, "a1": -1.1, "b": 0.7, "c": -1.9, "c0": 0.2, "c1": 0.8, "clip": 0.6,
                  "d": list(np.random.default_rng(m).normal(size=m))}
        spec = GeneratorSpec(form, form_params(form, params))
        for seed in (42, 7, 123):
            batched = _lipschitz_probe(spec, tree, np.random.default_rng(seed))
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
        lp, up = barriers.flagged[1]
        assert np.all(lp == -1.0)  # missing side defaults to the at-time value
        assert np.all(up == 0.25)
        assert list(barriers.flagged) == [1]  # every other layer's left limit is its at-time value

    def test_terminal_broadcast(self):
        tree = small_tree()
        problem = flat_problem(tree, 0.0, 1.0, 0.5)
        assert problem.terminal.shape == (9,)

    def test_terminal_wrong_length(self):
        tree = small_tree()
        with pytest.raises(LayerMismatch, match=r"^terminal has shape \(4,\), expected \(9,\)$"):
            flat_problem(tree, 0.0, 1.0, np.zeros(4))

    @pytest.mark.parametrize("spec", ["problem", "game"])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("cut, expected", [
        (lambda layers: [layers[0], np.zeros(2), layers[2]], r"at layer 1 has shape \(2,\), expected \(3,\)$"),
        (lambda layers: layers[:2], r"must cover all layers 0\.\.2$"),
    ], ids=["short-layer", "no-layer-N"])
    def test_a_barrier_of_the_wrong_shape_is_named(self, spec, side, cut, expected):
        # layer 1 of the one-mark tree has 3 nodes; a 2-value layer was accepted, and
        # validate and the clamped solve then raised numpy's broadcast ValueError
        tree = small_tree()
        bars = {"lower": values_from_function(tree, 0.0), "upper": values_from_function(tree, 1.0)}
        bars[side] = AdaptedValues(cut(bars[side].layers), 0)
        barriers = BarrierPair(bars["lower"], bars["upper"])
        with pytest.raises(LayerMismatch, match=f"^{side} barrier {expected}"):
            if spec == "problem":
                ProblemSpec(tree, GeneratorSpec("constant"), barriers, 0.5)
            else:
                GameSpec(tree, ControlGrid((0.0,), (0.0,)), barriers, 0.5)


class TestMarkSum:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("form", ["constant", "affine", "lipschitz-clip"])
    def test_layer_call_equals_row_by_row_calls(self, m, form):
        # the mark sum of each row must not depend on how many rows a call holds
        rng = np.random.default_rng(60 + m)
        params = {"a0": 0.3, "a1": -1.1, "b": 0.7, "c": -1.9, "c0": 0.2, "c1": 0.8, "clip": 0.6,
                  "d": list(rng.normal(size=m))}
        spec = GeneratorSpec(form, form_params(form, params))
        n = 1000
        y, z = rng.normal(size=n), rng.normal(size=n)
        v = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-3, 3, size=(n, m))
        v[::7] = -0.0
        layer = evaluate_generator(spec, 0.4, y, z, v)
        rows = np.concatenate([evaluate_generator(spec, 0.4, y[i:i + 1], z[i:i + 1], v[i:i + 1])
                               for i in range(n)])
        assert layer.tobytes() == rows.tobytes()

    def test_mark_count_must_match_d(self):
        spec = GeneratorSpec("affine", {"d": [1.0, 2.0]})
        for m in (0, 1, 3):
            with pytest.raises(LayerMismatch, match=f"generator d has 2 entries for {m} marks"):
                evaluate_generator(spec, 0.0, np.zeros(2), np.zeros(2), np.zeros((2, m)))


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
        spec = GeneratorSpec(form, form_params(form, params))
        b = m + 2
        num = lambda children: _free_part(tree, spec, 1, *represent_layer(tree, children, 1))[0]
        slopes = num(np.eye(b).ravel()) - num(np.zeros(b * b))
        np.testing.assert_allclose(comparison_weights(tree, spec), slopes, rtol=0, atol=1e-15)
        if form == "constant":
            assert comparison_weights(tree, spec).tolist() == tree.base_weights.tolist()

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


def one_mark_problem(N=2, terminal=None, flagged=None, generator=None):
    """N steps, one mark of rate 0.3, barriers -1 and 1, constant f = 0.1 unless given."""
    tree = build_tree(TimeGrid(1.0, N), MarkSet((1.0,), (0.3,)))
    barriers = BarrierPair(values_from_function(tree, -1.0), values_from_function(tree, 1.0), flagged or {})
    gen = generator or GeneratorSpec("constant", {"c0": 0.1})
    return ProblemSpec(tree, gen, barriers, np.zeros(tree.layer_size(N)) if terminal is None else terminal)


def picard_on_four_steps(**kwargs):
    """Picard on N=4, one mark, affine a0 = 0.2 and b = 2 (declared constant 2), terminal linspace(-0.5, 0.5)."""
    gen = GeneratorSpec("affine", {"a0": 0.2, "b": 2.0}, lipschitz=2.0)
    problem = one_mark_problem(4, np.linspace(-0.5, 0.5, 81), generator=gen)
    return picard_solve(problem, **kwargs)


@pytest.mark.parametrize("call, error, match", [
    # each returned, or raised a bare ValueError or TypeError
    (lambda: one_mark_problem(terminal=np.zeros(5)), LayerMismatch, r"^terminal has shape \(5,\), expected \(9,\)$"),
    (lambda: one_mark_problem(flagged={"1": (None, np.full(3, 0.5))}), LayerMismatch,
     "^flagged layer '1' is not an integer$"),
    (lambda: GeneratorSpec("affine", {"bb": 1.0, "a0": 0.2}, 1.0), ConfigError, "^params.bb: not a parameter"),
    (lambda: GeneratorSpec("constant", {"c0": 0.1, "b": 1.0}), ConfigError, "^params.b: not a parameter"),
    (lambda: GeneratorSpec("constant", {"c0": 0.1}, -1.0), ConfigError, "^lipschitz: "),
    (lambda: GeneratorSpec("affine", {"b": 0.5}, float("nan")), ConfigError, "^lipschitz: "),
    (lambda: GeneratorSpec("affine", {"b": 0.5}, float("inf")), ConfigError, "^lipschitz: "),
    (lambda: picard_on_four_steps(max_iter=8), NotConverged, "^8 passes left the distance at "),
    (lambda: picard_on_four_steps(tol=float("nan")), ConfigError, "^tol: "),
    (lambda: picard_on_four_steps(tol=0.0), ConfigError, "^tol: "),
    (lambda: picard_on_four_steps(tol=-1.0), ConfigError, "^tol: "),
    (lambda: picard_on_four_steps(alpha=float("nan")), ConfigError, "^alpha: "),
], ids=["terminal-length", "flagged-key", "unknown-key", "key-of-another-form", "negative-lipschitz",
        "nan-lipschitz", "infinite-lipschitz", "picard-max-iter", "picard-nan-tol", "picard-zero-tol",
        "picard-negative-tol", "picard-nan-alpha"])
def test_bad_library_data_raises_a_typed_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
    assert issubclass(error, TreeBsdeError)


def test_picard_out_of_passes_holds_its_last_pass():
    # distinct from NoContraction: the distances decay, just not below tol in 8 passes
    with pytest.raises(NotConverged) as err:
        picard_on_four_steps(max_iter=8)
    sol, trace = err.value.result
    assert len(trace) == 8 and trace[-1] >= 1e-10 and all(b < a for a, b in zip(trace, trace[1:]))
    assert sol.dKc_plus.layers and sol.Y.layer(0).shape == (1,)
