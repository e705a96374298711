import json
from pathlib import Path

import numpy as np
import pytest

from treebsde import cli, node_id_table, picard_solve, solve_one_barrier

MINIMAL = {
    "schema": 1,
    "grid": {"horizon": 1.0, "steps": 1},
    "marks": [],
    "problem": {
        "generator": {"form": "constant", "params": {"c0": 0.0}, "lipschitz": 0.0},
        "barriers": {
            "lower": {"form": "constant", "value": 0.0},
            "upper": {"form": "affine-time", "a": 1.0, "b": 9.0},
        },
        "terminal": {"form": "constant", "value": 1.5},
    },
    "output": {"plot_path": "u"},
}


CONFIGS = Path(__file__).parents[1] / "configs"


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, *extra):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = cli.main([command, "--config", cfg_path, "--out", str(out), *extra])
    return code, out


class TestSolve:
    def test_minimal_instance(self, tmp_path):
        code, out = run(tmp_path, "solve", MINIMAL)
        assert code == 0
        bundle = json.loads((out / "bundle.json").read_text())
        sol = bundle["solution"]
        # mean of the terminal is 1.5; the upper barrier clamps the root at 1
        assert sol["Y"][""] == 1.0
        assert sol["dK_c_minus"][""] == 0.5
        assert sol["dK_d_minus"][""] == 0.0
        assert bundle["validation"]["passed"]

    def test_deterministic_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["solve", "--config", cfg_path, "--out", str(out1)]) == 0
        assert cli.main(["solve", "--config", cfg_path, "--out", str(out2)]) == 0
        assert (out1 / "bundle.json").read_bytes() == (out2 / "bundle.json").read_bytes()

    def test_metadata_written(self, tmp_path):
        code, out = run(tmp_path, "solve", MINIMAL)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["command"] == "solve"
        assert len(meta["config_sha256"]) == 64
        assert meta["wall_time_seconds"] >= 0.0
        phases = meta["phase_seconds"]
        assert list(phases) == ["build_and_solve", "parse", "serialize", "write"]
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= meta["wall_time_seconds"]

    def test_csv_outputs(self, tmp_path):
        code, out = run(tmp_path, "solve", MINIMAL, "--format", "both")
        assert code == 0
        values = (out / "values.csv").read_text().splitlines()
        assert values[0].startswith("node_id,layer,time,Y,Z")
        assert len(values) == 1 + 3  # header + 3 nodes
        plot = (out / "plot.csv").read_text().splitlines()
        assert plot[0] == "time,Y,lower,upper"
        assert len(plot) == 3  # root and one step along "u"

    def test_picard_trace_for_solution_dependent_generator(self, tmp_path):
        # one sweep gives the Y and pushes of Picard's fixed point, and no
        # iteration trace is written
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["problem"]["generator"] = {
            "form": "affine", "params": {"a0": 0.0, "b": 0.3}, "lipschitz": 0.3,
        }
        code, out = run(tmp_path, "solve", cfg)
        assert code == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert "iteration_trace" not in bundle
        tree = cli.build_tree_from_config(cfg)
        ref, _ = picard_solve(cli.build_problem(cfg, tree), tol=1e-12)
        ids = node_id_table(tree)
        expected = {"Y": ref.Y, "dK_c_plus": ref.dKc_plus, "dK_c_minus": ref.dKc_minus,
                    "dK_d_plus": ref.dKd_plus, "dK_d_minus": ref.dKd_minus,
                    "K_plus": ref.K_plus(), "K_minus": ref.K_minus()}
        for key, values in expected.items():
            for k in range(tree.n_layers):
                written = np.array([bundle["solution"][key][nid] for nid in ids[k]])
                assert np.max(np.abs(written - values.layer(k))) <= 1e-12, key


class TestExitCodes:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert cli.main(["solve", "--config", str(path)]) == 2

    def test_missing_key_names_path(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(MINIMAL))
        del cfg["problem"]["barriers"]["upper"]
        cfg_path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "problem.barriers.upper" in capsys.readouterr().err

    def test_wrong_schema(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["schema"] = 99
        code, _ = run(tmp_path, "solve", cfg)
        assert code == 2

    def test_validation_failure(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["problem"]["terminal"] = {"form": "constant", "value": 50.0}  # above U_T
        code, out = run(tmp_path, "solve", cfg)
        assert code == 3
        bundle = json.loads((out / "bundle.json").read_text())
        assert not bundle["validation"]["passed"]

    def test_solver_error(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["marks"] = [{"point": 1.0, "rate": 2.0}]  # rate*dt >= 1
        code, _ = run(tmp_path, "solve", cfg)
        assert code == 4


class TestStrictConfig:
    def test_nan_pre_jump_value_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["problem"]["barriers"]["flagged"] = [{"layer": 1, "upper_pre": float("nan")}]
        code, out = run(tmp_path, "solve", cfg)
        assert code == 2
        assert "problem.barriers.flagged[0].upper_pre" in capsys.readouterr().err
        assert not (out / "bundle.json").exists()

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "1e999"])
    def test_infinite_numbers_rejected(self, tmp_path, capsys, literal):
        text = json.dumps(MINIMAL).replace('"value": 1.5', f'"value": {literal}')
        path = tmp_path / "inf.json"
        path.write_text(text)
        assert cli.main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "problem.terminal.value" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("grid", "steps", 2.7),
        ("grid", "steps", "2"),
        ("grid", "steps", True),
    ])
    def test_non_integral_integers_rejected(self, tmp_path, capsys, section, key, value):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg.setdefault(section, {})[key] = value
        code, _ = run(tmp_path, "solve", cfg)
        assert code == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_non_integral_flagged_layer_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["problem"]["barriers"]["flagged"] = [{"layer": 0.5, "upper_pre": 2.0}]
        code, _ = run(tmp_path, "solve", cfg)
        assert code == 2
        assert "problem.barriers.flagged[0].layer" in capsys.readouterr().err

    @pytest.mark.parametrize("command,patch,path", [
        ("solve", {"grid": {"horizon": 1.0, "steps": 0}}, "grid.steps"),
        ("solve", {"grid": {"horizon": -1, "steps": 2}}, "grid.horizon"),
        # horizon/steps underflows to 0
        ("solve", {"grid": {"horizon": 5e-324, "steps": 2}}, "grid.horizon"),
        ("solve", {"marks": [{"point": 1.0, "rate": 0.5}, {"point": 2.0, "rate": 0}]},
         "marks[1].rate"),
        ("penalize", {"solver": {"schedule": [4, 2]}}, "solver.schedule"),
        ("penalize", {"solver": {"schedule": []}}, "solver.schedule"),
        ("penalize", {"solver": {"schedule": [1, "x"]}}, "solver.schedule[1]"),
        # penalty levels must be positive
        ("penalize", {"solver": {"schedule": [-5, 1]}}, "solver.schedule"),
        ("penalize", {"solver": {"schedule": [0, 1]}}, "solver.schedule"),
        # a repeated flagged layer must not replace the earlier entry
        ("solve", {"problem": {**MINIMAL["problem"], "barriers": {
            **MINIMAL["problem"]["barriers"],
            "flagged": [{"layer": 1, "upper_pre": 0.2}, {"layer": 1, "upper_pre": 5.0}]}}},
         "problem.barriers.flagged[1].layer"),
        # penalty levels are integers: 1.5 must not be written as level 1
        ("penalize", {"solver": {"schedule": [1.5, 2.5, 1e20]}}, "solver.schedule[0]"),
    ])
    def test_bad_values_exit_2_with_key_path(self, tmp_path, capsys, command, patch, path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"]["steps"] = 2
        cfg.update(patch)
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        assert f"config error at {path}:" in capsys.readouterr().err
        assert not (out / "bundle.json").exists()

    @pytest.mark.parametrize("command,config,key,value,path", [
        ("solve", "minimal", "solver", 5, "solver"),
        # a problem section that is not an object crashed with a traceback and exit 1
        ("solve", "minimal", "problem", 5, "problem"),
        ("penalize", "minimal", "problem", None, "problem"),
        ("snell", "game", "problem", [], "problem"),
        ("game", "game", "problem", 5, "problem"),
        ("solve", "minimal", "output", 3, "output"),
        ("solve", "game", "problem.state", 3, "problem.state"),
        ("solve", "game", "problem.state", {"gamma": 0.3}, "problem.state.gamma"),
        ("solve", "minimal", "problem.generator.params", 5, "problem.generator.params"),
        ("solve", "minimal", "problem.generator.params.c0", "x", "problem.generator.params.c0"),
        ("solve", "minimal", "problem.barriers.flagged", 5, "problem.barriers.flagged"),
        ("game", "game", "game.gamma", 0.3, "game.gamma"),
        ("game", "game", "game.controls.A", 3, "game.controls.A"),
        ("game", "game", "game.running", [["x", 1], [1, 1]], "game.running[0][0]"),
        # a repeated control value would never read its first row of the payoff tables
        ("game", "game", "game.controls.A", [0.0, 0.0], "game.controls.A[1]"),
        ("game", "game", "game.controls.B", [1.0, 1], "game.controls.B[1]"),
    ])
    def test_wrong_typed_values_exit_2_with_key_path(self, tmp_path, capsys, command, config,
                                                     key, value, path):
        cfg = json.loads((CONFIGS / f"{config}.json").read_text())
        *parents, last = key.split(".")
        section = cfg
        for name in parents:
            section = section[name]
        section[last] = value
        code, out = run(tmp_path, command, cfg, "--format", "both")
        assert code == 2
        assert f"config error at {path}:" in capsys.readouterr().err
        assert not (out / "bundle.json").exists()

    @pytest.mark.parametrize("clip, code", [(-0.5, 2), (-1e-300, 2), (0.0, 0), (0.5, 0)])
    def test_negative_clip_bound_exits_2(self, tmp_path, capsys, clip, code):
        # [-C, C] is empty below 0, where the generator would be the constant C
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["problem"]["generator"] = {"form": "lipschitz-clip", "params": {"a0": 0.2, "b": 0.3, "clip": clip},
                                       "lipschitz": 0.3}
        got, out = run(tmp_path, "solve", cfg)
        assert got == code
        if code == 2:
            assert "config error at problem.generator.params.clip: the clip bound must be >= 0" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("form", [[1], {"affine": 1}])
    def test_unhashable_generator_form_exits_2(self, tmp_path, capsys, form):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["problem"]["generator"]["form"] = form
        code, out = run(tmp_path, "solve", cfg)
        assert code == 2
        assert "config error at problem.generator.form: unknown generator form" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key,value,path", [
        # a misspelt or retired key must not be ignored: penalize would run the default schedule
        ("solve", "solver", {"tol": 1e-14, "schedul": [1, 2]}, "solver.tol"),
        ("penalize", "solver", {"tol": 1e-14, "schedul": [1, 2]}, "solver.tol"),
        # keys are checked per form: an affine-time barrier has no value, a constant generator no a2
        ("solve", "problem.barriers.upper.valeu", 2.0, "problem.barriers.upper.valeu"),
        ("solve", "problem.generator.params.a2", 0.5, "problem.generator.params.a2"),
    ])
    def test_unknown_keys_exit_2_with_key_path(self, tmp_path, capsys, command, key, value, path):
        cfg = json.loads(json.dumps(MINIMAL))
        *parents, last = key.split(".")
        section = cfg
        for name in parents:
            section = section.setdefault(name, {})
        section[last] = value
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        assert f"config error at {path}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("plot_path", ["x", "uu"])
    def test_bad_plot_path_exits_2_and_writes_nothing(self, tmp_path, capsys, plot_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["output"]["plot_path"] = plot_path  # "uu" is longer than the one-step grid
        code, out = run(tmp_path, "solve", cfg, "--format", "both")
        assert code == 2
        assert "config error at output.plot_path:" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_accepted(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"]["steps"] = 1.0
        code, out = run(tmp_path, "solve", cfg)
        assert code == 0
        assert json.loads((out / "bundle.json").read_text())["solution"]["Y"][""] == 1.0


class TestOtherCommands:
    def test_penalize(self, tmp_path):
        code, out = run(tmp_path, "penalize", MINIMAL)
        assert code == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["command"] == "penalize"
        assert bundle["final_width"] < 1e-6
        assert bundle["Y_increasing"][""] <= bundle["Y_decreasing"][""] + 1e-15

    def test_penalize_reports_the_nodes_each_level_re_solves(self, tmp_path):
        code, out = run(tmp_path, "penalize", markov_with())
        assert code == 0
        levels = json.loads((out / "bundle.json").read_text())["levels"]
        resolved = json.loads((out / "metadata.json").read_text())["resolved_nodes"]
        # N = 4, one mark: both schemes solve the 40 nodes below layer N at the first level
        assert len(resolved) == len(levels) and resolved[0] == 2 * 40
        assert all(0 <= r < resolved[0] for r in resolved[1:])

    def test_snell(self, tmp_path):
        code, out = run(tmp_path, "snell", MINIMAL)
        assert code == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["side"] == "upper"
        assert bundle["Y"][""] == 1.0

    @pytest.mark.parametrize("command, config", [
        ("snell", "markov.json"), ("penalize", "markov.json"), ("game", "game.json"),
    ])
    def test_csv_only_format_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch, command, config):
        # these commands have no CSV table; they used to write only metadata.json and exit 0
        solved = []
        for name in ("solve_one_barrier", "penalization_bracket", "solve_game"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: solved.append(args))
        cfg = json.loads((CONFIGS / config).read_text())
        code, out = run(tmp_path, command, cfg, "--format", "csv")
        assert code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists() and not solved

    def test_snell_bad_side(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["problem"]["side"] = "middle"
        code, _ = run(tmp_path, "snell", cfg)
        assert code == 2

    def test_game(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["game"] = {
            "controls": {"A": [0.0, 1.0], "B": [0.0, 1.0]},
            "running": [[1.0, 2.0], [0.0, 3.0]],
        }
        code, out = run(tmp_path, "game", cfg)
        assert code == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["max_gap"] == 0.0
        assert bundle["oracle"]["supinf"] == pytest.approx(bundle["oracle"]["infsup"], abs=1e-9)
        assert bundle["u_star"][""] in (0.0, 1.0)

    def test_game_validates_before_solving(self, tmp_path):
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "game.json").read_text())
        cfg["problem"]["terminal"]["value"] = 5.0  # above the upper barrier 0.8
        code, out = run(tmp_path, "game", cfg)
        assert code == 3
        bundle = json.loads((out / "bundle.json").read_text())
        assert list(bundle) == ["validation"]
        failed = [c["name"] for c in bundle["validation"]["checks"] if not c["passed"]]
        assert failed == ["terminal-sandwich"]

    @pytest.mark.parametrize("side", ["upper", "lower"])
    def test_snell_reports_the_side_it_solved(self, tmp_path, side):
        sign = 1.0 if side == "upper" else -1.0
        cfg = {
            "schema": 1,
            "grid": {"horizon": 1.0, "steps": 3},
            "marks": [{"point": 1.0, "rate": 0.5}],
            "problem": {
                # the drift drives Y into the barrier of the solved side
                "generator": {"form": "constant", "params": {"c0": 2.0 * sign}, "lipschitz": 0.0},
                "barriers": {
                    "lower": {"form": "constant", "value": -0.3},
                    "upper": {"form": "constant", "value": 0.3},
                    "flagged": [{"layer": 2, "lower_pre": -0.1, "upper_pre": 0.1}],
                },
                "terminal": {"form": "constant", "value": 0.0},
                "side": side,
            },
        }
        code, out = run(tmp_path, "snell", cfg)
        assert code == 0
        bundle = json.loads((out / "bundle.json").read_text())

        tree = cli.build_tree_from_config(cfg)
        sol = solve_one_barrier(cli.build_problem(cfg, tree), side=side)
        ids = node_id_table(tree)
        if side == "upper":
            mine, other = (sol.dKc_minus, sol.dKd_minus, sol.K_minus()), (sol.dKc_plus, sol.dKd_plus)
        else:
            mine, other = (sol.dKc_plus, sol.dKd_plus, sol.K_plus()), (sol.dKc_minus, sol.dKd_minus)
        for key, values in zip(("dK_c", "dK_d", "K"), mine):
            assert bundle[key] == {nid: v for k in range(values.first_layer, values.last_layer + 1)
                                   for nid, v in zip(ids[k], values.layer(k).tolist())}
            assert any(bundle[key].values())
        for values in other:
            assert all(not np.any(layer) for layer in values.layers)

    def test_game_too_large_for_oracle_is_skipped(self, tmp_path):
        cfg = json.loads((Path(__file__).parents[1] / "configs" / "game.json").read_text())
        cfg["grid"]["steps"] = 9  # 9,841 decision nodes
        code, out = run(tmp_path, "game", cfg)
        assert code == 0
        oracle = json.loads((out / "bundle.json").read_text())["oracle"]
        assert oracle == {"skipped": "2^9841 x 2^9841 control-map pairs > 1000000"}

    def test_game_bad_table_shape(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["game"] = {
            "controls": {"A": [0.0, 1.0], "B": [0.0]},
            "running": [[1.0, 2.0], [0.0, 3.0]],
        }
        code, _ = run(tmp_path, "game", cfg)
        assert code == 2

    def test_node_cap_override(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"] = {"horizon": 1.0, "steps": 6}
        cfg["output"] = {}
        cfg["solver"] = {"node_cap": 10}
        code, _ = run(tmp_path, "solve", cfg)
        assert code == 4

    def test_removed_flags_exit_2(self, tmp_path):
        # the node cap is read from solver.node_cap only, and there are no workers
        cfg_path = write_config(tmp_path, MINIMAL)
        for flag in ("--workers", "--node-cap"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["solve", "--config", cfg_path, "--out", str(tmp_path / "o"), flag, "10"])
            assert exc.value.code == 2, flag
        assert not (tmp_path / "o").exists()


def markov_with(**edits):
    """configs/markov.json with each dotted key path set to its value."""
    cfg = json.loads((CONFIGS / "markov.json").read_text())
    for key, value in edits.items():
        *parents, last = key.split(".")
        section = cfg
        for name in parents:
            section = section[name]
        section[last] = value
    return cfg


class TestInputGuards:
    @pytest.mark.parametrize("steps", [2000, 10000])
    def test_huge_grid_exits_4_with_a_short_message(self, tmp_path, capsys, steps):
        # the node count is compared by its logarithm, and never printed
        code, out = run(tmp_path, "solve", markov_with(**{"grid.steps": steps}))
        assert code == 4
        err = capsys.readouterr().err
        assert f"a tree of {steps} steps with 3 branches per node exceeds the cap" in err
        assert len(err) < 200
        assert not out.exists()

    def test_repeated_mark_point_exits_2(self, tmp_path, capsys):
        # gamma and the game's tilt are per-mark lists read by mark point, so
        # a repeated point would give both mark branches the last entry
        cfg = markov_with(**{
            "marks": [{"point": 1.0, "rate": 0.5}, {"point": 1.0, "rate": 0.4}],
            "problem.state.gamma": [-0.27, 0.5],
            "problem.generator.params.d": [0.06, 0.06],
        })
        for command in ("solve", "game"):
            cfg["game"] = json.loads((CONFIGS / "game.json").read_text())["game"]
            code, out = run(tmp_path, command, cfg)
            assert code == 2
            assert "config error at marks[1].point: mark point 1.0 is repeated" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("marks,d", [
        ([{"point": 1.0, "rate": 0.5}], [0.1, 0.2]),
        ([{"point": 1.0, "rate": 0.5}], []),
        ([], 0.06),
        ([{"point": 1.0, "rate": 0.5}, {"point": -1.0, "rate": 0.3}], 0.06),
    ])
    def test_mark_weights_need_one_entry_per_mark(self, tmp_path, capsys, marks, d):
        cfg = markov_with(**{"marks": marks, "problem.state.gamma": [-0.27] * len(marks),
                             "problem.generator.params.d": d})
        code, out = run(tmp_path, "solve", cfg)
        assert code == 2
        assert "config error at problem.generator.params.d:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("m", [10, 11])
    def test_ten_or_more_marks_exit_2_at_marks(self, tmp_path, capsys, m):
        # node ids spell each mark by one digit: with 11 marks 183 nodes had 181
        # distinct ids, and bundle.json silently kept one value per id
        cfg = markov_with(**{"grid.steps": 2, "marks": [{"point": j + 1.0, "rate": 0.05} for j in range(m)],
                             "problem.state.gamma": [-0.27] * m, "problem.generator.params.d": [0.01] * m})
        for command in ("solve", "penalize", "snell"):
            code, out = run(tmp_path, command, cfg)
            assert code == 2
            assert capsys.readouterr().err.startswith(f"config error at marks: {m} marks: ")
            assert not out.exists()

    def test_nine_marks_name_every_node(self, tmp_path):
        cfg = markov_with(**{"grid.steps": 2, "marks": [{"point": j + 1.0, "rate": 0.05} for j in range(9)],
                             "problem.state.gamma": [-0.27] * 9, "problem.generator.params.d": [0.01] * 9})
        code, out = run(tmp_path, "solve", cfg)
        assert code == 0
        assert len(json.loads((out / "bundle.json").read_text())["solution"]["Y"]) == 1 + 11 + 11**2

    def test_bare_mark_weight_with_one_mark_is_kept(self, tmp_path):
        listed, listed_out = run(tmp_path, "solve", markov_with())
        (tmp_path / "bare").mkdir()
        bare, bare_out = run(tmp_path / "bare", "solve", markov_with(**{"problem.generator.params.d": 0.06}))
        assert listed == bare == 0
        assert (bare_out / "bundle.json").read_bytes() == (listed_out / "bundle.json").read_bytes()


class TestNonFiniteOutput:
    # dt = 1 and a drift of 1.7e308 per step: the cumulative push runs past the float range
    OVERFLOW = {"grid.horizon": 4.0,
                "problem.generator": {"form": "constant", "params": {"c0": 1.7e308}, "lipschitz": 0.0}}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["solve", "snell", "penalize"])
    def test_overflow_exits_4_and_writes_nothing(self, tmp_path, capsys, command):
        code, out = run(tmp_path, command, markov_with(**self.OVERFLOW), "--format", "both")
        assert code == 4
        assert "solver error: bundle.json would hold a NaN or an infinity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_csv_only_overflow_exits_4_and_writes_nothing(self, tmp_path, capsys):
        code, out = run(tmp_path, "solve", markov_with(**self.OVERFLOW), "--format", "csv")
        assert code == 4
        assert "solver error: values.csv would hold a NaN or an infinity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_game_overflow_exits_4_and_writes_nothing(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "game.json").read_text())
        cfg["grid"]["horizon"] = 2.0
        cfg["game"]["running"] = [[1.7e308] * 2] * 2
        code, out = run(tmp_path, "game", cfg)
        assert code == 4
        assert "solver error: bundle.json would hold a NaN or an infinity" in capsys.readouterr().err
        assert not out.exists()

    ROOTS = {"solve": lambda b: [b["solution"]["Y"][""]], "snell": lambda b: [b["Y"][""]],
             "penalize": lambda b: [b["Y_increasing"][""], b["Y_decreasing"][""]]}

    @pytest.mark.parametrize("command", list(ROOTS))
    def test_children_near_the_float_limit_stay_finite(self, tmp_path, command):
        # up + down of two children at 1e308 overflows; the representation halves each child first
        cfg = markov_with(**{"problem.terminal.a": 1e308, "problem.barriers.upper.a": 1e308})
        code, out = run(tmp_path, command, cfg, "--format", "both")
        assert code == 0
        values = self.ROOTS[command](json.loads((out / "bundle.json").read_text()))
        assert np.all(np.isfinite(values))
        if command != "penalize":
            assert values == [1.0910255651078538]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_barrier_in_plot_table_exits_4(self, tmp_path, capsys):
        # the solution is finite, but plot.csv would print the upper barrier 1e308 + 1e308*t as inf
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["problem"]["barriers"]["upper"] = {"form": "affine-time", "a": 1e308, "b": 1e308}
        code, out = run(tmp_path, "solve", cfg, "--format", "csv")
        assert code == 4
        assert "solver error: plot.csv would hold a NaN or an infinity" in capsys.readouterr().err
        assert not out.exists()
