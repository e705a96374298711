import json
from pathlib import Path

import numpy as np
import pytest

from treebsde import cli, node_id_table, solve_one_barrier

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
        assert cli.main(["solve", "--config", cfg_path, "--out", str(out2),
                         "--workers", "4"]) == 0
        assert (out1 / "bundle.json").read_bytes() == (out2 / "bundle.json").read_bytes()

    def test_metadata_written(self, tmp_path):
        code, out = run(tmp_path, "solve", MINIMAL)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["command"] == "solve"
        assert len(meta["config_sha256"]) == 64
        assert meta["wall_time_seconds"] >= 0.0

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
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["problem"]["generator"] = {
            "form": "affine", "params": {"a0": 0.0, "b": 0.3}, "lipschitz": 0.3,
        }
        code, out = run(tmp_path, "solve", cfg)
        assert code == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["iteration_trace"][-1] < 1e-10


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
        ("solver", "max_iter", 2.5),
    ])
    def test_non_integral_integers_rejected(self, tmp_path, capsys, section, key, value):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["problem"]["generator"] = {"form": "affine", "params": {"b": 0.3}, "lipschitz": 0.3}
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
        ("solve", {"solver": {"tol": "x"}}, "solver.tol"),
        ("solve", {"solver": {"alpha": "x"}}, "solver.alpha"),
        ("penalize", {"solver": {"schedule": [4, 2]}}, "solver.schedule"),
        ("penalize", {"solver": {"schedule": []}}, "solver.schedule"),
        ("penalize", {"solver": {"schedule": [1, "x"]}}, "solver.schedule[1]"),
    ])
    def test_bad_values_exit_2_with_key_path(self, tmp_path, capsys, command, patch, path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["grid"]["steps"] = 2
        # a solution-dependent generator, so that solve runs Picard and reads tol/alpha
        cfg["problem"]["generator"] = {"form": "affine", "params": {"b": 0.3}, "lipschitz": 0.3}
        cfg.update(patch)
        code, out = run(tmp_path, command, cfg)
        assert code == 2
        assert f"config error at {path}:" in capsys.readouterr().err
        assert not (out / "bundle.json").exists()

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

    def test_snell(self, tmp_path):
        code, out = run(tmp_path, "snell", MINIMAL)
        assert code == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["side"] == "upper"
        assert bundle["Y"][""] == 1.0

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
            assert bundle[key] == cli._by_node(ids, values)
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
        code, _ = run(tmp_path, "solve", cfg, "--node-cap", "10")
        assert code == 4
