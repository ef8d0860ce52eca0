import json
import os

import pytest
import yaml

from pshjb.cli import main


def small_delay_config(**overrides):
    cfg = {
        "seed": 99,
        "model": {
            "kind": "delay",
            "delay": {
                "a0": [[-0.3, 0.1], [0.0, -0.2]],
                "b0": [[1.0], [0.5]],
                "sigma": [[1.0, 0.0], [0.0, 1.0]],
                "delay": 0.2,
                "atoms": [{"location": -0.2, "weight": [[0.4], [0.2]]}],
                "x0": {"present": [0.3, -0.2]},
            },
        },
        "cost": {
            "horizon": 1.0,
            "ell0": {"kind": "constant", "value": 0.1},
            "controls": {
                "points": [[-1.0], [0.0], [1.0]],
                "ell1": [0.05, 0.0, 0.05],
            },
            "phi": {"kind": "tanh", "direction": [1.0, 1.0], "scale": 1.0},
        },
        "solver": {
            "tol": 1.0e-4,
            "max_iter": 25,
            "n_time": 16,
            "space_points": 21,
            "quad_order": 5,
            "time_quad_order": 6,
        },
        "simulate": {"n_samples": 400, "time_steps": 10, "n_random_policies": 3},
    }
    for key, val in overrides.items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node[p]
        node[parts[-1]] = val
    return cfg


def write_config(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestSolve:
    def test_solve_writes_outputs(self, tmp_path):
        path = write_config(tmp_path, small_delay_config())
        out = tmp_path / "out"
        rc = main(["solve", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 0
        meta = json.loads((out / "solve_meta.json").read_text())
        assert meta["status"] == "ok"
        assert meta["residual"] <= 1e-4
        assert (out / "solution.csv").exists()

    def test_solution_csv_reproducible(self, tmp_path):
        path = write_config(tmp_path, small_delay_config())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["solve", "--config", path, "--out-dir", str(out), "--quiet"])
            assert rc == 0
            outs.append((out / "solution.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_gamma_rejected(self, tmp_path):
        cfg = small_delay_config(**{"solver.gamma": 1.5})
        path = write_config(tmp_path, cfg)
        rc = main(["solve", "--config", path, "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 1

    def test_unreadable_config(self, tmp_path):
        rc = main(
            ["solve", "--config", str(tmp_path / "missing.yaml"),
             "--out-dir", str(tmp_path), "--quiet"]
        )
        assert rc == 1

    def test_tiny_max_iter_reports_residual(self, tmp_path):
        cfg = small_delay_config(**{"solver.max_iter": 1, "solver.tol": 1e-12})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["solve", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 2
        meta = json.loads((out / "solve_meta.json").read_text())
        assert meta["residual"] > 1e-12


class TestInvalidConfig:
    @pytest.mark.parametrize("key, value", [
        ("solver.space_points", 1),
        ("solver.n_time", 0),
        ("solver.max_iter", 0),
        ("solver.quad_order", 0),
        ("solver.time_quad_order", 0),
        ("simulate.t0", 1.0),           # = horizon
        ("simulate.t0", -0.1),
        ("simulate.time_steps", 0),
        ("simulate.n_samples", 0),
    ])
    def test_rejected_before_solve(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, small_delay_config(**{key: value}))
        out = tmp_path / "out"
        command = "solve" if key.startswith("solver.") else "simulate"
        rc = main([command, "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert key.split(".")[1] in err
        assert not (out / "solve_meta.json").exists()


class TestLambda:
    def test_delay_slope(self, tmp_path):
        path = write_config(tmp_path, small_delay_config())
        out = tmp_path / "out"
        rc = main(["lambda", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 0
        fit = json.loads((out / "lambda_fit.json").read_text())
        assert abs(fit["slope"] + 0.5) <= 0.02
        rows = (out / "lambda_norms.csv").read_text().strip().splitlines()
        assert rows[0] == "t,norm"
        assert len(rows) == 21

    def test_heat_slope_in_range(self, tmp_path):
        cfg = small_delay_config()
        cfg["model"] = {
            "kind": "heat",
            "heat": {"n_modes": 128, "n_proj": 2, "projection": "bumps"},
        }
        cfg["cost"]["controls"] = {
            "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "ell1": [0.0, 0.05, 0.05],
        }
        cfg["cost"]["phi"]["direction"] = [0.8, -0.5]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["lambda", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 0
        fit = json.loads((out / "lambda_fit.json").read_text())
        assert -1.0 < fit["slope"] < 0.0

    def test_violating_config_exits_3(self, tmp_path):
        cfg = small_delay_config()
        cfg["model"] = {
            "kind": "heat",
            "heat": {"n_modes": 128, "n_proj": 2, "projection": "slow"},
        }
        cfg["cost"]["controls"] = {
            "points": [[0.0, 0.0], [1.0, 0.0]],
            "ell1": [0.0, 0.05],
        }
        cfg["cost"]["phi"]["direction"] = [0.8, -0.5]
        path = write_config(tmp_path, cfg)
        rc = main(["lambda", "--config", path, "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 3

    def test_rank_deficient_delay_exits_3(self, tmp_path):
        cfg = small_delay_config(
            **{
                "model.delay.sigma": [[1.0, 0.0], [0.0, 0.0]],
                "model.delay.b0": [[0.0], [1.0]],
                "model.delay.atoms": [],
            }
        )
        path = write_config(tmp_path, cfg)
        rc = main(["lambda", "--config", path, "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 3


class TestSimulate:
    def test_simulate_report(self, tmp_path):
        path = write_config(tmp_path, small_delay_config())
        out = tmp_path / "out"
        rc = main(
            ["simulate", "--config", path, "--out-dir", str(out), "--quiet",
             "--policy", "greedy"]
        )
        assert rc == 0
        report = json.loads((out / "simulate_report.json").read_text())
        assert all(p["ok"] for p in report["policies"])
        assert report["greedy_gap"] is not None
        assert (out / "simulate_policies.csv").exists()


class TestCheck:
    def test_passes_on_defaults(self, tmp_path):
        cfg = small_delay_config()
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["check", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["ok"]

    def test_fails_on_injected_psd_violation(self, tmp_path):
        cfg = small_delay_config()
        cfg["check"] = {"psd_probe": [[1.0, 2.0], [2.0, 1.0]]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["check", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 5
        report = json.loads((out / "check_report.json").read_text())
        assert "psd_probe" in report["failing"]

    def test_fails_on_rank_deficient_delay(self, tmp_path):
        cfg = small_delay_config(
            **{
                "model.delay.sigma": [[1.0, 0.0], [0.0, 0.0]],
                "model.delay.b0": [[0.0], [1.0]],
                "model.delay.atoms": [],
            }
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["check", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 5
        report = json.loads((out / "check_report.json").read_text())
        assert "kalman_rank_full" in report["failing"]


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["heat.yaml", "delay.yaml"])
    def test_shipped_configs_parse(self, name):
        from pshjb.config import load_config

        path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
        run = load_config(path)
        assert run.cost.horizon == 1.0
        assert run.model.proj_dim == 2
        assert run.solver.space_points == 41

    def test_heat_modal_state_and_phi_kinds(self, tmp_path):
        from pshjb.config import load_config

        cfg = small_delay_config()
        cfg["model"] = {
            "kind": "heat",
            "heat": {
                "n_modes": 64,
                "n_proj": 2,
                "x0": {"kind": "modes", "coefficients": [0.5, -0.2]},
            },
        }
        cfg["cost"]["controls"] = {"lo": -1.0, "hi": 1.0, "points_per_dim": 3,
                                   "quadratic_weight": 0.05}
        cfg["cost"]["phi"] = {"kind": "gauss_bump", "center": [0.0, 0.0],
                              "width": 0.8, "scale": 1.5}
        run = load_config(write_config(tmp_path, cfg))
        assert run.x0.shape == (64,)
        assert run.x0[0] == 0.5 and run.x0[2] == 0.0
        assert run.cost.ham.control_points.shape == (9, 2)
        assert run.cost.phi.bound == 1.5

    def test_table_ell0_config(self, tmp_path):
        from pshjb.config import load_config

        cfg = small_delay_config()
        cfg["cost"]["ell0"] = {"kind": "table", "times": [0.0, 1.0],
                               "values": [0.0, 2.0]}
        run = load_config(write_config(tmp_path, cfg))
        assert abs(run.cost.ell0_integral(0.0, 1.0) - 1.0) <= 1e-9
