import copy
import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from pshjb import cli
from pshjb.cli import FLOAT_FMT, _write_csv, main


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
    return override(cfg, overrides)


def small_heat_config(**overrides):
    """:func:`small_delay_config` on a small heat model (m = 2, N = 2)."""
    cfg = small_delay_config()
    cfg["model"] = {"kind": "heat", "heat": {
        "n_modes": 64, "x0": {"kind": "smooth", "amplitude": 0.5, "decay": 2.0}}}
    cfg["cost"]["controls"] = {"points_per_dim": 3}
    cfg["cost"]["phi"] = {"kind": "tanh", "direction": [0.8, -0.5]}
    return override(cfg, overrides)


def override(cfg, overrides):
    """``cfg`` with each dotted key of ``overrides`` set to its value."""
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
        assert 0.0 <= meta["diagnostics"]["clamped_mass"] <= 1.0
        # node-iterates copied from settled sources, at most all but the first
        # iterate's
        copied = meta["diagnostics"]["copied_nodes"]
        assert 0 <= copied <= 16 * (meta["iterations"] - 1)
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

    @pytest.mark.parametrize("n_dim", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n_t, n_ax", [(4, 3), (1, 1)])
    def test_grid_writer_matches_row_writer(self, tmp_path, n_dim, m, n_t, n_ax):
        # the time x mesh writer gives the bytes of one FLOAT_FMT per value,
        # row by row, also for -0.0, the smallest subnormal, +-1e308 and
        # integral floats, and for tables without mesh columns (N = 0, the
        # (1, 0) mesh of lambda_norms.csv and simulate_policies.csv)
        rng = np.random.default_rng(10 * n_dim + m)
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                            3.0, -17.0, 2.0**60, 0.1])
        times = rng.permutation(np.concatenate((special, rng.random(4))))[:n_t]
        axes = [rng.permutation(special)[:n_ax] for _ in range(n_dim)]
        mesh = np.array(list(itertools.product(*axes)))       # (P, N), ij order
        values = rng.standard_normal((n_t, len(mesh), 1 + m))
        pick = rng.random(values.shape) < 0.5
        values[pick] = rng.choice(special, pick.sum())
        full = np.concatenate((
            np.broadcast_to(times[:, None, None], (n_t, len(mesh), 1)),
            np.broadcast_to(mesh, (n_t,) + mesh.shape), values), axis=-1)
        header = (["t"] + [f"y{d + 1}" for d in range(n_dim)] + ["f"]
                  + [f"fbar{k + 1}" for k in range(m)])
        want = ",".join(header) + "\n" + "".join(
            ",".join(FLOAT_FMT % v for v in row) + "\n"
            for row in full.reshape(-1, len(header)).tolist())
        path = tmp_path / "table.csv"
        _write_csv(str(path), header, times, mesh, values)
        assert path.read_bytes() == want.encode()
        assert len(want.splitlines()) == 1 + n_t * n_ax**n_dim

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

    def test_solve_does_not_depend_on_seed(self, tmp_path):
        # the solve draws nothing at random: the config seed reaches only
        # simulate
        path = os.path.join(os.path.dirname(__file__), "..", "bench", "workloads",
                            "delay.yaml")
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
        outs = []
        for seed in (1, 2):
            cfg["seed"] = seed
            out = tmp_path / str(seed)
            rc = main(["solve", "--config", write_config(tmp_path, cfg, f"{seed}.yaml"),
                       "--out-dir", str(out), "--quiet"])
            assert rc == 0
            outs.append([(out / name).read_bytes()
                         for name in ("solution.csv", "solve_meta.json")])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [
        [],                                              # no command
        ["solve"],                                       # no --config
        ["solve", "--config", "run.yaml", "--seed", "1"],  # simulate-only flag
        ["check", "--config", "run.yaml", "--bogus"],
    ])
    def test_usage_error_is_a_config_error(self, capsys, argv):
        # exit 1, not argparse's 2, which would read as "no contraction"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: pshjb") and "error: " in captured.err

    def test_tiny_max_iter_reports_residual(self, tmp_path, capsys):
        # the files are written, with the status of exit 2
        cfg = small_delay_config(**{"solver.max_iter": 1, "solver.tol": 1e-12})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["solve", "--config", path, "--out-dir", str(out)])
        assert rc == 2
        meta = json.loads((out / "solve_meta.json").read_text())
        assert meta["residual"] > 1e-12
        assert meta["status"] == "no_contraction"
        assert (out / "solution.csv").exists()
        captured = capsys.readouterr()
        assert captured.err.startswith("no contraction: ")
        assert "did not converge" in captured.err and captured.out == ""

    def test_unconverged_solve_is_not_simulated(self, tmp_path, capsys):
        # the rule of solve's exit 2: a residual above tol at the cap
        cfg = small_delay_config(**{"solver.max_iter": 1, "solver.tol": 1e-12})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("no contraction: ")
        assert os.listdir(out) == []


class TestExitCodes:
    @pytest.mark.parametrize("overrides, code, label", [
        ({"solver.gamma": 1.5}, 1, "config error: "),
        # enormous controls cannot contract in the sup norm
        ({"cost.controls": {"points": [[-60.0], [60.0]], "ell1": [0.0, 0.0]},
          "solver.gamma": 0.52}, 2, "no contraction: "),
        ({"model.delay.sigma": [[1.0, 0.0], [0.0, 0.0]],
          "model.delay.b0": [[0.0], [1.0]], "model.delay.atoms": []},
         3, "smoothing hypothesis violated: "),
    ])
    def test_code_and_stderr_label(self, tmp_path, capsys, overrides, code, label):
        path = write_config(tmp_path, small_delay_config(**overrides))
        out = tmp_path / "out"
        rc = main(["solve", "--config", path, "--out-dir", str(out), "--quiet"])
        captured = capsys.readouterr()
        assert rc == code
        assert captured.err.startswith(label) and captured.out == ""
        if code == 2:
            meta = json.loads((out / "solve_meta.json").read_text())
            assert meta["status"] == "no_contraction"
        else:
            assert not (out / "solve_meta.json").exists()


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
        # unknown keys: a misspelt or retired one would fall back to a default
        ("solver.eta", 1.0),
        ("solver.max_iters", 1),
        ("check", {"psd_probe": [[1.0]]}),
        # listed last so the generated ids of the cases above stay as they were
        ("simulate.n_random_policies", -3),
        ("solver.mc_samples", 4000),
        # a misspelt key in each section that has no solver/simulate prefix
        ("cost.horizn", 2.0),
        ("model.delay.atomz", []),
        ("model.delay.atoms", [{"location": -0.2, "wieght": [[0.4], [0.2]]}]),
        ("model.delay.x0", {"presnt": [0.3, -0.2]}),
        ("model.heet", {}),
        ("cost.controls.ell", [0.05, 0.0, 0.05]),
        ("cost.controls", {"points_per_dim": 3, "quadratic_wieght": 0.1}),
        ("cost.phi.scael", 1.0),
        ("cost.ell0.valu", 0.1),
        # shapes that would fail only inside the solve
        ("cost.phi", {"kind": "tanh"}),                      # direction [1.0], N = 2
        ("cost.ell0", {"kind": "table", "times": [0.0, 1.0]}),
        ("cost.ell0", {"kind": "table", "times": [0.0, 1.0], "values": [0.0]}),
        # an int key would truncate 4.7; a points grid with two running costs
        ("solver.n_time", 4.7),
        ("simulate.time_steps", 2.5),
        ("seed", 4.7),
        ("cost.controls.ell1", [0.0, 0.1]),
        # a retired key: the first time node is the constant hjb.T_MIN_FACTOR
        ("solver.t_min_factor", 1e-3),
        # a start of the wrong length and an ell0 table np.interp misreads
        ("model.delay.x0.present", [0.3, -0.2, 0.1]),
        ("cost.ell0", {"kind": "table", "times": [1.0, 0.0], "values": [0.0, 1.0]}),
        # an empty, reversed or unbounded space box and an unbounded horizon
        ("solver.box_halfwidth", 0.0),
        ("solver.box_halfwidth", -2.0),
        ("solver.box_halfwidth", float("nan")),
        ("solver.box_halfwidth", float("inf")),
        ("cost.horizon", float("inf")),
        # control grids that would fail mid-solve or in numpy
        ("cost.controls.ell1", [0.05, float("nan"), 0.05]),
        ("cost.controls.points", [[float("nan")], [0.0], [1.0]]),
        ("cost.controls.points", [[-1.0], [0.0], [float("inf")]]),
        ("cost.controls.points", [[-1.0], [0.0, 1.0], [1.0]]),      # ragged
        ("cost.controls", {"points_per_dim": 0}),
        # a non-finite float for a float key, in a tuple and in a start
        ("solver.tol", float("inf")),
        ("model.heat.beta", float("nan")),
        ("model.heat.alpha", float("nan")),
        ("cost.ell0.value", float("nan")),
        ("cost.phi.scale", float("nan")),
        ("cost.phi", {"kind": "smooth_indicator", "direction": [1.0, 1.0],
                      "sharpness": float("nan")}),
        ("cost.ell0", {"kind": "table", "times": [0.0, 1.0],
                       "values": [0.0, float("nan")]}),
        ("cost.controls", {"points_per_dim": 3, "hi": float("nan")}),
        ("model.delay.x0.present", [float("nan"), 0.0]),
        ("model.heat.x0.amplitude", float("nan")),
        ("model.heat.x0", {"coefficients": [float("nan")]}),
        # a non-number, a text entry or a ragged matrix in the delay section,
        # a kind that is no string and a model section that is no mapping
        ("model.delay.delay", "abc"),
        ("model.delay.atoms", [{"location": "x", "weight": [[0.4], [0.2]]}]),
        ("model.delay.a0", [[-0.3, "x"], [0.0, -0.2]]),
        ("model.delay.a0", [[-0.3, 0.1], [0.0]]),
        ("cost.phi.kind", [1, 2]),
        ("cost.ell0.kind", {"z": 1}),
        ("model", 7),
        # a string is no list of its digits, an integer too large for a
        # float and a YAML boolean are no numbers
        ("cost.phi.direction", "12"),
        pytest.param("cost.horizon", 10**400, id="cost.horizon-10**400"),
        ("simulate.n_random_policies", False),
        # an empty or reversed horizon
        ("cost.horizon", 0.0),
        ("cost.horizon", -1.0),
        # one sample has standard error 0
        ("simulate.n_samples", 1),
    ])
    def test_rejected_before_solve(self, tmp_path, capsys, key, value):
        build = small_heat_config if key.startswith("model.heat.") else small_delay_config
        path = write_config(tmp_path, build(**{key: value}))
        out = tmp_path / "out"
        command = "solve" if key.startswith("solver.") else "simulate"
        rc = main([command, "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert key.split(".")[-1] in err
        assert not (out / "solve_meta.json").exists()

    @pytest.mark.parametrize("heat, misspelt", [
        ({"n_mode": 8}, "n_mode"),
        ({"x0": {"kind": "smooth", "amplitud": 1.0}}, "amplitud"),
    ])
    def test_misspelt_heat_key_rejected(self, tmp_path, capsys, heat, misspelt):
        cfg = small_heat_config()
        cfg["model"]["heat"].update(heat)
        out = tmp_path / "out"
        rc = main(["solve", "--config", write_config(tmp_path, cfg),
                   "--out-dir", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown key {misspelt!r} in model.heat")
        assert not (out / "solve_meta.json").exists()

    def test_exponent_literals_are_numbers(self, tmp_path):
        # PyYAML reads 3e-1 and 4e0 (no dot) as strings
        from pshjb.config import load_config

        text = yaml.safe_dump(small_delay_config(
            **{"solver.gamma": "GAMMA", "solver.box_halfwidth": "BOX"}))
        path = tmp_path / "run.yaml"
        path.write_text(text.replace("GAMMA", "3e-1").replace("BOX", "4e0"))
        run = load_config(str(path))
        assert (run.solver.gamma, run.solver.box_halfwidth) == (0.3, 4.0)
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(path), "--out-dir", str(out), "--quiet"])
        assert rc == 0

    def test_integral_floats_read_as_ints(self, tmp_path):
        # only a non-integral value for an int key is an error
        from pshjb.config import load_config

        cfg = small_delay_config(**{"solver.n_time": 16.0, "simulate.time_steps": 10.0})
        run = load_config(write_config(tmp_path, cfg))
        assert run.solver.n_time == 16 and type(run.solver.n_time) is int
        assert run.time_steps == 10 and type(run.time_steps) is int

    @pytest.mark.parametrize("n_proj, need", [(3, "1.99 GB"), (4, "N = 4 is above 3")])
    def test_oversized_problem_rejected(self, tmp_path, capsys, monkeypatch,
                                        n_proj, need):
        # solver defaults: the sweep estimate at N = 3, the quadrature rule's
        # dimension cap at N = 4; both come from the sizes, so no operator
        # is built
        from pshjb import hjb

        def no_operator(*args, **kwargs):
            raise AssertionError("operator built for an oversized config")

        monkeypatch.setattr(hjb.UpsilonOperator, "__init__", no_operator)
        cfg = small_delay_config(solver={})
        cfg["model"] = {"kind": "heat", "heat": {"n_modes": 64, "n_proj": n_proj}}
        cfg["cost"]["controls"] = {"points_per_dim": 3}
        cfg["cost"]["phi"] = {"kind": "tanh", "direction": [1.0] * n_proj}
        out = tmp_path / "out"
        path = write_config(tmp_path, cfg)
        rc = main(["solve", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert (f"about {need} per" if n_proj == 3 else need) in err
        assert f"N = {n_proj}" in err
        assert not (out / "solve_meta.json").exists()

    def test_size_is_checked_only_by_a_solve(self, tmp_path):
        # the unprojected heat model (N = 8) is too large to solve, but the
        # blow-up diagnostic and the invariant suite never solve
        cfg = small_delay_config()
        cfg["model"] = {"kind": "heat",
                        "heat": {"n_modes": 8, "projection": "identity"}}
        cfg["cost"]["controls"] = {"points_per_dim": 3}
        cfg["cost"]["phi"] = {"kind": "tanh", "direction": [1.0] * 8}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["lambda", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 0
        assert (out / "lambda_fit.json").exists()
        rc = main(["check", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc != 1
        rc = main(["solve", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 1

    @pytest.mark.parametrize("command", ["solve", "simulate"])
    def test_nested_heat_start_rejected(self, tmp_path, capsys, command):
        # a list of lists of mode coefficients is no heat state; it fails at
        # load, before a solve, not in the projection after one
        cfg = small_delay_config()
        cfg["model"] = {"kind": "heat", "heat": {
            "n_modes": 16, "x0": {"kind": "modes", "coefficients": [[1.0, 0.5]]}}}
        cfg["cost"]["controls"] = {"points_per_dim": 3}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main([command, "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "model.heat.x0" in err
        assert not (out / "solve_meta.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("a0", [[float("nan"), 0.1], [0.0, -0.2]]),
        ("delay", float("inf")),
    ])
    def test_non_finite_delay_model_rejected(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, small_delay_config(**{f"model.delay.{key}": value}))
        out = tmp_path / "out"
        rc = main(["solve", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
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

    def test_violating_config_exits_3(self, tmp_path, capsys):
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
        # the fitted blow-up exponent (1.25) is outside (0, 1): the solve
        # refuses the model under the same label, and writes no status
        for command in ("solve", "simulate"):
            out = tmp_path / command
            rc = main([command, "--config", path, "--out-dir", str(out), "--quiet"])
            assert rc == 3
            assert capsys.readouterr().err.startswith(
                "smoothing hypothesis violated: fitted blow-up exponent 1.250")
            assert not (out / "solve_meta.json").exists()

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

    @pytest.mark.parametrize("kind", ["delay", "heat"])
    def test_one_time_step(self, tmp_path, kind):
        # a single step has no increment before the horizon
        build = small_heat_config if kind == "heat" else small_delay_config
        path = write_config(tmp_path, build(**{"simulate.time_steps": 1}))
        rc = main(["simulate", "--config", path, "--out-dir", str(tmp_path / "out"),
                   "--quiet"])
        assert rc == 0

    @pytest.mark.parametrize("policy, n_random", [("greedy", 3), ("none", 2)])
    def test_samples_file_matches_report(self, tmp_path, policy, n_random):
        cfg = small_delay_config(**{"simulate.n_random_policies": n_random})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out-dir", str(out), "--quiet",
                   "--policy", policy])
        assert rc == 0
        report = json.loads((out / "simulate_report.json").read_text())
        lines = (out / "simulate_samples.csv").read_text().splitlines()
        assert lines[0] == "policy,sample,cost"
        table = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        table = table.reshape(-1, 3)
        k, n = len(report["policies"]), cfg["simulate"]["n_samples"]
        assert k == n_random + (policy != "none")
        assert np.array_equal(table[:, 0], np.repeat(np.arange(k), n))
        assert np.array_equal(table[:, 1], np.tile(np.arange(n), k))
        # 17 significant digits round-trip: the report's statistics come
        # back exactly from the file's costs
        costs = table[:, 2].reshape(k, n).copy()
        for c, p in zip(costs, report["policies"]):
            assert c.mean() == p["mean"]
            assert c.std(ddof=1) / np.sqrt(n) == p["std_error"]

    @pytest.mark.parametrize("overrides, policy, key", [
        # no policy to check
        ({"simulate.n_random_policies": 0}, "none", "n_random_policies"),
        # a start outside a set box, and outside the automatic box of a
        # tiny horizon (+-6e-4 against the start (0.3, -0.2))
        ({"solver.box_halfwidth": 1e-6}, "greedy", "box_halfwidth"),
        ({"cost.horizon": 1e-8}, "greedy", "box_halfwidth"),
    ], ids=["no-policy", "box", "horizon"])
    def test_rejected_before_solve(self, tmp_path, capsys, monkeypatch,
                                   overrides, policy, key):
        solves = []
        monkeypatch.setattr(cli, "picard_solve", lambda *a: solves.append(a))
        path = write_config(tmp_path, small_delay_config(**overrides))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", path, "--out-dir", str(out), "--quiet",
                   "--policy", policy])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("config error: ") and key in err
        assert solves == [] and os.listdir(out) == []


SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs")
MODEL_INVARIANTS = [
    "control_image_inclusion",
    "blowup_exponent_in_range",
    "lambda_norm_continuity",
    "gramian_monotone",
    "kalman_rank_full",
]


class TestCheck:
    @pytest.mark.parametrize("name", ["heat.yaml", "delay.yaml"])
    def test_passes_on_shipped_configs(self, tmp_path, name):
        out = tmp_path / "out"
        path = os.path.join(SHIPPED, name)
        rc = main(["check", "--config", path, "--out-dir", str(out), "--quiet"])
        report = json.loads((out / "check_report.json").read_text())
        assert [inv["name"] for inv in report["invariants"]] == MODEL_INVARIANTS
        assert rc == 0, report["failing"]

    def test_hidden_atom_breaks_continuity(self):
        # without its excluded window the delay atom's jump in Lambda(t)
        # survives the bisection of large steps
        from pshjb.checks import run_invariant_suite
        from pshjb.config import load_config

        run = load_config(os.path.join(SHIPPED, "delay.yaml"), force_model=True)
        run.model.control_discontinuities = ()
        assert run_invariant_suite(run)["failing"] == ["lambda_norm_continuity"]

    def test_passes_on_defaults(self, tmp_path):
        cfg = small_delay_config()
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["check", "--config", path, "--out-dir", str(out), "--quiet"])
        assert rc == 0
        report = json.loads((out / "check_report.json").read_text())
        assert report["ok"]

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


BENCH_GRIDS = {"n_time": 20, "space_points": 21, "quad_order": 5, "time_quad_order": 6}


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["heat.yaml", "delay.yaml"])
    def test_shipped_configs_parse(self, name):
        from pshjb.config import load_config

        path = os.path.join(os.path.dirname(__file__), "..", "configs", name)
        run = load_config(path)
        assert run.cost.horizon == 1.0
        assert run.model.proj_dim == 2
        assert run.solver.space_points == 41

    @pytest.mark.parametrize("path, grids", [
        ("configs/heat.yaml", {}),
        ("configs/delay.yaml", {}),
        ("bench/workloads/heat.yaml", BENCH_GRIDS),
        ("bench/workloads/delay.yaml", BENCH_GRIDS),
    ])
    def test_sections_build_explicit_configs(self, path, grids):
        # every default comes from the dataclass, so the configs read as
        # the dataclasses built with their keys
        from pshjb.config import load_config
        from pshjb.heat import HeatConfig
        from pshjb.hjb import SolverConfig

        run = load_config(os.path.join(os.path.dirname(__file__), "..", path))
        assert run.cost.horizon == 1.0
        assert run.solver == SolverConfig(
            tol=1e-4, max_iter=30,
            **{"n_time": 40, "space_points": 41, **grids},
        )
        if run.model_kind == "heat":
            assert run.model.cfg == HeatConfig(
                n_modes=256, beta=0.0, epsilon=0.01, alpha=1.0, n_proj=2,
                projection="bumps",
            )

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

    def test_every_bad_value_is_a_config_error(self, monkeypatch):
        # each node of both shipped configs in turn replaced by a value of
        # another type, a non-number, a non-finite value or null: the load
        # either returns or raises ConfigError, never a raw numpy or Python
        # error; the dicts go to load_config in place of yaml.safe_load
        from pshjb import config
        from pshjb.errors import ConfigError

        def nodes(tree, at=()):
            items = tree.items() if isinstance(tree, dict) else (
                enumerate(tree) if isinstance(tree, list) else ())
            for key, sub in items:
                yield at + (key,)
                yield from nodes(sub, at + (key,))

        bases = {}
        for name in ("heat.yaml", "delay.yaml"):
            with open(os.path.join(SHIPPED, name)) as fh:
                bases[name] = yaml.safe_load(fh)
        escaped, loads = [], 0
        for name, base in bases.items():
            path = os.path.join(SHIPPED, name)
            for at in nodes(base):
                for bad in ("abc", [1.0, 2.0], {"z": 1}, float("nan"), None, 7):
                    raw = copy.deepcopy(base)
                    node = raw
                    for key in at[:-1]:
                        node = node[key]
                    node[at[-1]] = bad
                    monkeypatch.setattr(config.yaml, "safe_load", lambda fh, raw=raw: raw)
                    loads += 1
                    try:
                        config.load_config(path)
                    except ConfigError:
                        pass
                    except Exception as exc:   # noqa: BLE001 - the escape is the failure
                        escaped.append(f"{name} {at} = {bad!r}: {exc!r}")
        assert loads == 810
        assert escaped == [], f"{len(escaped)} escaped: " + "; ".join(escaped[:5])

    def test_table_ell0_config(self, tmp_path):
        from pshjb.config import load_config

        cfg = small_delay_config()
        cfg["cost"]["ell0"] = {"kind": "table", "times": [0.0, 1.0],
                               "values": [0.0, 2.0]}
        run = load_config(write_config(tmp_path, cfg))
        assert abs(run.cost.ell0_integral(0.0, 1.0) - 1.0) <= 1e-9


class TestImportGraph:
    """No shipped config loads scipy: it is a test-only dependency."""

    SCRIPT = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import pshjb.cli\n"
        "from pshjb.config import load_config\n"
        "after_import = scipy_modules()\n"
        "load_config(sys.argv[1])\n"
        "print(json.dumps([after_import, scipy_modules()]))\n"
    )

    def scipy_modules(self, name):
        root = os.path.join(os.path.dirname(__file__), "..")
        path = [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, os.path.join(root, "configs", name)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        return json.loads(proc.stdout)

    def test_heat_config_imports_no_scipy(self):
        assert self.scipy_modules("heat.yaml") == [[], []]

    def test_delay_config_imports_no_scipy(self):
        assert self.scipy_modules("delay.yaml") == [[], []]
