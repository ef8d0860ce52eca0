#!/usr/bin/env python3
"""Regenerate the stored references of the benchmark checks.

Run from the repository root:

    python3 bench/make_reference.py [heat] [delay]

For each model it runs ``pshjb solve`` on bench/workloads/<model>.yaml and
stores in bench/reference/<model>.npz the time grid, space axes, ``f`` and
``fbar`` columns of solution.csv, the iteration count and v(0, x0), plus the
mean and standard error of the greedy policy's cost over GREEDY_ROUNDS
rounds of 200 000 samples.  The solve does not depend on the seed.  Only
regenerate for a stated and justified change of the numbers.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import run as bench

GREEDY_ROUNDS = 20
GREEDY_SEED = 10**9


def make(model: str):
    pshjb = bench.import_pshjb()
    from pshjb import cli, config, harness, hjb

    cfg = bench.config_path(model)
    out = bench.OUT / f"reference-{model}"
    rc = cli.main(["solve", "--config", cfg, "--out-dir", str(out), "--quiet"])
    if rc != 0:
        raise SystemExit(f"{model}: solve exited {rc}")
    run = config.load_config(cfg)
    with open(out / "solve_meta.json") as fh:
        meta = json.load(fh)
    data = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
    shutil.rmtree(out)
    n_dim = run.model.proj_dim
    time_grid = np.unique(data[:, 0])
    axes = np.stack([np.unique(data[:, 1 + d]) for d in range(n_dim)])
    npts = data.shape[0] // time_grid.size
    ref = {
        "time_grid": time_grid,
        "axes": axes,
        "f": data[:, 1 + n_dim],
        "fbar": data[npts:, 2 + n_dim:],
        "iterations": np.int64(meta["iterations"]),
    }
    sol = bench.solution_from_csv(hjb, data, time_grid, axes, meta, run.cost.phi)
    ref["value"] = np.float64(hjb.eval_value(sol, run.model, run.t0, run.x0))
    costs = np.concatenate([
        harness.simulate_cost(
            run.model, run.cost, harness.Policy.greedy(sol), run.t0, run.x0,
            bench.POLICY_SAMPLES, run.time_steps, GREEDY_SEED + r,
        ).sample_costs
        for r in range(GREEDY_ROUNDS)
    ])
    ref["greedy_mean"] = np.float64(costs.mean())
    ref["greedy_se"] = np.float64(costs.std(ddof=1) / np.sqrt(costs.size))
    np.savez_compressed(bench.BENCH / "reference" / f"{model}.npz", **ref)
    print(f"{model}: iterations {meta['iterations']}, v(0, x0) {ref['value']!r}, "
          f"greedy {ref['greedy_mean']:.6f} +- {ref['greedy_se']:.2g} "
          f"({pshjb.__name__} from {pshjb.__file__})")


if __name__ == "__main__":
    for name in sys.argv[1:] or ["heat", "delay"]:
        make(name)
