"""Batch command-line entry point.

Subcommands: ``solve`` (Picard solve, CSV solution + JSON metadata),
``lambda`` (smoothing-norm grid + blow-up fit), ``simulate`` (policy costs
and dominance report), ``check`` (invariant suite).  Exit codes: 0 ok,
1 config or usage error, 2 no contraction, 3 smoothing hypothesis
violated, 4 dominance violation, 5 invariant failure.

One failure protocol: the library raises on input it refuses and returns
computed outcomes as records; a command writes its files, then raises the
:class:`PshjbError` its outcome maps to, and only :func:`main` turns an
error into an exit code and one labelled stderr line, also under --quiet.

All numeric CSV output uses 17 significant digits so identical configs and
seeds reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .checks import run_invariant_suite
from .errors import (
    ConfigError,
    DominanceViolated,
    NoContraction,
    OutOfGrid,
    PshjbError,
    SmoothingViolated,
)
from .harness import Policy, random_open_loop_policies, value_dominance_check
from .hjb import check_horizon_cov, check_in_box, make_space_axes, picard_solve
from .smoothing import blowup_grid, fit_blowup

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONTRACTION = 2
EXIT_INCLUSION = 3
EXIT_DOMINANCE = 4
EXIT_INVARIANT = 5

FLOAT_FMT = "%.17g"
NO_MESH = np.empty((1, 0))      # the mesh of a table without mesh columns


def _write_csv(path: str, header: list[str], times, mesh, values) -> None:
    """Write a time x mesh table under ``header``, every value as FLOAT_FMT.

    ``times`` has shape (n_t,), ``mesh`` shape (P, N) and ``values``
    (n_t, P, k) entries; row (i, p) is times[i], mesh[p], values[i, p], in
    time-major order.  A table without mesh columns passes a (1, 0) mesh.
    The time and mesh columns are formatted once and each time slice's
    values on their own with one ``%``; the bytes are one FLOAT_FMT per value.
    """
    times, mesh = (np.asarray(a, dtype=float) for a in (times, mesh))
    cols = len(header) - 1 - mesh.shape[1]
    values = np.asarray(values, dtype=float).reshape(times.size, len(mesh) * cols)
    # every row of a slice but its time: the formatted mesh point, then
    # a FLOAT_FMT per value (a formatted number holds no "%")
    lead = (FLOAT_FMT + ",") * mesh.shape[1]
    tail = ",".join([FLOAT_FMT] * cols)
    body = [lead % tuple(y) + tail for y in mesh.tolist()]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t, vals in zip(times.tolist(), values):
            start = FLOAT_FMT % t + ","
            fh.write(start + ("\n" + start).join(body) % tuple(vals.tolist()) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _not_converged(sol, run: RunConfig, outcome: str) -> NoContraction:
    why = {"max_iter": "the iteration cap was reached",
           "growth": "the residual grew in the sup norm for 3 consecutive steps",
           "overflow": "the next iterate overflowed the float range"}
    return NoContraction(
        f"residual {sol.residual:.3e} above tol {run.solver.tol:.3e} after "
        f"{sol.iterations} iterations ({why[sol.diagnostics['stop']]}); {outcome}"
    )


def cmd_solve(args, run: RunConfig) -> None:
    sol = picard_solve(run.model, run.cost, run.solver)
    it = sol.iterate
    mesh = np.stack(
        [g.ravel() for g in np.meshgrid(*it.space_axes, indexing="ij")], axis=-1
    )
    n_pts, n_dim = mesh.shape
    n_t = it.time_grid.size
    m = it.control_dim
    # rows (t, y1..yN, f, fbar1..fbarM), time-major; fbar is zero at t = 0
    values = np.zeros((n_t, n_pts, 1 + m))
    values[..., 0] = it.f_values.reshape(n_t, n_pts)
    values[1:, :, 1:] = it.fbar_values.reshape(n_t - 1, n_pts, m)
    header = (
        ["t"]
        + [f"y{d + 1}" for d in range(n_dim)]
        + ["f"]
        + [f"fbar{k + 1}" for k in range(m)]
    )
    _write_csv(os.path.join(args.out_dir, "solution.csv"), header,
               it.time_grid, mesh, values)
    converged = sol.diagnostics["stop"] == "tol"
    meta = {
        "status": "ok" if converged else "no_contraction",
        "gamma": sol.gamma,
        "eta_weight": sol.eta_weight,
        "residual": sol.residual if sol.iterations else None,   # JSON has no inf
        "iterations": sol.iterations,
        "contraction_ratios": sol.contraction_estimates,
        "diagnostics": {
            k: v for k, v in sol.diagnostics.items() if k != "residual_history"
        },
        "residual_history": sol.diagnostics.get("residual_history", []),
    }
    _write_json(os.path.join(args.out_dir, "solve_meta.json"), meta)
    if not converged:
        raise _not_converged(sol, run, "the solve did not converge")
    _say(
        args,
        f"solved: residual {sol.residual:.3e} after {sol.iterations} iterations "
        f"(gamma={sol.gamma:.3f})",
    )


def cmd_lambda(args, run: RunConfig) -> None:
    fit = fit_blowup(run.model, blowup_grid(run.cost.horizon))
    _write_csv(os.path.join(args.out_dir, "lambda_norms.csv"), ["t", "norm"],
               fit.times, NO_MESH, fit.norms)
    _write_json(
        os.path.join(args.out_dir, "lambda_fit.json"),
        {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual": fit.residual,
            "gamma": fit.gamma,
            "gamma_in_range": fit.in_range,
        },
    )
    _say(args, f"fitted slope {fit.slope:.4f} (gamma {fit.gamma:.4f})")
    if not fit.in_range:
        raise SmoothingViolated(f"fitted blow-up exponent {fit.gamma:.3f} outside (0, 1)")


def _check_start(run: RunConfig) -> None:
    """Raise :class:`ConfigError` when the model's covariance overflows
    (:func:`check_horizon_cov`) or when the projected start, where the
    simulation reads the solved value, lies outside the solver's space box."""
    T = run.cost.horizon
    check_horizon_cov(run.model, T)
    y = np.asarray(run.model.proj_semigroup_apply(T - run.t0, run.x0), dtype=float)
    try:
        check_in_box(make_space_axes(run.model, run.solver, T), y)
    except OutOfGrid as exc:
        raise ConfigError(
            f"the simulated start lies outside the solver box: {exc}; "
            "widen solver.box_halfwidth"
        ) from None


def cmd_simulate(args, run: RunConfig) -> None:
    if args.policy == "none" and run.n_random_policies == 0:
        raise ConfigError(
            "simulate.n_random_policies is 0 and --policy is none: no policy to check"
        )
    _check_start(run)
    sol = picard_solve(run.model, run.cost, run.solver)
    if sol.diagnostics["stop"] != "tol":
        # dominance against an unconverged iterate would check nothing
        raise _not_converged(sol, run, "nothing simulated")
    policies = random_open_loop_policies(
        run.cost.ham, run.time_steps, run.n_random_policies, seed=run.seed
    )
    if args.policy == "greedy":
        policies.append(Policy.greedy(sol))
    elif args.policy == "constant":
        policies.append(Policy.open_loop(np.zeros(run.time_steps, dtype=int),
                                         name="constant"))
    report = value_dominance_check(
        run.model,
        run.cost,
        sol,
        policies,
        run.t0,
        run.x0,
        n_samples=run.n_samples,
        time_steps=run.time_steps,
        seed=run.seed,
    )
    k = len(report["policies"])
    sample_costs = np.array([p.pop("samples") for p in report["policies"]])
    _write_csv(os.path.join(args.out_dir, "simulate_samples.csv"),
               ["policy", "sample", "cost"],
               np.arange(k), np.arange(run.n_samples)[:, None], sample_costs)
    _write_json(os.path.join(args.out_dir, "simulate_report.json"), report)
    _write_csv(os.path.join(args.out_dir, "simulate_policies.csv"),
               ["policy", "mean", "std_error", "gap"], np.arange(k), NO_MESH,
               [[p["mean"], p["std_error"], p["gap"]] for p in report["policies"]])
    failing = [p for p in report["policies"] if not p["ok"]]
    if failing:
        raise DominanceViolated("; ".join(
            f"policy {p['name']!r}: value {report['value']:.6g} exceeds mean cost "
            f"{p['mean']:.6g} + 3 se ({3 * p['std_error']:.3g})" for p in failing))
    _say(args, f"value {report['value']:.6g}; dominance holds for all policies")
    if report["greedy_gap"] is not None:
        _say(args, f"greedy gap (diagnostic): {report['greedy_gap']:.4g}")


def cmd_check(args, run: RunConfig) -> None:
    # refused, as by solve and simulate, before any invariant reads it
    check_horizon_cov(run.model, run.cost.horizon)
    report = run_invariant_suite(run)
    _write_json(os.path.join(args.out_dir, "check_report.json"), report)
    for inv in report["invariants"]:
        _say(args, f"[{'ok' if inv['ok'] else 'FAIL'}] {inv['name']}: {inv['detail']}")
    if not report["ok"]:
        raise PshjbError(f"failing invariants: {', '.join(report['failing'])}")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the config-error code, not argparse's 2,
    which is the documented no-contraction code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="pshjb",
        description="HJB mild-solution solver for boundary/delayed control models",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", cmd_solve),
        ("lambda", cmd_lambda),
        ("simulate", cmd_simulate),
        ("check", cmd_check),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default=".")
        p.add_argument("--quiet", action="store_true")
        if name == "simulate":
            # the only command that draws at random
            p.add_argument("--seed", type=int, default=None)
            p.add_argument(
                "--policy", choices=["greedy", "constant", "none"], default="greedy"
            )
        p.set_defaults(func=fn, seed=None)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        run = load_config(args.config, seed_override=args.seed)
        args.func(args, run)
        return EXIT_OK
    except PshjbError as exc:
        # the most derived class of the exception that has an entry
        exits = {
            ConfigError: (EXIT_CONFIG, "config error"),
            NoContraction: (EXIT_NO_CONTRACTION, "no contraction"),
            SmoothingViolated: (EXIT_INCLUSION, "smoothing hypothesis violated"),
            DominanceViolated: (EXIT_DOMINANCE, "dominance violated"),
            PshjbError: (EXIT_INVARIANT, "error"),
        }
        code, label = next(exits[c] for c in type(exc).__mro__ if c in exits)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
