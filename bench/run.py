#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pshjb Picard solve and policy
evaluation.

Run from the repository root:

    python3 bench/run.py --workload heat-solve --seed 1 --seconds 10 --trace 0

Workloads (inputs in bench/workloads/: the shipped configs with the solver
grids reduced to the test suite's mini grid; gamma and eta on auto):

  heat-solve        repeated ``pshjb solve`` on the heat model (m = 2);
                    nearly all time is in the Picard ``apply``.
  delay-solve       repeated ``pshjb solve`` on the delay model (m = 1);
                    the model layer (Gramian, expm) does real work.
  heat-policy-eval  one heat solve in set-up, then repeated rounds of
                    ``harness.simulate_cost`` for the seeded random open-loop
                    policies plus the greedy policy; no Picard ``apply``.

Each solve workload ends with a short policy evaluation of its own solution,
so that every workload reports every end-to-end metric.

``--trace 0`` reports the end-to-end metrics (tracing off), with operation
times in host-speed seconds: wall time scaled by a calibration kernel
sampled during the operation (bench/host_speed.py), which takes the host's
drift out of them.  ``--trace 1`` is a separate run that wraps the public
functions of each layer (see bench/tracing.py) around the workload's main
operations and reports per-layer counts and wall times per operation.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every operation is checked: a solve must exit 0, reach the tolerance in the
reference number of iterations, and reproduce the reference ``f``/``fbar``
and v(0, x0) within 1e-12; a policy mean must lie within a few standard
errors of its reference (exact Gaussian expectation for open-loop policies,
a large stored Monte Carlo run for the greedy one).  A mismatch counts as a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread unless the caller chose otherwise: on two cores the
# program's BLAS-threaded phases (greedy sampling, small solver products) ran
# 1.5 to 3 times slower whenever the other core was busy, which made run
# times depend on neighbours more than on the program.  Set before numpy is
# imported, so it also holds for the set-up probes, which inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from host_speed import HostSpeed  # noqa: E402
from tracing import Tracer, install_layers, span_cost_s  # noqa: E402

WORKLOADS = {            # name -> (model config, main operation)
    "heat-solve": ("heat", "solve"),
    "delay-solve": ("delay", "solve"),
    "heat-policy-eval": ("heat", "policy"),
}
POLICY_SAMPLES = 200_000   # per policy in a round
MIN_SOLVES = 2             # solves per run of a solve workload, at least
PRESOLVES = 1              # heat-policy-eval set-up solves (median reported)
SETUP_REPEATS = 5
VALUE_TOL = 1e-12          # f/fbar and v(0, x0) against the reference
SE_LIMIT = 5.0             # policy means against the reference, in se
PER_LAYER = [            # (metric, unit) reported by --trace 1
    ("hjb.apply.calls", "count"), ("hjb.apply.busy_s", "s"),
    ("hjb.apply.self_s", "s"),
    ("hjb.interp.calls", "count"), ("hjb.interp.points", "count"),
    ("hjb.interp.busy_s", "s"),
    ("hjb.hamiltonian.calls", "count"), ("hjb.hamiltonian.busy_s", "s"),
    ("hjb.assemble.busy_s", "s"), ("hjb.assemble.self_s", "s"),
    ("hjb.eta_select.busy_s", "s"), ("hjb.eta_select.applies", "count"),
    ("hjb.picard.iterations", "count"), ("hjb.picard.useful_apply_ratio", "1"),
    ("hjb.picard_solve.busy_s", "s"), ("hjb.picard_solve.self_s", "s"),
    ("hjb.interp_fbar.calls", "count"), ("hjb.interp_fbar.busy_s", "s"),
    ("hjb.h_min_batch.calls", "count"), ("hjb.h_min_batch.busy_s", "s"),
    ("model.proj_cov.calls", "count"), ("model.proj_cov.busy_s", "s"),
    ("model.pushforward_cov.calls", "count"),
    ("model.pushforward_cov.busy_s", "s"),
    ("model.proj_control.calls", "count"), ("model.proj_control.busy_s", "s"),
    ("delay.gramian.calls", "count"), ("delay.gramian.busy_s", "s"),
    ("delay.expm.calls", "count"),
    ("smoothing.fit_blowup.busy_s", "s"),
    ("spectral.psd_sqrt.calls", "count"), ("spectral.psd_sqrt.busy_s", "s"),
    ("spectral.psd_pinv_sqrt.calls", "count"),
    ("spectral.psd_pinv_sqrt.busy_s", "s"),
    ("ou.sample_block_gaussian.busy_s", "s"),
    ("harness.control_integrals.busy_s", "s"),
    ("harness.simulate_cost.open_loop.busy_s", "s"),
    ("harness.simulate_cost.greedy.busy_s", "s"),
    ("cli.write.busy_s", "s"), ("cli.write.bytes", "B"),
    ("config.load.busy_s", "s"),
    ("dominance.greedy_margin_se", "se"),
    ("trace.op_s", "s"), ("trace.spans", "count"), ("trace.overhead_s", "s"),
]


def config_path(model: str) -> str:
    return str(BENCH / "workloads" / f"{model}.yaml")


def import_pshjb():
    """Import pshjb from this checkout's ``src`` (never an installed copy)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pshjb

    if src not in Path(pshjb.__file__).resolve().parents:
        raise ImportError(f"pshjb imported from {pshjb.__file__}, not {src}")
    return pshjb


def solution_from_csv(hjb, data, time_grid, axes, meta: dict, phi):
    """The solution of a ``pshjb solve`` rebuilt from its solution.csv rows
    (t, y..., f, fbar...) and solve_meta.json."""
    n_dim, n_ax = axes.shape
    shape = (n_ax,) * n_dim
    m = data.shape[1] - 2 - n_dim
    iterate = hjb.ValueIterate(
        time_grid=time_grid,
        space_axes=tuple(axes),
        f_values=data[:, 1 + n_dim].reshape((time_grid.size,) + shape),
        fbar_values=data[n_ax**n_dim:, 2 + n_dim:].reshape(
            (time_grid.size - 1,) + shape + (m,)),
        gamma=meta["gamma"],
    )
    return hjb.HJBSolution(
        iterate=iterate, residual=meta["residual"],
        contraction_estimates=meta["contraction_ratios"],
        iterations=meta["iterations"], eta_weight=meta["eta_weight"],
        gamma=meta["gamma"], phi=phi,
    )


def probe_seconds(model: str) -> float:
    """Host-speed time of one set-up in a fresh process (bench/probe.py):
    imports, config, model."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), config_path(model), repr(t0)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.splitlines()[-1])


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (a
    checkout without .git has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 2 has no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# references and output checks

class Checker:
    """Stored reference of one model plus exact open-loop policy means."""

    def __init__(self, pshjb, model: str, run):
        from numpy.polynomial.hermite_e import hermegauss
        from scipy.integrate import quad, quad_vec

        self.pshjb = pshjb
        self.run = run
        with np.load(BENCH / "reference" / f"{model}.npz") as ref:
            self.ref = {k: ref[k] for k in ref.files}

        # Open-loop policy cost, exactly: the projected terminal state is
        # Gaussian around z_det + sum_j B_j u_j with covariance proj_cov(T).
        # B_j by adaptive quadrature of the control response, E[phi] by a
        # tensor Gauss-Hermite rule.
        mdl, cost, T, t0 = run.model, run.cost, run.cost.horizon, run.t0
        self.steps = np.linspace(t0, T, run.time_steps + 1)
        self.b_ints = []
        for lo, hi in zip(self.steps[:-1], self.steps[1:]):
            cuts = [T - d for d in mdl.control_discontinuities if lo < T - d < hi]
            val, _ = quad_vec(lambda s: mdl.proj_control(T - s), lo, hi,
                              epsabs=1e-13, epsrel=1e-12, points=cuts or None)
            self.b_ints.append(val)
        self.ell0 = quad(lambda s: float(np.asarray(cost.ell0(np.array([s])))[0]),
                         t0, T, epsabs=1e-13)[0]
        lam, vec = np.linalg.eigh(mdl.proj_cov(T - t0))
        x, w = hermegauss(40)
        dims = [x] * mdl.proj_dim
        xi = np.stack([g.ravel() for g in np.meshgrid(*dims, indexing="ij")], -1)
        gw = np.prod(np.meshgrid(*([w] * mdl.proj_dim), indexing="ij"), 0).ravel()
        self.gh_points = xi @ (vec * np.sqrt(np.clip(lam, 0.0, None))).T
        self.gh_weights = gw / gw.sum()
        self.z_det = np.asarray(mdl.proj_semigroup_apply(T - t0, run.x0))

    def solve(self, rc: int, out_dir: Path):
        """Check one ``pshjb solve``; returns (ok, reconstructed solution)."""
        hjb, ref = self.pshjb.hjb, self.ref
        if rc != 0:
            return self._fail(f"exit code {rc}"), None
        with open(out_dir / "solve_meta.json") as fh:
            meta = json.load(fh)
        if not meta["residual"] <= self.run.solver.tol:
            return self._fail(f"residual {meta['residual']}"), None
        if meta["iterations"] != int(ref["iterations"]):
            return self._fail(f"{meta['iterations']} iterations"), None
        data = np.loadtxt(out_dir / "solution.csv", delimiter=",", skiprows=1,
                          ndmin=2)
        axes = ref["axes"]
        n_dim, m = axes.shape[0], ref["fbar"].shape[-1]
        n_t1 = ref["time_grid"].size
        npts = axes.shape[1] ** n_dim
        if data.shape != (n_t1 * npts, 2 + n_dim + m):
            return self._fail(f"solution.csv shape {data.shape}"), None
        mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], -1)
        diffs = {
            "t": data[:, 0] - np.repeat(ref["time_grid"], npts),
            "y": data[:, 1:1 + n_dim] - np.tile(mesh, (n_t1, 1)),
            "f": data[:, 1 + n_dim] - ref["f"],
            "fbar": data[npts:, 2 + n_dim:] - ref["fbar"],
        }
        for key, d in diffs.items():
            if np.abs(d).max() > VALUE_TOL:
                return self._fail(f"{key} off by {np.abs(d).max():.3g}"), None
        sol = solution_from_csv(hjb, data, ref["time_grid"], axes, meta,
                                self.run.cost.phi)
        value = hjb.eval_value(sol, self.run.model, self.run.t0, self.run.x0)
        if abs(value - float(ref["value"])) > VALUE_TOL:
            return self._fail(f"v(0, x0) = {value!r}"), None
        return True, sol

    def policy_refs(self, policies) -> list[tuple[float, float]]:
        """(mean, se) reference per policy."""
        out = []
        for pol in policies:
            if pol.kind == "greedy":
                out.append((float(self.ref["greedy_mean"]),
                            float(self.ref["greedy_se"])))
            else:
                out.append((self._open_loop_mean(pol.indices), 0.0))
        return out

    def _open_loop_mean(self, idx) -> float:
        cost = self.run.cost
        u = cost.ham.control_points[idx]
        mean = self.z_det + sum(b @ uj for b, uj in zip(self.b_ints, u))
        dt = self.steps[1] - self.steps[0]
        return (self.ell0 + float(cost.ham.running_cost[idx].sum() * dt)
                + float(self.gh_weights @ cost.phi(mean[None, :] + self.gh_points)))

    def policy(self, res, ref) -> bool:
        mean, se = ref
        tol = SE_LIMIT * (res.std_error**2 + se**2) ** 0.5
        if abs(res.mean - mean) > tol:
            return self._fail(f"policy mean {res.mean} vs reference {mean}")
        return True

    @staticmethod
    def _fail(msg: str) -> bool:
        print(f"check failed: {msg}", file=sys.stderr)
        return False


# ---------------------------------------------------------------------------
# the workloads

class Bench:
    def __init__(self, args):
        self.args = args
        self.model, self.kind = WORKLOADS[args.workload]
        self.cfg = config_path(self.model)
        self.out = OUT / f"{args.workload}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        # Times are host-speed times (see bench/host_speed.py) in untraced
        # runs and wall times in traced runs; op_wall_s holds wall times.
        self.solve_s: list[float] = []     # every timed solve
        self.op_s: list[float] = []        # the workload's main operations
        self.op_wall_s: list[float] = []
        self.speed: list[float] = []       # host speed factor per operation
        self.rate: list[float] = []        # policy samples per second, per round
        self.margin: list[float] = []      # (v(0, x0) - greedy mean) / se
        self.tracer = Tracer() if args.trace else None
        self.clock = None if args.trace else HostSpeed()

    def record(self, ok: bool):
        self.attempted += 1
        self.failed += not ok

    def setup(self):
        self.pshjb = import_pshjb()
        from pshjb import cli, config, harness

        self.cli, self.harness = cli, harness
        self.run = config.load_config(self.cfg, seed_override=self.args.seed)
        self.check = Checker(self.pshjb, self.model, self.run)
        self.seeds = np.random.default_rng(self.args.seed)   # policy rounds
        self.out.mkdir(parents=True, exist_ok=True)

    def warm_up(self):
        """A tiny solve of the same model, so lazy imports and first-call
        costs stay out of the timed operations."""
        import yaml

        with open(self.cfg) as fh:
            raw = yaml.safe_load(fh)
        raw["solver"].update(n_time=4, space_points=5, quad_order=3,
                             time_quad_order=2)
        path = self.out / "warm_up.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(raw, fh)
        self.cli.main(["solve", "--config", str(path), "--out-dir",
                       str(self.out / "warm_up"), "--quiet"])

    def _op(self, fn, main: bool):
        """Time ``fn``; a main operation is traced when tracing is on.
        Returns (result or None on an exception, seconds)."""
        traced = main and self.tracer is not None
        if traced:
            self.tracer.op = len(self.op_s)
            install_layers(self.tracer)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:
            traceback.print_exc()
            out = None
        finally:
            t1 = time.perf_counter()
            if traced:
                self.tracer.uninstall()
        dt = t1 - t0
        if self.clock is not None:
            dt, factor = self.clock.correct(t0, t1)
            self.speed.append(factor)
        if main:
            self.op_s.append(dt)
            self.op_wall_s.append(t1 - t0)
        return out, dt

    def solve(self, main: bool):
        """One timed ``pshjb solve`` plus its output check.

        The solve keeps the config's seed: auto-eta probing draws random
        iterates from it, and another eta can stop the Picard loop after a
        different number of iterations (delay config, seed 103: eta 1, 12
        iterations instead of eta 0, 13), which no stored reference covers.
        The workload seed varies the policies and their samples.
        """
        argv = ["solve", "--config", self.cfg, "--out-dir", str(self.out),
                "--quiet"]
        rc, dt = self._op(lambda: self.cli.main(argv), main)
        self.solve_s.append(dt)
        ok, sol = self.check.solve(-1 if rc is None else rc, self.out)
        self.record(ok)
        return sol

    def policy_rounds(self, sol, n_samples: int, rounds: int | None = None,
                      main: bool = False):
        """Rounds over all policies: ``rounds`` of them, or main operations
        until their time reaches ``--seconds``."""
        h, run = self.harness, self.run
        policies = h.random_open_loop_policies(
            run.cost.ham, run.time_steps, run.n_random_policies, seed=run.seed
        )
        if sol is not None:
            policies.append(h.Policy.greedy(sol))
        refs = self.check.policy_refs(policies)
        value = None if sol is None else self.pshjb.hjb.eval_value(
            sol, run.model, run.t0, run.x0)

        def one_round(seed):
            return [
                h.simulate_cost(run.model, run.cost, pol, run.t0, run.x0,
                                n_samples, run.time_steps, seed + 17 * i)
                for i, pol in enumerate(policies)
            ]

        done = 0
        while (done < rounds if rounds is not None
               else sum(self.op_wall_s) < self.args.seconds):
            seed = int(self.seeds.integers(2**31))
            results, dt = self._op(lambda: one_round(seed), main)
            done += 1
            if results is None:
                for _ in policies:
                    self.record(False)
                continue
            for res, ref in zip(results, refs):
                self.record(self.check.policy(res, ref))
            self.rate.append(len(policies) * n_samples / dt)
            if value is not None:
                greedy = results[-1]
                self.margin.append((value - greedy.mean) / greedy.std_error)

    def timed(self):
        """Main operations until their own time reaches ``--seconds``."""
        sol = None
        if self.kind == "solve":
            while (len(self.op_s) < MIN_SOLVES
                   or sum(self.op_wall_s) < self.args.seconds):
                sol = self.solve(main=True) or sol
                # one round per solve, so the rounds span the run
                self.policy_rounds(sol, POLICY_SAMPLES, rounds=1)
        else:
            for _ in range(PRESOLVES):
                sol = self.solve(main=False) or sol
            self.policy_rounds(sol, 1000, rounds=1)     # warm-up, not reported
            self.rate.clear()
            self.margin.clear()
            self.policy_rounds(sol, POLICY_SAMPLES, main=True)

    def end_to_end(self, setup: list[float]) -> dict:
        setup_s = statistics.median(setup)
        if self.kind == "policy":
            setup_s += statistics.median(self.solve_s)      # the pre-solve
        vals = {
            "setup_s": (setup_s, "s"),
            "solve_s": (statistics.median(self.solve_s), "s"),
            "policy_samples_per_s": (
                statistics.median(self.rate) if self.rate else 0.0, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in vals.items()}

    def per_layer(self) -> dict:
        tr = self.tracer
        n = max(len(self.op_s), 1)
        summ = tr.summary()
        vals = {}
        for name, stats in summ.items():
            for key, val in stats.items():
                vals[f"{name}.{key}"] = val / n
        for key, val in tr.extra.items():
            vals[key] = val / n
        applies = summ.get("hjb.apply", {}).get("calls", 0)
        eta_applies = tr.count_under("hjb.apply", "hjb.eta_select")
        vals["hjb.eta_select.applies"] = eta_applies / n
        vals["hjb.picard.iterations"] = (applies - eta_applies) / n
        vals["hjb.picard.useful_apply_ratio"] = (
            (applies - eta_applies) / applies if applies else 0.0)
        vals["dominance.greedy_margin_se"] = (
            statistics.median(self.margin) if self.margin else 0.0)
        vals["trace.op_s"] = statistics.median(self.op_s)
        vals["trace.spans"] = len(tr.spans) / n
        vals["trace.overhead_s"] = len(tr.spans) / n * span_cost_s()
        return {name: {"value": float(vals.get(name, 0.0)), "unit": unit}
                for name, unit in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "pshjb" / "__init__.py").is_file():
        print(f"no pshjb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    bench = Bench(args)
    setup = [] if args.trace else [probe_seconds(bench.model)
                                   for _ in range(SETUP_REPEATS)]
    try:
        if bench.clock is not None:
            bench.clock.start()
        bench.setup()
        bench.warm_up()
        bench.timed()
    finally:
        if bench.clock is not None:
            bench.clock.stop()
        shutil.rmtree(bench.out, ignore_errors=True)
    if args.trace:
        bench.tracer.write(str(OUT / "traces" / f"{args.workload}-seed{args.seed}.json"))
        metrics = bench.per_layer()
    else:
        metrics = bench.end_to_end(setup)

    env = environment()
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    env["missing_trace_targets"] = bench.tracer.missing if args.trace else None
    env["host_speed_factor"] = (
        None if args.trace else statistics.median(bench.speed))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if setup:
        print("  set-up probes (s): " + " ".join(f"{t:.3f}" for t in setup))
    print("  main operations (s): " + " ".join(f"{t:.3f}" for t in bench.op_s))
    print("  main operations, wall (s): "
          + " ".join(f"{t:.3f}" for t in bench.op_wall_s))
    if bench.speed:
        print("  host speed factors: " + " ".join(f"{f:.3f}" for f in bench.speed))
    print("  solves (s): " + " ".join(f"{t:.3f}" for t in bench.solve_s))
    print("  policy samples per s: " + " ".join(f"{r:.4g}" for r in bench.rate))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    rate = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"  {'failure_rate':40s} {rate:.6g} ({bench.failed}/{bench.attempted})")
    if bench.margin and not args.trace:
        print(f"  {'dominance.greedy_margin_se':40s} "
              f"{statistics.median(bench.margin):.6g} se (reported, not gated)")
    print(json.dumps({"environment": env}, default=str))
    print(json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
