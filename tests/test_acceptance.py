"""Acceptance suite: every shipped quantitative requirement, one test each.

Each test prints a single machine-grepable line
``criterion <n>: PASS|FAIL -- <detail>``; run with ``pytest -v -s`` to see
them.  The heavy shipped-config solves are shared across criteria through
module fixtures, and their wall time is accounted against criterion 8.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from pshjb import costs, delay, heat
from pshjb.delay import DelayConfig
from pshjb.errors import InclusionViolated, RankDeficient
from pshjb.harness import (
    CostSpec,
    Policy,
    random_open_loop_policies,
    value_dominance_check,
)
from pshjb.hjb import (
    Hamiltonian,
    SolverConfig,
    UpsilonOperator,
    eval_value,
    picard_solve,
    sup_distance,
)
from pshjb.ou import (
    cameron_martin_density,
    semigroup_apply,
)
from pshjb.smoothing import fit_blowup, lambda_norm, lambda_operator
from pshjb.spectral import build_quadrature, gauss_expectation

from conftest import (
    c_gradient_norm_bound_check,
    c_gradient_semigroup,
    contraction_ratios,
    iterate_to_tol,
    scalar_delay_config,
    shipped_delay_config,
    shipped_delay_ham,
    shipped_heat_ham,
    zero_iterate,
)

ETA_LADDER = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def report(n, ok, detail):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# shipped problems

@pytest.fixture(scope="module")
def heat_problem():
    model = heat.HeatProjectedModel(heat.HeatConfig())
    cost = CostSpec(costs.constant_ell0(0.1), shipped_heat_ham(),
                    costs.tanh_cost([0.8, -0.5], 0.0, 1.0))
    cfg = SolverConfig(tol=1e-4, max_iter=30, n_time=40, space_points=41)
    x0 = 0.5 * np.arange(1, 257, dtype=float) ** -2.0
    return dict(model=model, cost=cost, cfg=cfg, x0=x0, name="heat")


@pytest.fixture(scope="module")
def delay_problem():
    model = delay.build_projected_model(shipped_delay_config(), horizon=1.0)
    cost = CostSpec(costs.constant_ell0(0.1), shipped_delay_ham(),
                    costs.tanh_cost([1.0, 1.0], 0.0, 1.0))
    cfg = SolverConfig(tol=1e-4, max_iter=30, n_time=40, space_points=41)
    x0 = np.array([0.3, -0.2])
    return dict(model=model, cost=cost, cfg=cfg, x0=x0, name="delay")


@pytest.fixture(scope="module")
def solutions(heat_problem, delay_problem):
    out = {}
    for prob in (heat_problem, delay_problem):
        t0 = time.perf_counter()
        sol = picard_solve(prob["model"], prob["cost"], prob["cfg"])
        out[prob["name"]] = (sol, time.perf_counter() - t0)
    return out


# ---------------------------------------------------------------------------

def test_criterion_1_delay_blowup(delay_problem):
    t0 = time.perf_counter()
    model = delay_problem["model"]
    grid = np.geomspace(1e-4, 1e-1, 20)
    fit = fit_blowup(model, grid)
    elapsed = time.perf_counter() - t0
    ok = abs(fit.slope + 0.5) <= 0.02 and elapsed < 5.0
    report(1, ok, f"slope {fit.slope:+.4f} (target -0.50 +/- 0.02), "
                  f"{elapsed:.2f}s < 5s")


def test_criterion_2_heat_blowup(heat_problem):
    t0 = time.perf_counter()
    fit = fit_blowup(heat_problem["model"], np.geomspace(1e-4, 1e-1, 20))
    unproj = heat.HeatProjectedModel(heat.HeatConfig(projection="identity"))
    fit_full = fit_blowup(unproj, np.geomspace(1e-4, 1e-1, 20))
    elapsed = time.perf_counter() - t0
    ok = (-1.05 <= fit.slope <= -0.40) and fit_full.slope <= -1.2 and elapsed < 30.0
    report(2, ok, f"projected slope {fit.slope:+.4f} in [-1.05, -0.40], "
                  f"unprojected {fit_full.slope:+.4f} <= -1.2, {elapsed:.1f}s < 30s")


def test_criterion_3_scalar_oracles():
    c, d = 0.5, 0.2
    model = delay.build_projected_model(scalar_delay_config(c=c, d=d), horizon=1.0)
    worst_delay = 0.0
    for t in np.linspace(0.02, 1.0, 50):
        exact = (1.0 + c * (t >= d)) / np.sqrt(t)
        worst_delay = max(
            worst_delay, abs(lambda_norm(model, t) - exact) / exact
        )
    hmodel = heat.HeatProjectedModel(
        heat.HeatConfig(n_modes=64, projection="spectral", spectral_modes=(1,))
    )
    worst_heat = 0.0
    for t in np.geomspace(1e-4, 1.0, 50):
        col = np.exp(-t) * (1.0 - np.exp(-2.0 * t)) ** -0.5 * np.sqrt(2.0)
        exact = np.sqrt(2.0) * col
        worst_heat = max(
            worst_heat, abs(lambda_norm(hmodel, t) - exact) / exact
        )
    ok = worst_delay <= 1e-8 and worst_heat <= 1e-8
    report(3, ok, f"relative errors: delay {worst_delay:.2e}, heat "
                  f"{worst_heat:.2e} (reference 1e-8, 50 points each)")


def test_criterion_4_c_gradient_fd(heat_problem, delay_problem):
    rule = build_quadrature(2, 12)
    worst = 0.0
    for prob in (heat_problem, delay_problem):
        model, phi = prob["model"], prob["cost"].phi
        rng = np.random.default_rng(101)
        for _ in range(5):
            t = float(10 ** rng.uniform(-1.3, 0.0))
            y0 = 0.4 * rng.standard_normal(2)
            k = int(rng.integers(model.control_dim))
            grad = c_gradient_semigroup(model, phi, t, y0, rule)
            b_col = model.proj_control(t)[:, k]
            a = 1e-4
            fd = (
                semigroup_apply(model, phi, t, y0 + a * b_col, rule)
                - semigroup_apply(model, phi, t, y0 - a * b_col, rule)
            ) / (2 * a)
            scale = max(1.0, abs(fd))
            worst = max(worst, abs(grad[k] - fd) / scale)
    ok = worst <= 5e-3
    report(4, ok, f"max |formula - FD| / scale = {worst:.2e} <= 5e-3 "
                  f"(tensor-hermite order 12, 5 draws per model)")


def test_criterion_5_gradient_bound(heat_problem, delay_problem):
    rule = build_quadrature(2, 12)
    all_ok, worst = True, 0.0
    for prob in (heat_problem, delay_problem):
        model = prob["model"]
        phis = [                    # (phi, sup|phi|: its scale)
            (costs.tanh_cost(np.ones(2), 0.0, 1.0), 1.0),
            (costs.gauss_bump_cost(np.zeros(2), 0.7, 2.0), 2.0),
            (costs.tanh_cost(np.full(2, 50.0), 0.0, 1.0), 1.0),
        ]
        for phi, sup_phi in phis:
            for t in np.geomspace(1e-3, 1.0, 10):
                lhs, rhs, ok = c_gradient_norm_bound_check(
                    model, phi, sup_phi, t, 0.1 * np.ones(2), rule
                )
                all_ok &= ok
                if rhs > 0:
                    worst = max(worst, lhs / rhs)
    report(5, all_ok, f"max lhs/rhs = {worst:.4f} <= 1.001 over 10-point grids, "
                      f"3 costs per model")


def test_criterion_6_cameron_martin():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 2))
    cov = a @ a.T + 0.3 * np.eye(2)
    y = np.array([0.4, -0.6])
    rule = build_quadrature(2, 30)
    total = gauss_expectation(
        lambda z: np.array([cameron_martin_density(cov, y, zi) for zi in z]),
        np.zeros(2), cov,
        rule,
    )
    norm_err = abs(total - 1.0)
    shift_err = 0.0
    for g in (lambda z: z[:, 0], lambda z: z[:, 0] * z[:, 1],
              lambda z: z[:, 1] ** 3):
        lhs = gauss_expectation(
            lambda z: np.array(
                [cameron_martin_density(cov, y, zi) for zi in z]
            ) * g(z),
            np.zeros(2), cov,
            rule,
        )
        rhs = gauss_expectation(g, y, cov, rule)
        shift_err = max(shift_err, abs(lhs - rhs))
    ok = norm_err <= 1e-6 and shift_err <= 1e-6
    report(6, ok, f"normalization error {norm_err:.2e}, shift-identity error "
                  f"{shift_err:.2e} (reference 1e-6)")


@pytest.fixture(scope="module")
def contraction_data(heat_problem, delay_problem, solutions):
    out = {}
    for prob in (heat_problem, delay_problem):
        sol, _ = solutions[prob["name"]]
        ups = UpsilonOperator(prob["model"], prob["cost"], prob["cfg"], gamma=sol.gamma)
        ladder = contraction_ratios(ups, ETA_LADDER, n_pairs=10,
                                    rng=np.random.default_rng(31))
        # the first eta that contracts, else the last one's ratios
        chosen, ratios = next(
            ((eta, r) for eta, r in zip(ETA_LADDER, ladder) if max(r) < 0.9),
            (None, ladder[-1]),
        )
        out[prob["name"]] = (chosen, ratios, ups)
    return out


def test_criterion_7_contraction(contraction_data):
    details = []
    ok = True
    for name, (eta, ratios, _) in contraction_data.items():
        ok &= eta is not None and max(ratios) < 0.9
        details.append(f"{name}: eta={eta} max ratio {max(ratios):.3f}")
    report(7, ok, "; ".join(details) + " (10 random pairs each, target < 0.9)")


def test_criterion_8_picard_convergence(solutions):
    ok = True
    details = []
    total = 0.0
    for name, (sol, elapsed) in solutions.items():
        hist = sol.diagnostics["residual_history"]
        decays = [b / a for a, b in zip(hist[:-1], hist[1:])]
        geometric = all(r < 1.0 for r in decays[2:])
        ok &= sol.residual <= 1e-4 and sol.iterations <= 30 and geometric
        total += elapsed
        details.append(
            f"{name}: residual {sol.residual:.2e} in {sol.iterations} iters, "
            f"{elapsed:.0f}s"
        )
    ok &= total < 600.0
    report(8, ok, "; ".join(details) + f"; total {total:.0f}s < 600s")


def test_criterion_9_uniqueness(heat_problem, delay_problem, solutions):
    ok = True
    details = []
    for prob in (heat_problem, delay_problem):
        sol, _ = solutions[prob["name"]]
        cfg = prob["cfg"]
        ups = UpsilonOperator(prob["model"], prob["cost"], cfg, gamma=sol.gamma)
        g_zero, residual = iterate_to_tol(ups, zero_iterate(ups), cfg)
        d = sup_distance(sol.iterate, g_zero)
        ok &= residual <= cfg.tol and d <= 2.0 * cfg.tol
        details.append(f"{prob['name']}: distance {d:.2e} <= {2 * cfg.tol:.0e}")
    # (the zero start merges into the semigroup trajectory after one step,
    # hence the tiny distances; a random-start uniqueness check lives in
    # tests/test_hjb.py)
    report(9, ok, "; ".join(details))


def test_criterion_10_terminal_and_trivial(heat_problem, delay_problem, solutions):
    rule = build_quadrature(2, 12)
    ok = True
    details = []
    # terminal condition: exact on any state; P x is V x for the heat start
    # (all n_modes coefficients) and the present vector for the delay start
    v = heat.projection_matrix(heat_problem["model"].cfg)
    projected = {"heat": v @ heat_problem["x0"], "delay": delay_problem["x0"]}
    for prob in (heat_problem, delay_problem):
        sol, _ = solutions[prob["name"]]
        model, phi = prob["model"], prob["cost"].phi
        got = eval_value(sol, model, 1.0, prob["x0"])
        exact = float(phi(projected[prob["name"]]))
        ok &= got == exact
        details.append(f"{prob['name']} terminal exact: {got == exact}")
    # trivial Hamiltonian: v = R_{T-t}[phi] + c (T-t), checked at states
    # projecting onto grid nodes (isolates quadrature from interpolation)
    c = 0.25
    worst = 0.0
    for prob in (heat_problem, delay_problem):
        model, phi = prob["model"], prob["cost"].phi
        ham = Hamiltonian(np.zeros((1, model.control_dim)), np.zeros(1))
        sol = picard_solve(model, CostSpec(costs.constant_ell0(c), ham, phi),
                           prob["cfg"])
        axes = sol.iterate.space_axes
        for i, (j1, j2) in ((4, (20, 22)), (17, (19, 21)), (33, (21, 20))):
            tau = sol.iterate.time_grid[1:][i]
            y_node = np.array([axes[0][j1], axes[1][j2]])
            if prob["name"] == "delay":
                x = expm(-tau * model.cfg.a0) @ y_node
            else:
                lam = heat.eigenvalues(2)
                block = heat.projection_matrix(model.cfg)[:, :2] * np.exp(-tau * lam)
                x = np.linalg.solve(block, y_node)
            ref = semigroup_apply(model, phi, tau, y_node, rule) + c * tau
            got = eval_value(sol, model, 1.0 - tau, x)
            worst = max(worst, abs(got - ref))
    ok &= worst <= 1e-4
    details.append(f"trivial-Hamiltonian error {worst:.2e} <= 1e-4")
    report(10, ok, "; ".join(details))


def test_criterion_11_value_dominance(heat_problem, delay_problem, solutions):
    ok = True
    details = []
    for prob in (heat_problem, delay_problem):
        sol, _ = solutions[prob["name"]]
        cost = prob["cost"]
        pols = random_open_loop_policies(cost.ham, 20, 10, seed=77)
        pols.append(Policy.greedy(sol))
        rep = value_dominance_check(
            prob["model"], cost, sol, pols, 0.0, prob["x0"],
            n_samples=10_000, time_steps=20, seed=13,
        )
        ok &= all(p["ok"] for p in rep["policies"])
        details.append(
            f"{prob['name']}: value {rep['value']:+.4f}, greedy gap "
            f"{rep['greedy_gap']:+.4f} (diagnostic)"
        )
    report(11, ok, "; ".join(details) + " -- 10 open-loop + greedy, 1e4 samples")


def test_criterion_12_solution_bound(heat_problem, delay_problem, solutions):
    kappa = 0.0
    for prob in (heat_problem, delay_problem):
        sol, _ = solutions[prob["name"]]
        sup_f = np.abs(sol.iterate.f_values).max()
        denom = 1.0 + 0.1       # sup|phi| (the tanh scale) + sup|ell0|, shipped
        kappa = max(kappa, sup_f / denom)
    ok = kappa <= 10.0
    report(12, ok, f"reported kappa_1 = {kappa:.3f} <= 10 across shipped configs")


def test_criterion_13_rank_and_inclusion_logic():
    rng = np.random.default_rng(7)
    agree = 0
    for trial in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 4))
        if trial % 2 == 0 and n > 1:
            a0 = np.diag(rng.standard_normal(n))
            sigma = rng.standard_normal((n, k))
            sigma[rng.integers(0, n)] = 0.0
        else:
            a0 = rng.standard_normal((n, n))
            sigma = rng.standard_normal((n, k))
        cfg = DelayConfig(a0=a0, b0=np.zeros((n, 1)), sigma=sigma, delay=0.1)
        s = np.linspace(0.0, 1.0, 2001)
        vals = np.array(
            [expm(u * a0) @ sigma @ sigma.T @ expm(u * a0).T for u in s]
        )
        g = np.trapezoid(vals, s, axis=0)
        sv = np.linalg.svd(g, compute_uv=False)
        grank = int(np.count_nonzero(sv > 1e-8 * max(sv[0], 1e-300)))
        agree += delay.kalman_rank(cfg) == grank
    neg_ok = True
    try:
        delay.build_projected_model(
            DelayConfig(a0=np.zeros((2, 2)), b0=[[0.0], [1.0]],
                        sigma=[[1.0], [0.0]], delay=0.1),
            horizon=1.0,
        )
        neg_ok = False
    except RankDeficient:
        pass

    class Stub:
        proj_dim, control_dim = 2, 1
        control_discontinuities = ()

        def proj_cov(self, t):
            return np.diag([t, 0.0])

        def proj_control(self, t):
            return np.array([[0.0], [1.0]])

    try:
        lambda_operator(Stub(), 0.5)
        neg_ok = False
    except InclusionViolated:
        pass
    slow = heat.HeatProjectedModel(heat.HeatConfig(projection="slow"))
    fit = fit_blowup(slow, np.geomspace(1e-4, 1e-1, 20))
    neg_ok &= not 0.0 < fit.gamma < 1.0
    ok = agree == 20 and neg_ok
    report(13, ok, f"rank oracle agreement {agree}/20; negative configs raise "
                   f"RankDeficient / InclusionViolated; violating heat fit "
                   f"gamma {fit.gamma:.2f} outside (0,1)")
