from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from pshjb import costs, delay, hjb
from pshjb.delay import (
    DelayConfig,
    DelayState,
    gramian,
    kalman_rank,
    proj_control_delay,
)
from pshjb.errors import ConfigError, RankDeficient

from conftest import (
    MINI_CFG,
    scalar_delay_config,
    shipped_delay_config,
    shipped_delay_ham,
)


class TestGramian:
    def test_constant_integrand(self):
        cfg = DelayConfig(a0=np.zeros((2, 2)), b0=np.zeros((2, 1)),
                          sigma=np.eye(2), delay=0.1)
        np.testing.assert_allclose(gramian(cfg, 0.7), 0.7 * np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("a", [-1.3, 0.4, 2.0])
    def test_scalar_closed_form(self, a):
        cfg = DelayConfig(a0=[[a]], b0=[[1.0]], sigma=[[1.0]], delay=0.1)
        for t in (0.2, 1.0):
            exact = (np.exp(2 * a * t) - 1.0) / (2 * a)
            assert abs(gramian(cfg, t)[0, 0] - exact) <= 1e-10 * max(1.0, exact)

    def test_diagonal_decouples(self):
        d = np.array([-0.5, 0.8])
        cfg = DelayConfig(a0=np.diag(d), b0=np.zeros((2, 1)),
                          sigma=np.eye(2), delay=0.1)
        g = gramian(cfg, 0.6)
        exact = np.diag((np.exp(2 * d * 0.6) - 1.0) / (2 * d))
        np.testing.assert_allclose(g, exact, atol=1e-10)

    def test_monotone_psd(self, delay_model):
        cfg = delay_model.cfg
        prev = gramian(cfg, 0.05)
        for t in (0.1, 0.4, 0.9):
            cur = gramian(cfg, t)
            assert np.linalg.eigvalsh(cur - prev).min() >= -1e-12
            prev = cur

    def test_stiff_drift(self):
        d = np.array([-50.0, -0.2])
        cfg = DelayConfig(a0=np.diag(d), b0=np.zeros((2, 1)),
                          sigma=np.eye(2), delay=0.1)
        for t in (0.1, 1.0):
            exact = np.diag((1.0 - np.exp(2 * d * t)) / (-2 * d))
            np.testing.assert_allclose(gramian(cfg, t), exact, rtol=1e-12,
                                       atol=1e-12 * np.abs(exact).max())


    def test_array_of_times(self, delay_model):
        # one stacked call equals the calls at each time, bit for bit
        cfg = delay_model.cfg
        ts = np.geomspace(1e-4, 3.0, 12)
        got = gramian(cfg, ts)
        assert got.shape == (12, cfg.n, cfg.n)
        for t, g in zip(ts, got):
            assert np.array_equal(gramian(cfg, t), g)
        with pytest.raises(ValueError):
            gramian(cfg, np.array([0.5, 0.0]))


class TestControlResponse:
    def test_atom_inactive_before_delay(self):
        cfg = scalar_delay_config(c=0.5, d=0.2)
        for t in (0.05, 0.19):
            np.testing.assert_allclose(proj_control_delay(cfg, t), [[1.0]])

    def test_atom_active_after_delay(self):
        cfg = scalar_delay_config(c=0.5, d=0.2)
        for t in (0.2, 0.7):
            np.testing.assert_allclose(proj_control_delay(cfg, t), [[1.5]])

    def test_jump_magnitude_at_activation(self):
        w = np.array([[0.4], [0.2]])
        cfg = DelayConfig(a0=np.zeros((2, 2)), b0=[[1.0], [0.0]],
                          sigma=np.eye(2), delay=0.3, b1_atoms=[(-0.3, w)])
        left = proj_control_delay(cfg, 0.3 - 1e-12)
        right = proj_control_delay(cfg, 0.3)
        np.testing.assert_allclose(right - left, w, atol=1e-9)

    def test_density_part_constant_oracle(self):
        # a0 = 0 and a constant density c: contribution is min(t, d) * c
        c = np.array([[0.3], [-0.1]])
        table = np.broadcast_to(c, (65, 2, 1)).copy()
        cfg = DelayConfig(a0=np.zeros((2, 2)), b0=np.zeros((2, 1)),
                          sigma=np.eye(2), delay=0.5, b1_density=table)
        for t in (0.2, 0.5, 1.1):
            expected = min(t, 0.5) * c
            np.testing.assert_allclose(proj_control_delay(cfg, t), expected,
                                       atol=1e-12)

    def test_general_matrix_exponential_factor(self):
        a0 = np.array([[-0.2, 0.5], [0.0, -0.4]])
        cfg = DelayConfig(a0=a0, b0=[[1.0], [0.3]], sigma=np.eye(2), delay=0.2,
                          b1_atoms=[(-0.2, [[0.1], [0.2]])])
        t = 0.6
        exact = expm(t * a0) @ cfg.b0 + expm((t - 0.2) * a0) @ cfg.b1_atoms[0][1]
        np.testing.assert_allclose(proj_control_delay(cfg, t), exact, atol=1e-12)


class TestKalman:
    def test_invertible_sigma(self):
        cfg = shipped_delay_config()
        assert kalman_rank(cfg) == 2

    def test_brunovsky_pair(self):
        cfg = DelayConfig(a0=[[0.0, 1.0], [0.0, 0.0]], b0=np.zeros((2, 1)),
                          sigma=[[0.0], [1.0]], delay=0.1)
        assert kalman_rank(cfg) == 2

    def test_zero_sigma(self):
        cfg = DelayConfig(a0=np.eye(2), b0=np.zeros((2, 1)),
                          sigma=np.zeros((2, 1)), delay=0.1)
        assert kalman_rank(cfg) == 0

    def test_rank_matches_gramian_oracle(self):
        # Kalman rank equals the Gramian rank (controllability theorem);
        # the Gramian here comes from dense quadrature, not the closed form.
        # Degenerate cases are built with exactly unreachable components so
        # both rank notions are cleanly separated from the tolerance.
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            if trial % 2 == 0 and n > 1:
                a0 = np.diag(rng.standard_normal(n))
                sigma = rng.standard_normal((n, k))
                dead = rng.integers(0, n)
                sigma[dead] = 0.0           # that component is unreachable
                expected = n - 1
            else:
                a0 = rng.standard_normal((n, n))
                sigma = rng.standard_normal((n, k))
                expected = None
            cfg = DelayConfig(a0=a0, b0=np.zeros((n, 1)), sigma=sigma, delay=0.1)
            s = np.linspace(0.0, 1.0, 4001)
            vals = np.array([expm(u * a0) @ sigma @ sigma.T @ expm(u * a0).T
                             for u in s])
            g = np.trapezoid(vals, s, axis=0)
            sv = np.linalg.svd(g, compute_uv=False)
            grank = int(np.count_nonzero(sv > 1e-8 * max(sv[0], 1e-300)))
            assert kalman_rank(cfg) == grank, f"trial {trial}"
            if expected is not None:
                assert grank == expected, f"trial {trial}"


class TestStrongInclusion:
    def test_rate_degrades_without_strong_inclusion(self):
        from pshjb.smoothing import fit_blowup

        # full Kalman rank but the control leaves Im(sigma): the blow-up
        # exponent worsens past the t^{-1/2} regime (here to t^{-3/2})
        cfg = DelayConfig(a0=[[0.0, 1.0], [0.0, 0.0]], b0=[[1.0], [0.0]],
                          sigma=[[0.0], [1.0]], delay=0.1)
        assert kalman_rank(cfg) == 2
        # e^{tA} b0 = e1 for this nilpotent drift: outside Im(sigma) = span(e2)
        np.testing.assert_allclose(proj_control_delay(cfg, 0.1), [[1.0], [0.0]],
                                   atol=1e-14)
        model = delay.build_projected_model(cfg)
        fit = fit_blowup(model, np.geomspace(1e-4, 1e-1, 20))
        assert fit.slope < -0.6


class TestBuild:
    def test_rank_deficient_raises(self):
        cfg = DelayConfig(a0=np.zeros((2, 2)), b0=[[0.0], [1.0]],
                          sigma=[[1.0], [0.0]], delay=0.1)
        with pytest.raises(RankDeficient):
            delay.build_projected_model(cfg)

    def test_rank_deficient_but_included_builds(self):
        # control response stays inside the controllability image
        cfg = DelayConfig(a0=np.zeros((2, 2)), b0=[[1.0], [0.0]],
                          sigma=[[1.0], [0.0]], delay=0.1)
        model = delay.build_projected_model(cfg)
        assert model.proj_dim == 2

    def test_force_build(self):
        cfg = DelayConfig(a0=np.zeros((2, 2)), b0=[[0.0], [1.0]],
                          sigma=[[1.0], [0.0]], delay=0.1)
        model = delay.build_projected_model(cfg, force=True)
        assert model.proj_dim == 2


class TestProjectedModel:
    def test_zero_past_semigroup(self, delay_model):
        x = DelayState.zero_past([0.5, -0.3], 0.2)
        for t in (0.1, 0.8):
            exact = expm(t * delay_model.cfg.a0) @ x.x0
            np.testing.assert_allclose(
                delay_model.proj_semigroup_apply(t, x), exact, atol=1e-12
            )

    def test_past_window(self, delay_model):
        # past data supported before -t contributes nothing
        n_pts = 129
        grid = np.linspace(-0.2, 0.0, n_pts)
        x1 = np.zeros((n_pts, 2))
        x1[grid < -0.1] = 1.0
        far = DelayState(np.zeros(2), x1, 0.2)
        t = 0.05                      # window [-0.05, 0] misses the support
        out = delay_model.proj_semigroup_apply(t, far)
        assert np.abs(out).max() <= 1e-12

    def test_past_contribution_trapezoid_oracle(self, delay_model):
        n_pts = 257
        grid = np.linspace(-0.2, 0.0, n_pts)
        x1 = np.stack([np.cos(3 * grid), np.sin(2 * grid)], axis=1)
        state = DelayState(np.zeros(2), x1, 0.2)
        t = 0.35                      # window is the whole past interval
        a0 = delay_model.cfg.a0
        integrand = np.array(
            [expm((t + s) * a0) @ x1[i] for i, s in enumerate(grid)]
        )
        exact = np.trapezoid(integrand, grid, axis=0)
        np.testing.assert_allclose(
            delay_model.proj_semigroup_apply(t, state), exact, atol=1e-10
        )

    @pytest.mark.parametrize("model", ["shipped", "scalar"])
    def test_pushforward_stack_equals_single(self, model, delay_model, delay_scalar):
        # an array of s gives the per-s matrices bit for bit, in its shape
        mdl = delay_model if model == "shipped" else delay_scalar
        n = mdl.proj_dim
        for t in (1e-3, 0.15, 0.6, 1.0):
            s = t * np.sort(np.random.default_rng(2).uniform(0.01, 0.99, 12))
            got = mdl.pushforward_cov(s, t)
            assert got.shape == (12, n, n)
            for si, c in zip(s, got):
                assert np.array_equal(mdl.pushforward_cov(si, t), c)
            grid = mdl.pushforward_cov(s.reshape(3, 4), t)
            assert np.array_equal(grid, got.reshape(3, 4, n, n))
        for bad in ([0.2, 0.0], [0.2, 1.0]):
            with pytest.raises(ValueError):
                mdl.pushforward_cov(np.array(bad), 1.0)

    def test_state_validation(self):
        with pytest.raises(ConfigError):
            DelayState(np.zeros(2), np.zeros((10, 2)), 0.2)    # too few points

    @pytest.mark.parametrize("field", ["a0", "b0", "sigma", "delay", "atom", "density"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_config_rejected(self, field, bad):
        kw = dict(a0=np.array([[-0.3, 0.1], [0.0, -0.2]]), b0=np.array([[1.0], [0.5]]),
                  sigma=np.eye(2), delay=0.2, b1_atoms=[(-0.2, np.array([[0.4], [0.2]]))],
                  b1_density=np.full((4, 2, 1), 0.1))
        DelayConfig(**kw)                        # valid as given
        if field == "delay":
            kw["delay"] = bad
        elif field == "atom":
            kw["b1_atoms"][0][1][1, 0] = bad
        elif field == "density":
            kw["b1_density"][2, 1, 0] = bad
        else:
            kw[field][-1, -1] = bad
        with pytest.raises(ConfigError, match="finite"):
            DelayConfig(**kw)


class TestFullHistoryConsistency:
    def test_euler_maruyama_matches_projected_law(self, delay_model):
        # simulate the delayed SDE directly under a constant control and
        # compare the terminal law with the projected-model prediction
        cfg = delay_model.cfg
        rng = np.random.default_rng(123)
        T, dt = 1.0, 5e-4
        n_steps = int(round(T / dt))
        n_paths = 20_000
        u = np.array([0.8])
        x0 = np.array([0.3, -0.2])
        w_atom = cfg.b1_atoms[0][1]
        y = np.tile(x0, (n_paths, 1))
        drift_const = (cfg.b0 @ u)
        atom_term = (w_atom @ u)
        sq = np.sqrt(dt)
        for i in range(n_steps):
            s = i * dt
            drift = y @ cfg.a0.T + drift_const
            if s - cfg.delay >= 0.0:      # u(s - d) = u for s >= d, else 0
                drift = drift + atom_term
            y = y + drift * dt + sq * rng.standard_normal((n_paths, 2)) @ cfg.sigma.T
        # projected-model prediction
        from pshjb.harness import _control_integrals

        steps = np.linspace(0.0, T, 2)
        b_int = _control_integrals(delay_model, 0.0, T, steps, n_gl=24)[0]
        mean_exact = delay_model.proj_semigroup_apply(
            T, DelayState.zero_past(x0, cfg.delay)
        ) + b_int @ u
        cov_exact = delay_model.proj_cov(T)
        mean_err = np.abs(y.mean(axis=0) - mean_exact)
        se = np.sqrt(np.diag(cov_exact) / n_paths)
        assert np.all(mean_err <= 3 * se + 5 * dt)       # EM bias O(dt)
        emp_cov = np.cov(y.T)
        cov_se = 3 * np.sqrt(2.0 / n_paths) * np.abs(cov_exact).max()
        assert np.abs(emp_cov - cov_exact).max() <= cov_se + 5 * dt


class TestStiffDrift:
    def test_mini_solve_converges(self):
        cfg = replace(shipped_delay_config(), a0=[[-50.0, 0.1], [0.0, -0.2]])
        model = delay.build_projected_model(cfg)
        solver = hjb.SolverConfig(**MINI_CFG)
        sol = hjb.picard_solve(
            model, shipped_delay_ham(), costs.tanh_cost([1.0, 1.0], 0.0, 1.0),
            costs.constant_ell0(0.1), solver,
        )
        assert sol.residual <= solver.tol
