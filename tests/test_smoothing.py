import os

import numpy as np
import pytest

from pshjb import checks, costs, delay, heat
from pshjb.config import load_config
from pshjb.errors import InclusionViolated, SmoothingViolated
from pshjb.ou import semigroup_apply
from pshjb.smoothing import (
    blowup_grid,
    fit_blowup,
    inclusion_residual,
    lambda_norm,
    lambda_operator,
)
from pshjb.spectral import build_quadrature

from conftest import c_gradient_norm_bound_check, c_gradient_semigroup, scalar_delay_config

SHIPPED = os.path.join(os.path.dirname(__file__), "..", "configs")
RULE12_1 = build_quadrature(1, 12)
RULE12_2 = build_quadrature(2, 12)


def rule_for(model):
    return RULE12_1 if model.proj_dim == 1 else RULE12_2


class TestLambdaOperator:
    def test_scalar_delay_closed_form(self, delay_scalar):
        c, d = 0.5, 0.2
        for t in np.linspace(0.02, 1.0, 50):
            exact = (1.0 + c * (t >= d)) / np.sqrt(t)
            assert abs(lambda_norm(delay_scalar, t) - exact) <= 1e-8 * exact

    def test_heat_spectral_closed_form(self, heat_spectral1):
        # single-mode projection: both boundary columns reduce to the same
        # scalar lam1^{3/2} e^{-lam1 t} (1 - e^{-2 lam1 t})^{-1/2} sqrt(2)
        for t in np.geomspace(1e-4, 1.0, 50):
            col = np.exp(-t) * (1.0 - np.exp(-2.0 * t)) ** -0.5 * np.sqrt(2.0)
            exact = np.sqrt(2.0) * col      # two identical columns
            assert abs(lambda_norm(heat_spectral1, t) - exact) <= 1e-8 * exact

    def test_zero_control_gives_zero(self):
        cfg = delay.DelayConfig(
            a0=[[0.0]], b0=[[0.0]], sigma=[[1.0]], delay=0.1
        )
        model = delay.build_projected_model(cfg, horizon=1.0)
        lam = lambda_operator(model, 0.3)
        assert lam.shape == (1, 1) and np.all(lam == 0.0)

    def test_inclusion_violated_on_singular_model(self, delay_scalar):
        class Stub:
            proj_dim, control_dim = 2, 1
            control_discontinuities = ()

            def proj_cov(self, t):
                return np.diag([t, 0.0])

            def proj_control(self, t):
                return np.array([[0.0], [1.0]])

        with pytest.raises(InclusionViolated):
            lambda_operator(Stub(), 0.5)

        class StackStub(Stub):
            # covariance diag(t, 0) with image span(e1); the control column
            # is e1 before t = 0.4 and e2 from then on
            def proj_cov(self, t):
                return np.multiply.outer(np.asarray(t), np.diag([1.0, 0.0]))

            def proj_control(self, t):
                late = np.asarray(t)[..., None, None] >= 0.4
                return np.where(late, [[0.0], [1.0]], [[1.0], [0.0]])

        assert lambda_operator(StackStub(), np.array([0.1, 0.2])).shape == (2, 2, 1)
        for times, first in (([0.1, 0.5, 0.2, 0.7], "0.5"), ([0.7, 0.1, 0.5], "0.7")):
            with pytest.raises(InclusionViolated, match=f"at t={first}$"):
                lambda_operator(StackStub(), np.array(times))

    @pytest.mark.parametrize(
        "name", ["heat_model", "heat_spectral12", "slow", "delay_model", "delay_scalar"])
    def test_stack_equals_single_calls(self, request, name):
        # one stacked query for an array of times gives, bit for bit, the
        # operators, norms and residuals of the calls with each t alone
        model = (heat.HeatProjectedModel(heat.HeatConfig(projection="slow"))
                 if name == "slow" else request.getfixturevalue(name))
        times = np.geomspace(1e-4, 1.0, 24).reshape(2, 12)
        ops = lambda_operator(model, times)
        assert ops.shape == (2, 12, model.proj_dim, model.control_dim)
        norms = lambda_norm(model, times)
        res = inclusion_residual(model.proj_cov(times), model.proj_control(times))
        for at in np.ndindex(times.shape):
            t = times[at]
            assert np.array_equal(ops[at], lambda_operator(model, t))
            assert norms[at] == lambda_norm(model, t)
            assert res[at] == inclusion_residual(model.proj_cov(t), model.proj_control(t))
        assert isinstance(lambda_norm(model, 0.3), np.floating)

    def test_inclusion_residual_on_models(self, heat_model, delay_model):
        for model in (heat_model, delay_model):
            for t in np.geomspace(1e-3, 1.0, 10):
                res = inclusion_residual(model.proj_cov(t), model.proj_control(t))
                assert res <= 1e-6

    def test_norm_continuity(self, heat_model, delay_model):
        # adjacent values differ < 10% at grid ratio 1.05, away from jumps
        grid = np.geomspace(1e-3, 1.0, 142)     # ratio ~1.05
        for model in (heat_model, delay_model):
            norms = np.array([lambda_norm(model, t) for t in grid])
            rel = np.abs(np.diff(norms)) / norms[:-1]
            for j, (a, b) in enumerate(zip(grid[:-1], grid[1:])):
                if any(a <= d <= b for d in model.control_discontinuities):
                    continue
                assert rel[j] < 0.10


class TestCGradient:
    def test_constant_phi_zero_gradient(self, heat_model):
        phi = costs.constant_cost(3.0)
        g = c_gradient_semigroup(heat_model, phi, 0.3, np.zeros(2), RULE12_2)
        assert np.all(np.abs(g) <= 1e-12)

    def test_linear_phi_closed_form(self, heat_model):
        a = np.array([0.7, -0.4])
        phi = lambda y: y @ a
        for t in (0.05, 0.4):
            g = c_gradient_semigroup(heat_model, phi, t, np.array([0.2, 0.1]), RULE12_2)
            exact = heat_model.proj_control(t).T @ a
            np.testing.assert_allclose(g, exact, atol=1e-10)

    @pytest.mark.parametrize("which", ["heat", "delay"])
    def test_finite_difference_oracle(self, which, heat_model, delay_model):
        model = heat_model if which == "heat" else delay_model
        phi = costs.tanh_cost(np.ones(model.proj_dim) * 0.8, 0.1, 1.0)
        rule = rule_for(model)
        rng = np.random.default_rng(42)
        for _ in range(5):
            t = float(10 ** rng.uniform(-1.3, 0.0))
            y0 = 0.4 * rng.standard_normal(model.proj_dim)
            k = int(rng.integers(model.control_dim))
            grad = c_gradient_semigroup(model, phi, t, y0, rule)
            b_col = model.proj_control(t)[:, k]
            a = 1e-4
            fd = (
                semigroup_apply(model, phi, t, y0 + a * b_col, rule)
                - semigroup_apply(model, phi, t, y0 - a * b_col, rule)
            ) / (2 * a)
            assert abs(grad[k] - fd) <= 5e-6 * max(1.0, abs(fd))


class TestNormBound:
    def test_zero_phi(self, delay_model):
        lhs, rhs, ok = c_gradient_norm_bound_check(
            delay_model, costs.constant_cost(0.0), 0.0, 0.3, np.zeros(2), RULE12_2
        )
        assert (lhs, rhs, ok) == (0.0, 0.0, True)

    @pytest.mark.parametrize("which", ["heat", "delay"])
    def test_bound_over_time_grid(self, which, heat_model, delay_model):
        model = heat_model if which == "heat" else delay_model
        phis = [                    # (phi, sup|phi|: its scale)
            (costs.tanh_cost(np.ones(model.proj_dim), 0.0, 1.0), 1.0),
            (costs.gauss_bump_cost(np.zeros(model.proj_dim), 0.7, 2.0), 2.0),
            (costs.tanh_cost(np.full(model.proj_dim, 50.0), 0.0, 1.0), 1.0),  # ~sign
        ]
        for phi, sup_phi in phis:
            for t in np.geomspace(1e-3, 1.0, 10):
                lhs, rhs, ok = c_gradient_norm_bound_check(
                    model, phi, sup_phi, t, 0.1 * np.ones(model.proj_dim), rule_for(model)
                )
                assert ok, f"t={t}: lhs={lhs} rhs={rhs}"


def count_queries(monkeypatch, model):
    """Record (query, shape of its time argument) for each stacked or
    single ``pushforward_cov`` and ``proj_control`` call of ``model``."""
    calls = []
    for name in ("pushforward_cov", "proj_control"):
        def counted(*args, _name=name, _query=getattr(model, name)):
            calls.append((_name, np.shape(args[-1])))
            return _query(*args)
        monkeypatch.setattr(model, name, counted)
    return calls


class TestOneQueryPerGrid:
    """Each probe grid of Lambda(t) asks the model once, with its times
    as one array."""

    @pytest.mark.parametrize("config", ["heat.yaml", "delay.yaml"])
    def test_fit_and_check_grids(self, monkeypatch, config):
        run = load_config(os.path.join(SHIPPED, config))
        calls = count_queries(monkeypatch, run.model)
        fit_blowup(run.model, blowup_grid(run.cost.horizon))
        assert calls == [("pushforward_cov", (20,)), ("proj_control", (20,))]
        calls.clear()
        assert checks._check_inclusion(run)[0]
        assert calls == [("pushforward_cov", (8,)), ("proj_control", (8,))]
        calls.clear()
        assert checks._check_lambda_norm_continuity(run)[0]
        # the grid, then one scalar query per bisection midpoint
        assert calls[:2] == [("pushforward_cov", (40,)), ("proj_control", (40,))]
        assert all(shape == () for _, shape in calls[2:])

    def test_rank_deficient_delay_build(self, monkeypatch):
        calls = []
        for name in ("gramian", "proj_control_delay"):
            def counted(cfg, t, _name=name, _query=getattr(delay, name)):
                calls.append((_name, np.shape(t)))
                return _query(cfg, t)
            monkeypatch.setattr(delay, name, counted)
        cfg = delay.DelayConfig(a0=np.zeros((2, 2)), b0=[[1.0], [0.0]],
                                sigma=[[1.0], [0.0]], delay=0.1)
        assert delay.kalman_rank(cfg) == 1
        delay.build_projected_model(cfg, horizon=1.0)
        assert calls == [("gramian", (5,)), ("proj_control_delay", (5,))]


class TestBlowupFit:
    def test_delay_rate_half(self, delay_scalar):
        fit = fit_blowup(delay_scalar, np.geomspace(1e-4, 1e-1, 20))
        assert abs(fit.slope + 0.5) <= 0.02

    def test_heat_default_range(self, heat_model):
        fit = fit_blowup(heat_model, np.geomspace(1e-4, 1e-1, 20))
        assert -1.05 <= fit.slope <= -0.40
        assert 0.0 < fit.gamma < 1.0

    def test_needs_enough_points(self, delay_scalar):
        with pytest.raises(ValueError):
            fit_blowup(delay_scalar, np.geomspace(1e-3, 1e-1, 5))

    def test_exclusion_windows(self):
        # the atom at delay d switches on at t = d: the fit leaves out the
        # points within 10% of it, and a grid inside that window leaves no
        # point: the model is refused as unfittable, not as a bad argument
        model = delay.build_projected_model(scalar_delay_config(c=2.0, d=0.01),
                                            horizon=1.0)
        assert model.control_discontinuities == (0.01,)
        fit = fit_blowup(model, np.geomspace(1e-4, 1e-1, 30))
        assert np.isfinite(fit.slope)
        with pytest.raises(SmoothingViolated, match="0 fit times left.*5 needed"):
            fit_blowup(model, np.geomspace(0.9 * 0.01, 1.1 * 0.01, 12))
