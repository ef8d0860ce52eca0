import numpy as np
import pytest

from pshjb import costs
from pshjb.errors import NotInCameronMartin
from pshjb.ou import cameron_martin_density, semigroup_apply
from pshjb.spectral import build_quadrature, gauss_expectation

RULE1 = build_quadrature(1, 12)
RULE2 = build_quadrature(2, 10)


class TestSemigroupApply:
    def test_preserves_constants(self, heat_spectral1):
        phi = costs.constant_cost(5.0)
        for t in (0.01, 0.5, 2.0):
            val = semigroup_apply(heat_spectral1, phi, t, np.array([0.3]), RULE1)
            assert abs(val - 5.0) <= 1e-13

    def test_linear_terminal_cost(self, heat_spectral1):
        phi = lambda y: y[..., 0]
        y0 = np.array([-0.7])
        val = semigroup_apply(heat_spectral1, phi, 0.3, y0, RULE1)
        assert abs(val - y0[0]) <= 1e-12

    def test_quadratic_second_moment(self, heat_spectral1):
        phi = lambda y: y[..., 0] ** 2
        t, y0 = 0.4, np.array([0.5])
        q = heat_spectral1.proj_cov(t)[0, 0]
        val = semigroup_apply(heat_spectral1, phi, t, y0, RULE1)
        assert abs(val - (y0[0] ** 2 + q)) <= 1e-10

    def test_contraction_on_bounded(self, heat_model):
        phi = costs.tanh_cost([1.0, -2.0], 0.3, 1.7)
        for t in (0.05, 1.0):
            val = semigroup_apply(heat_model, phi, t, np.array([0.2, -0.1]), RULE2)
            assert abs(val) <= 1.7 + 1e-12             # sup|phi|, the scale

    def test_monotone(self, heat_model):
        lo = costs.tanh_cost([1.0, 0.5], 0.0, 1.0)
        hi = lambda y: lo(y) + 0.25
        y0 = np.array([0.4, 0.1])
        v_lo = semigroup_apply(heat_model, lo, 0.3, y0, RULE2)
        v_hi = semigroup_apply(heat_model, hi, 0.3, y0, RULE2)
        assert v_lo <= v_hi + 1e-12

    def test_chapman_kolmogorov(self, heat_spectral12):
        # spectral projection: P e^{sA} acts diagonally on the projected
        # coordinates, so the inner smoothed cost re-expresses through P
        model = heat_spectral12
        phi = costs.tanh_cost([1.0, -0.8], 0.1, 1.0)
        s, t = 0.3, 0.45
        lam = np.array([1.0, 4.0])
        x = np.zeros(64)
        x[:2] = [0.6, -0.4]
        rule = build_quadrature(2, 18)

        def inner(y):           # R_s[phi] as a function of projected coords
            flat = y.reshape(-1, 2)
            cov = model.proj_cov(s)
            vals = np.array(
                [
                    gauss_expectation(
                        lambda z: phi(z + yy),
                        np.zeros(2), cov,
                        rule,
                    )
                    for yy in flat
                ]
            )
            return vals.reshape(y.shape[:-1])

        phi_inner = lambda y: inner(y * np.exp(-s * lam))
        y0_t = model.proj_semigroup_apply(t, x)
        lhs = semigroup_apply(model, phi_inner, t, y0_t, rule)
        y0_ts = model.proj_semigroup_apply(t + s, x)
        rhs = semigroup_apply(model, phi, t + s, y0_ts, rule)
        assert abs(lhs - rhs) <= 1e-6


class TestCameronMartin:
    def test_zero_shift(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        for z in (np.zeros(2), np.array([1.0, -2.0])):
            assert cameron_martin_density(cov, np.zeros(2), z) == 1.0

    def test_scalar_closed_form(self):
        val = cameron_martin_density(np.eye(1), np.array([1.0]), np.array([0.0]))
        assert abs(val - np.exp(-0.5)) <= 1e-15

    def test_normalization(self):
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
        assert abs(total - 1.0) <= 1e-6

    def test_shift_identity_polynomials(self):
        # E_{N(0,C)}[d(C, y, .) g(.)] = E_{N(y,C)}[g] for deg <= 3
        cov = np.array([[1.2, -0.2], [-0.2, 0.8]])
        y = np.array([0.5, 0.3])
        rule = build_quadrature(2, 30)
        polys = [
            lambda z: z[:, 0],
            lambda z: z[:, 0] * z[:, 1],
            lambda z: z[:, 1] ** 3,
            lambda z: z[:, 0] ** 2 * z[:, 1],
        ]
        for g in polys:
            lhs = gauss_expectation(
                lambda z: np.array(
                    [cameron_martin_density(cov, y, zi) for zi in z]
                ) * g(z),
                np.zeros(2), cov,
                rule,
            )
            rhs = gauss_expectation(g, y, cov, rule)
            assert abs(lhs - rhs) <= 1e-6

    def test_not_in_cameron_martin(self):
        cov = np.diag([1.0, 0.0])       # image is the first axis
        with pytest.raises(NotInCameronMartin):
            cameron_martin_density(cov, np.array([0.0, 1.0]), np.zeros(2))


class TestModelContract:
    @pytest.mark.parametrize("which", ["heat", "delay"])
    def test_covariances_psd_and_trace_monotone(self, which, heat_model, delay_model):
        model = heat_model if which == "heat" else delay_model
        grid = np.geomspace(1e-3, 1.5, 12)
        traces = []
        for t in grid:
            cov = model.proj_cov(t)
            assert np.linalg.eigvalsh(cov).min() >= -1e-12
            traces.append(np.trace(cov))
        assert np.all(np.diff(traces) >= -1e-12)
        for s, t in ((0.1, 0.4), (0.3, 1.2)):
            assert np.linalg.eigvalsh(model.pushforward_cov(s, t)).min() >= -1e-12
