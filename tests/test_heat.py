import numpy as np
import pytest
from scipy.integrate import quad

from pshjb import heat
from pshjb.errors import ConfigError
from pshjb.smoothing import fit_blowup, inclusion_residual


class TestSpectrum:
    def test_squares(self):
        np.testing.assert_allclose(heat.eigenvalues(3), [1.0, 4.0, 9.0])

    def test_monotone(self):
        lam = heat.eigenvalues(50)
        assert np.all(np.diff(lam) > 0)

    def test_asymptotics(self):
        lam = heat.eigenvalues(200)
        n = np.arange(1, 201)
        np.testing.assert_allclose(lam / n**2, 1.0)


class TestDirichletMap:
    def test_zero_data(self):
        assert np.all(heat.dirichlet_map_coeffs((0.0, 0.0), 10) == 0.0)

    @pytest.mark.parametrize("a", [(1.0, 0.0), (0.0, 1.0), (0.7, -0.3)])
    def test_against_integration_oracle(self, a):
        # harmonic extension on (0, pi) is the linear interpolant of the
        # boundary data; project numerically on sqrt(2) sin(k xi)
        coeffs = heat.dirichlet_map_coeffs(a, 8)
        for k in range(1, 9):
            exact, _ = quad(
                lambda xi: (a[0] + (a[1] - a[0]) * xi / np.pi)
                * np.sqrt(2.0)
                * np.sin(k * xi),
                0.0,
                np.pi,
            )
            assert abs(coeffs[k - 1] - exact) <= 1e-10

    def test_control_coeffs_linear_growth(self):
        # coefficients of B0 a = (-A0) D a, the product proj_control uses
        c = heat.eigenvalues(400) * heat.dirichlet_map_coeffs((1.0, 0.0), 400)
        k = np.arange(1, 401)
        np.testing.assert_allclose(c, np.sqrt(2.0) * k)


class TestProjectedModel:
    def test_stationary_limit(self, heat_model):
        v = heat_model.v_matrix
        lam = heat.eigenvalues(heat_model.cfg.n_modes)
        target = (v * lam ** (-1.0)) @ v.T       # beta = 0
        np.testing.assert_allclose(heat_model.proj_cov(50.0), target, atol=1e-12)

    def test_small_time_slope(self, heat_model):
        # q_k(t) = lam^{-1-2b}(1 - e^{-2t lam}) ~ 2 t lam^{-2b}; Taylor oracle
        v = heat_model.v_matrix
        lam = heat.eigenvalues(heat_model.cfg.n_modes)
        t = 1e-9
        slope = heat_model.proj_cov(t) / t
        target = 2.0 * (v * lam**0.0) @ v.T
        np.testing.assert_allclose(slope, target, rtol=1e-4, atol=1e-6)

    def test_pushforward_and_cross(self, heat_model):
        s, t = 0.2, 0.7
        v = heat_model.v_matrix
        lam = heat.eigenvalues(heat_model.cfg.n_modes)
        q = lam ** (-1.0) * (1.0 - np.exp(-2.0 * (t - s) * lam))
        np.testing.assert_allclose(
            heat_model.pushforward_cov(s, t),
            (v * (np.exp(-2.0 * s * lam) * q)) @ v.T,
            atol=1e-14,
        )

    def test_pushforward_stack_equals_single(self, heat_model):
        # an array of s gives the per-s matrices bit for bit, in its shape
        n = heat_model.proj_dim
        for t in (1e-3, 0.15, 0.6, 1.0):
            s = t * np.sort(np.random.default_rng(2).uniform(0.01, 0.99, 12))
            got = heat_model.pushforward_cov(s, t)
            assert got.shape == (12, n, n)
            for si, c in zip(s, got):
                assert np.array_equal(heat_model.pushforward_cov(si, t), c)
            grid = heat_model.pushforward_cov(s.reshape(3, 4), t)
            assert np.array_equal(grid, got.reshape(3, 4, n, n))
        for bad in ([0.2, 0.0], [0.2, 1.0]):
            with pytest.raises(ValueError):
                heat_model.pushforward_cov(np.array(bad), 1.0)

    def test_semigroup_handles_growing_coefficients(self, heat_model):
        # states from the extrapolation space: coefficients growing like
        # lam^{3/4 + eps} must still produce finite projections for t > 0
        lam = heat.eigenvalues(heat_model.cfg.n_modes)
        x = lam ** (0.75 + 0.01)
        y = heat_model.proj_semigroup_apply(1e-3, x)
        assert np.all(np.isfinite(y))

    def test_projection_orthonormal(self, heat_model):
        v = heat_model.v_matrix
        np.testing.assert_allclose(v @ v.T, np.eye(v.shape[0]), atol=1e-12)

    def test_noise_smoothing_exponent(self):
        # beta > 0 colors the noise: stationary variance lam^{-1-2 beta}
        beta = 0.5
        m = heat.build_projected_model(heat.HeatConfig(beta=beta))
        v = m.v_matrix
        lam = heat.eigenvalues(m.cfg.n_modes)
        target = (v * lam ** (-1.0 - 2.0 * beta)) @ v.T
        np.testing.assert_allclose(m.proj_cov(60.0), target, atol=1e-14)
        fit = fit_blowup(m, np.geomspace(1e-4, 1e-1, 15))
        assert 0.0 < fit.gamma < 1.0

    def test_truncation_stability(self):
        m256 = heat.build_projected_model(heat.HeatConfig(n_modes=256))
        m512 = heat.build_projected_model(heat.HeatConfig(n_modes=512))
        for t in (1e-3, 1e-1, 1.0):
            c1, c2 = m256.proj_cov(t), m512.proj_cov(t)
            assert np.abs(c1 - c2).max() / np.abs(c2).max() < 1e-6
            b1, b2 = m256.proj_control(t), m512.proj_control(t)
            assert np.abs(b1 - b2).max() / np.abs(b2).max() < 1e-6


class TestConfigAndDecay:
    def test_epsilon_range_enforced(self):
        with pytest.raises(ConfigError):
            heat.HeatConfig(epsilon=0.3)
        with pytest.raises(ConfigError):
            heat.HeatConfig(epsilon=0.0)

    def test_beta_nonnegative(self):
        with pytest.raises(ConfigError):
            heat.HeatConfig(beta=-0.1)

    def test_spectral_modes_range(self):
        with pytest.raises(ConfigError):
            heat.HeatConfig(n_modes=8, projection="spectral", spectral_modes=(9,))

class TestBlowup:
    def test_default_slope_range(self, heat_model):
        fit = fit_blowup(heat_model, np.geomspace(1e-4, 1e-1, 20))
        assert -1.05 <= fit.slope <= -0.40

    def test_violating_config_exits_unit_interval(self):
        m = heat.build_projected_model(heat.HeatConfig(projection="slow"))
        # inclusion does not trip at finite truncation, so the documented
        # failure mode is the fitted exponent leaving (0, 1)
        for t in np.geomspace(1e-3, 0.5, 6):
            assert inclusion_residual(m.proj_cov(t), m.proj_control(t)) <= 1e-6
        fit = fit_blowup(m, np.geomspace(1e-4, 1e-1, 20))
        assert not 0.0 < fit.gamma < 1.0

    def test_unprojected_diagnostic(self):
        m = heat.build_projected_model(heat.HeatConfig(projection="identity"))
        fit = fit_blowup(m, np.geomspace(1e-4, 1e-1, 12))
        assert fit.slope <= -1.2
