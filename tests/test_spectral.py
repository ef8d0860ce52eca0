import numpy as np
import pytest
from scipy.special import roots_jacobi

from pshjb.errors import DimensionMismatch, DimensionTooLarge, NotPSD
from pshjb.spectral import (
    GaussianMeasureN,
    QuadratureRule,
    build_quadrature,
    gauss_expectation,
    gauss_jacobi,
    psd_image_projector,
    psd_pinv_sqrt,
    psd_sqrt,
)


def random_spd(rng, dim, min_eig=0.05):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + min_eig * np.eye(dim)


class TestPsdSqrt:
    def test_identity(self):
        assert np.array_equal(psd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("dim", [1, 2, 5, 11, 20])
    def test_roundtrip_random_spd(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            m = random_spd(rng, dim)
            r = psd_sqrt(m)
            err = np.linalg.norm(r @ r - m) / np.linalg.norm(m)
            assert err <= 1e-10
            np.testing.assert_allclose(r, r.T)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_clamps_tiny_negative(self):
        m = np.diag([1.0, -1e-14])
        r = psd_sqrt(m)
        assert r[1, 1] == 0.0


class TestPsdPinvSqrt:
    def test_kernel_annihilated(self):
        r, rank = psd_pinv_sqrt(np.diag([4.0, 0.0]))
        np.testing.assert_allclose(r, np.diag([0.5, 0.0]))
        assert rank == 1

    def test_identity(self):
        r, rank = psd_pinv_sqrt(np.eye(2))
        np.testing.assert_allclose(r, np.eye(2))
        assert rank == 2

    def test_rank_tolerance(self):
        r, rank = psd_pinv_sqrt(np.diag([9.0, 1e-20]), rank_tol=1e-12)
        np.testing.assert_allclose(r, np.diag([1.0 / 3.0, 0.0]))
        assert rank == 1

    def test_projector_property(self):
        rng = np.random.default_rng(5)
        for dim in (3, 6):
            basis = rng.standard_normal((dim, dim - 1))
            m = basis @ basis.T              # rank dim-1
            pinv, rank = psd_pinv_sqrt(m)
            assert rank == dim - 1
            proj = pinv @ psd_sqrt(m)
            np.testing.assert_allclose(proj, psd_image_projector(m), atol=1e-8)
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-8)


class TestQuadrature:
    def test_hermite_1d(self):
        rule = build_quadrature(1, "tensor-hermite", 8)
        assert rule.nodes.shape == (8, 1)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12

    def test_hermite_tensor_count(self):
        rule = build_quadrature(2, "tensor-hermite", 8)
        assert rule.nodes.shape == (64, 2)

    def test_hermite_dim_limit(self):
        with pytest.raises(DimensionTooLarge):
            build_quadrature(5, "tensor-hermite", 4)

    def test_mc_reproducible(self):
        r1 = build_quadrature(6, "monte-carlo", 10_000, seed=42)
        r2 = build_quadrature(6, "monte-carlo", 10_000, seed=42)
        assert np.array_equal(r1.nodes, r2.nodes)
        assert np.array_equal(r1.weights, r2.weights)

    def test_mc_requires_seed(self):
        with pytest.raises(ValueError):
            build_quadrature(2, "monte-carlo", 100)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            QuadratureRule("tensor-hermite", np.zeros((2, 1)), np.array([0.5, 0.6]))


class TestGaussExpectation:
    def test_constant(self):
        rule = build_quadrature(2, "tensor-hermite", 4)
        mu = GaussianMeasureN(np.zeros(2), np.eye(2))
        est = gauss_expectation(lambda z: np.full(len(z), 3.25), mu, rule)
        assert abs(est - 3.25) <= 1e-14

    def test_second_moment(self):
        rule = build_quadrature(1, "tensor-hermite", 8)
        sigma2 = 0.7
        mu = GaussianMeasureN(np.zeros(1), np.array([[sigma2]]))
        est = gauss_expectation(lambda z: z[:, 0] ** 2, mu, rule)
        assert abs(est - sigma2) <= 1e-8

    def test_mean_linearity(self):
        rng = np.random.default_rng(0)
        mean = rng.standard_normal(2)
        cov = random_spd(rng, 2)
        rule = build_quadrature(2, "tensor-hermite", 6)
        est = gauss_expectation(lambda z: z[:, 0], GaussianMeasureN(mean, cov), rule)
        assert abs(est - mean[0]) <= 1e-12

    @pytest.mark.parametrize("order", [4, 8])
    def test_polynomial_exactness(self, order):
        # exact for degree <= 2*order - 1 per variable
        rule = build_quadrature(1, "tensor-hermite", order)
        mu = GaussianMeasureN(np.zeros(1), np.eye(1))
        deg = 2 * order - 2
        est = gauss_expectation(lambda z: z[:, 0] ** deg, mu, rule)
        exact = float(np.prod(np.arange(deg - 1, 0, -2)))   # (deg-1)!!
        assert abs(est - exact) <= 1e-12 * max(exact, 1.0)

    def test_mc_stderr(self):
        rule = build_quadrature(3, "monte-carlo", 20_000, seed=1)
        mu = GaussianMeasureN(np.zeros(3), np.eye(3))
        est, se = gauss_expectation(
            lambda z: z[:, 0] ** 2, mu, rule, return_stderr=True
        )
        assert se > 0
        assert abs(est - 1.0) <= 4 * se

    def test_dimension_mismatch(self):
        rule = build_quadrature(2, "tensor-hermite", 4)
        mu = GaussianMeasureN(np.zeros(3), np.eye(3))
        with pytest.raises(DimensionMismatch):
            gauss_expectation(lambda z: z[:, 0], mu, rule)


# the time rule of the Picard map uses beta = gamma / (1 - gamma), gamma in (0, 1)
JACOBI_BETAS = [g / (1.0 - g) for g in np.linspace(0.05, 0.95, 19)]


class TestGaussJacobi:
    @pytest.mark.parametrize("n", range(1, 29))
    def test_matches_scipy(self, n):
        for beta in JACOBI_BETAS:
            x, w = gauss_jacobi(n, beta)
            xs, ws = roots_jacobi(n, 0.0, beta)
            assert np.all(np.diff(x) > 0)
            assert np.abs(x - xs).max() <= 1e-14
            assert np.abs(w - ws).max() <= 1e-13 * ws.sum()

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 12, 21, 28])
    def test_polynomial_exactness(self, n):
        # I_k = int_{-1}^{1} (1+x)^beta x^k dx from integration by parts,
        # (beta + 1 + k) I_k = 2^(beta+1) - k I_{k-1}, a contracting recursion;
        # the error is relative to sum_i w_i |x_i|^k, the rounding scale of
        # the quadrature sum (odd moments cancel)
        for beta in JACOBI_BETAS:
            x, w = gauss_jacobi(n, beta)
            exact = 2.0 ** (beta + 1.0) / (beta + 1.0)
            for k in range(2 * n):
                if k:
                    exact = (2.0 ** (beta + 1.0) - k * exact) / (beta + 1.0 + k)
                scale = w @ np.abs(x) ** k
                assert abs(w @ x**k - exact) <= 1e-13 * scale

    def test_legendre_limit(self):
        x, w = gauss_jacobi(5, 0.0)
        xl, wl = np.polynomial.legendre.leggauss(5)
        np.testing.assert_allclose(x, xl, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w, wl, rtol=0, atol=1e-15)


class TestContainers:
    def test_gaussian_measure_dims(self):
        with pytest.raises(DimensionMismatch):
            GaussianMeasureN(np.zeros(2), np.eye(3))
