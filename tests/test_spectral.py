import os

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm
from scipy.special import roots_jacobi

from pshjb.config import load_config
from pshjb.delay import DelayConfig
from pshjb.errors import DimensionMismatch, DimensionTooLarge, NotPSD
from pshjb.spectral import (
    _PADE_THETA,
    GaussianMeasureN,
    QuadratureRule,
    build_quadrature,
    expm,
    gauss_expectation,
    gauss_jacobi,
    psd_roots,
)


def random_spd(rng, dim, min_eig=0.05):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + min_eig * np.eye(dim)


class TestPsdSqrt:
    """The square root of :func:`psd_roots`."""

    def test_identity(self):
        assert np.array_equal(psd_roots(np.eye(3))[0], np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(psd_roots(np.diag([4.0, 9.0]))[0], np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("dim", [1, 2, 5, 11, 20])
    def test_roundtrip_random_spd(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            m = random_spd(rng, dim)
            r = psd_roots(m)[0]
            err = np.linalg.norm(r @ r - m) / np.linalg.norm(m)
            assert err <= 1e-10
            np.testing.assert_allclose(r, r.T)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            psd_roots(np.diag([1.0, -0.5]))

    def test_clamps_tiny_negative(self):
        m = np.diag([1.0, -1e-14])
        r = psd_roots(m)[0]
        assert r[1, 1] == 0.0


class TestPsdPinvSqrt:
    """The pseudo-inverse square root, rank and image projector of
    :func:`psd_roots`."""

    def test_kernel_annihilated(self):
        _, r, rank, proj = psd_roots(np.diag([4.0, 0.0]))
        np.testing.assert_allclose(r, np.diag([0.5, 0.0]))
        np.testing.assert_allclose(proj, np.diag([1.0, 0.0]))
        assert rank == 1

    def test_identity(self):
        _, r, rank, proj = psd_roots(np.eye(2))
        np.testing.assert_allclose(r, np.eye(2))
        np.testing.assert_allclose(proj, np.eye(2))
        assert rank == 2

    def test_rank_tolerance(self):
        # 1e-20 / 9 lies below RANK_TOL: the eigenvalue counts as kernel
        _, r, rank, proj = psd_roots(np.diag([9.0, 1e-20]))
        np.testing.assert_allclose(r, np.diag([1.0 / 3.0, 0.0]))
        np.testing.assert_allclose(proj, np.diag([1.0, 0.0]))
        assert rank == 1

    def test_projector_property(self):
        rng = np.random.default_rng(5)
        for dim in (3, 6):
            basis = rng.standard_normal((dim, dim - 1))
            m = basis @ basis.T              # rank dim-1
            root, pinv, rank, proj = psd_roots(m)
            assert rank == dim - 1
            # the orthogonal projector onto the span of the basis
            np.testing.assert_allclose(proj, basis @ np.linalg.pinv(basis), atol=1e-8)
            np.testing.assert_allclose(pinv @ root, proj, atol=1e-8)
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-8)


class TestPsdRoots:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stack_equals_single_matrices(self, dim):
        # one decomposition per matrix of a (2, 3, dim, dim) stack gives the
        # results of one-matrix calls bit for bit, a singular matrix included
        rng = np.random.default_rng(dim)
        mats = np.stack([random_spd(rng, dim) for _ in range(6)])
        mats[4] = np.outer(mats[4][0], mats[4][0])        # rank 1
        roots, pinvs, ranks, projs = psd_roots(mats.reshape(2, 3, dim, dim))
        assert roots.shape == pinvs.shape == projs.shape == (2, 3, dim, dim)
        assert ranks.shape == (2, 3)
        for m, *stacked in zip(mats, roots.reshape(mats.shape),
                               pinvs.reshape(mats.shape), ranks.ravel(),
                               projs.reshape(mats.shape)):
            single = psd_roots(m)
            assert all(np.array_equal(a, b) for a, b in zip(stacked, single))
            assert type(single[2]) is int
        assert ranks.ravel()[4] == 1

    def test_one_bad_matrix_in_a_stack_raises(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -0.5])])
        with pytest.raises(NotPSD, match="-5.000e-01"):
            psd_roots(stack)


class TestQuadrature:
    def test_hermite_1d(self):
        rule = build_quadrature(1, 8)
        assert rule.nodes.shape == (8, 1)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12

    def test_hermite_tensor_count(self):
        rule = build_quadrature(2, 8)
        assert rule.nodes.shape == (64, 2)

    def test_hermite_dim_limit(self):
        assert build_quadrature(3, 2).nodes.shape == (8, 3)
        for dim in (4, 5):
            with pytest.raises(DimensionTooLarge):
                build_quadrature(dim, 4)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.zeros((2, 1)), np.array([0.5, 0.6]))


class TestGaussExpectation:
    def test_constant(self):
        rule = build_quadrature(2, 4)
        mu = GaussianMeasureN(np.zeros(2), np.eye(2))
        est = gauss_expectation(lambda z: np.full(len(z), 3.25), mu, rule)
        assert abs(est - 3.25) <= 1e-14

    def test_second_moment(self):
        rule = build_quadrature(1, 8)
        sigma2 = 0.7
        mu = GaussianMeasureN(np.zeros(1), np.array([[sigma2]]))
        est = gauss_expectation(lambda z: z[:, 0] ** 2, mu, rule)
        assert abs(est - sigma2) <= 1e-8

    def test_mean_linearity(self):
        rng = np.random.default_rng(0)
        mean = rng.standard_normal(2)
        cov = random_spd(rng, 2)
        rule = build_quadrature(2, 6)
        est = gauss_expectation(lambda z: z[:, 0], GaussianMeasureN(mean, cov), rule)
        assert abs(est - mean[0]) <= 1e-12

    @pytest.mark.parametrize("order", [4, 8])
    def test_polynomial_exactness(self, order):
        # exact for degree <= 2*order - 1 per variable
        rule = build_quadrature(1, order)
        mu = GaussianMeasureN(np.zeros(1), np.eye(1))
        deg = 2 * order - 2
        est = gauss_expectation(lambda z: z[:, 0] ** deg, mu, rule)
        exact = float(np.prod(np.arange(deg - 1, 0, -2)))   # (deg-1)!!
        assert abs(est - exact) <= 1e-12 * max(exact, 1.0)

    def test_dimension_mismatch(self):
        rule = build_quadrature(2, 4)
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


ROOT = os.path.join(os.path.dirname(__file__), "..")
EXPM_TIMES = np.linspace(1e-4, 1.0, 40)
STIFF = DelayConfig(a0=np.diag([-50.0, -0.2]), b0=np.zeros((2, 1)),
                    sigma=np.eye(2), delay=0.1)


def max_rel_error(x, ref):
    """Largest entry error relative to the largest entry of ``ref``."""
    return np.abs(x - ref).max() / np.abs(ref).max()


class TestExpm:
    @pytest.mark.parametrize("path", ["configs/delay.yaml",
                                      "bench/workloads/delay.yaml"])
    def test_matches_scipy_on_delay_configs(self, path):
        cfg = load_config(os.path.join(ROOT, path)).model.cfg
        for gen in (cfg.a0, cfg.van_loan):
            for t in EXPM_TIMES:
                assert max_rel_error(expm(t * gen), scipy_expm(t * gen)) <= 1e-14

    def test_matches_scipy_on_stiff_drift(self):
        for t in EXPM_TIMES:
            a = t * STIFF.a0
            assert max_rel_error(expm(a), scipy_expm(a)) <= 1e-14

    def test_stiff_van_loan_block(self):
        # per coordinate, e^{t [[-d, 1], [0, d]]} = [[e^{-dt}, sinh(dt) / d],
        # [0, e^{dt}]]; measured over EXPM_TIMES: 1.8e-13 against this closed
        # form (scipy: 3.8e-13) and 3.8e-13 against scipy
        d = np.diag(STIFF.a0)
        for t in EXPM_TIMES:
            exact = np.zeros((4, 4))
            exact[:2, :2] = np.diag(np.exp(-d * t))
            exact[:2, 2:] = np.diag(np.sinh(d * t) / d)
            exact[2:, 2:] = np.diag(np.exp(d * t))
            f = expm(t * STIFF.van_loan)
            assert max_rel_error(f, exact) <= 2.5e-13
            assert max_rel_error(f, scipy_expm(t * STIFF.van_loan)) <= 5e-13

    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    @pytest.mark.parametrize("d", [[-3.0, 0.5, 2.0], [-50.0, -0.2], [12.0, -7.0, 0.0]])
    def test_diagonal_matches_exp(self, d):
        # entrywise: the worst measured, 3.4e-14, is e^-50 after 4 squarings
        f = expm(np.diag(d))
        assert np.array_equal(f, np.diag(np.diag(f)))
        np.testing.assert_allclose(np.diag(f), np.exp(d), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("t", [1e-3, 0.1, 0.3, 2.0, 5.0])
    def test_nilpotent(self, t):
        # a^2 = 0, so the approximant is exact; what is left is the rounding
        # of one solve (measured: exact, but for a diagonal 1 ulp below 1 at
        # t = 5).  These t need no scaling: each squaring doubles that
        # diagonal error (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31,
        # 2009, on overscaling).
        f = expm([[0.0, t], [0.0, 0.0]])
        np.testing.assert_allclose(f, [[1.0, t], [0.0, 1.0]], rtol=0,
                                   atol=np.finfo(float).eps * max(1.0, t))

    @pytest.mark.parametrize("degree, norm", [
        (3, 0.95 * _PADE_THETA[3]), (5, 0.95 * _PADE_THETA[5]),
        (7, 0.95 * _PADE_THETA[7]), (9, 0.95 * _PADE_THETA[9]),
        (13, 0.95 * _PADE_THETA[13]), (13, 3.0 * _PADE_THETA[13]),
    ])
    def test_each_pade_degree(self, degree, norm):
        # a symmetric argument with known eigenvectors: e^a = q e^lam q*
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((4, 4)))
        lam = np.array([-1.0, -0.3, 0.4, 1.0])
        lam *= norm / np.abs((q * lam) @ q.T).sum(axis=0).max()
        a = (q * lam) @ q.T
        lower = max([th for m, th in _PADE_THETA.items() if m < degree], default=0.0)
        assert lower < np.abs(a).sum(axis=0).max() <= max(norm, _PADE_THETA[degree])
        assert max_rel_error(expm(a), (q * np.exp(lam)) @ q.T) <= 1e-14

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            expm(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            expm(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_stack_equals_single_matrices(self, n):
        # a shuffled stack with 1-norms in every Pade band, theta_3 to
        # theta_13, and above theta_13 (1 to 5 squarings), and a zero
        # matrix: each matrix as a call on it alone, bit for bit
        rng = np.random.default_rng(n)
        thetas = list(_PADE_THETA.values())
        norms = [0.0] + [f * th for th in thetas for f in (0.6, 0.99)]
        norms += [f * thetas[-1] for f in (1.01, 1.9, 3.5, 9.0, 20.0)]
        stack = []
        for norm in norms:
            a = rng.standard_normal((n, n))
            stack.append(a * (norm / np.abs(a).sum(axis=0).max()))
        stack = np.array(stack)[rng.permutation(len(norms))]
        bands = np.searchsorted(thetas, np.abs(stack).sum(axis=-2).max(axis=-1))
        assert set(bands) == set(range(len(thetas) + 1))
        got = expm(stack)
        assert got.shape == stack.shape
        for a, x in zip(stack, got):
            alone = expm(a)
            assert alone.shape == (n, n)
            assert np.array_equal(alone, x)
        # any leading shape; an empty stack
        nested = expm(stack[:12].reshape(3, 4, n, n))
        assert np.array_equal(nested, got[:12].reshape(3, 4, n, n))
        assert expm(np.zeros((0, n, n))).shape == (0, n, n)


class TestContainers:
    def test_gaussian_measure_dims(self):
        with pytest.raises(DimensionMismatch):
            GaussianMeasureN(np.zeros(2), np.eye(3))
