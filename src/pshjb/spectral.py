"""Dense matrix functions, Gaussian expectations and quadrature rules.

Everything here works on small dense matrices (dimensions up to a few
hundred).  One routine, :func:`psd_roots`, decides everything about a PSD
matrix (square root, pseudo-inverse square root, rank, image projector) from
one symmetric eigendecomposition, so that pseudo-inverses annihilate the
kernel exactly instead of amplifying noise and every caller shares one rank
threshold.  The exponential of a general square matrix uses scaling and
squaring.  Gaussian expectations use one rule, tensor Gauss-Hermite, whose
order**dim nodes limit it to MAX_HERMITE_DIM dimensions; the time integrals
use Gauss-Jacobi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DimensionTooLarge, NotPSD

# Relative thresholds used throughout: eigenvalues below -TOL_PSD * lam_max
# raise NotPSD, eigenvalues below RANK_TOL * lam_max count as kernel.
TOL_PSD = 1e-10
RANK_TOL = 1e-12

# Largest dimension of the tensor Gauss-Hermite rule (order**dim nodes).
MAX_HERMITE_DIM = 3


@dataclass(frozen=True)
class GaussianMeasureN:
    """Gaussian measure on R^N given by mean vector and covariance matrix."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float)
        c = np.asarray(self.covariance, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or m.shape != (c.shape[0],):
            raise DimensionMismatch("mean length must equal covariance dim")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "covariance", c)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes/weights approximating expectations under N(0, I_dim).

    Nodes have shape (n_nodes, dim) and weights sum to one.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 2 or w.shape != (nodes.shape[0],):
            raise DimensionMismatch("nodes must be (n, dim), weights (n,)")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1 within 1e-12")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]


def _assert_psd_spectrum(lam: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each spectrum (last axis) of ``lam``; raises
    :class:`NotPSD` for the first spectrum with a too negative one."""
    lam_max = lam.max(axis=-1, initial=0.0)
    lam_min = lam.min(axis=-1, initial=0.0)
    bad = lam_min < -np.maximum(TOL_PSD * np.maximum(lam_max, 0.0), 1e-300)
    if bad.any():
        j = np.argmax(bad)
        lo, hi = lam_min.flat[j], lam_max.flat[j]
        raise NotPSD(f"eigenvalue {lo:.3e} below -{TOL_PSD:g} * lam_max ({hi:.3e})")
    return lam_max


def psd_roots(m) -> tuple[np.ndarray, np.ndarray, np.ndarray | int, np.ndarray]:
    """Symmetric square root, pseudo-inverse square root, numerical rank and
    image projector of a PSD matrix, or of each matrix of a stack
    (..., N, N), from one eigendecomposition of its symmetric part.

    Negative eigenvalues above ``-TOL_PSD * lam_max`` are clamped to zero
    (covariances assembled from exponentials accumulate rounding); anything
    below raises :class:`NotPSD`.  Eigenvalues above ``RANK_TOL * lam_max``
    span the numerical image: they count toward the rank (an int for one
    matrix), the projector is the sum of their eigenvectors' outer products,
    and on the image the pseudo-inverse root acts as ``m**-0.5``, on the
    kernel as zero.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch("expected a square matrix")
    lam, v = np.linalg.eigh(0.5 * (a + np.swapaxes(a, -1, -2)))
    lam_max = _assert_psd_spectrum(lam)
    keep = lam > RANK_TOL * lam_max[..., None]
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / np.sqrt(lam[keep])
    vt = np.swapaxes(v, -1, -2)
    root = (v * np.sqrt(np.clip(lam, 0.0, None))[..., None, :]) @ vt
    rank = np.count_nonzero(keep, axis=-1)
    return (root, (v * inv[..., None, :]) @ vt, int(rank) if rank.ndim == 0 else rank,
            (v * keep[..., None, :]) @ vt)


def build_quadrature(dim: int, order: int) -> QuadratureRule:
    """Tensor Gauss-Hermite rule for N(0, I_dim) with ``order`` nodes per axis.

    Exact for polynomials of degree <= 2*order - 1 per coordinate; its node
    count is order**dim, so it is refused above MAX_HERMITE_DIM dimensions.
    """
    if dim < 1:
        raise DimensionMismatch("dim must be >= 1")
    if dim > MAX_HERMITE_DIM:
        raise DimensionTooLarge(
            f"tensor Gauss-Hermite with dim={dim} > {MAX_HERMITE_DIM} "
            f"(node count {order}**{dim})"
        )
    x, w = np.polynomial.hermite.hermgauss(order)
    z = np.sqrt(2.0) * x          # physicists' -> standard normal nodes
    w = w / np.sqrt(np.pi)
    grids = np.meshgrid(*([z] * dim), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    weights = weights / weights.sum()
    return QuadratureRule(nodes, weights)


def gauss_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Jacobi rule (n >= 1) for the weight (1 + x)^beta on
    [-1, 1], beta > -1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    Jacobi matrix of the orthonormal Jacobi polynomials (alpha = 0), the
    weights the squared first eigenvector components times the total mass
    2^(beta+1) / (beta+1).  Exact for degree <= 2n - 1; nodes ascending.
    """
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + beta
    diag = np.concatenate(([beta / (beta + 2.0)], beta**2 / (s * (s + 2.0))))
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s - 1.0) * (s + 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, 2.0 ** (beta + 1.0) / (beta + 1.0) * v[0] ** 2


# Higham, "The scaling and squaring method for the matrix exponential
# revisited" (SIAM J. Matrix Anal. Appl. 26, 2005): theta_m is the largest
# 1-norm at which the [m/m] Pade approximant of exp is accurate to double
# precision, b_0..b_m are the approximant's coefficients.
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}
_PADE_COEFFS = {
    3: np.array([120.0, 60.0, 12.0, 1.0]),
    5: np.array([30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0]),
    7: np.array([17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                 1512.0, 56.0, 1.0]),
    9: np.array([17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                 30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0]),
    13: np.array([64764752532480000.0, 32382376266240000.0,
                  7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                  10559470521600.0, 670442572800.0, 33522128640.0,
                  1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0]),
}


def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each matrix of a stack
    (..., n, n), by scaling and squaring.

    Higham's 2005 algorithm, per matrix: the [m/m] Pade approximant with
    the lowest degree m in {3, 5, 7, 9, 13} whose theta_m bounds its
    1-norm; above theta_13, the matrix is scaled by 2^-s into range and the
    degree-13 approximant squared s times.  The matrices of one (m, s)
    group go through the same stacked operations, which compute each
    matrix as a call on it alone would, bit for bit.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch("expected a square matrix")
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    norms = np.abs(flat).sum(axis=-2).max(axis=-1, initial=0.0)
    keys = [_pade_key(norm) for norm in norms]
    groups = set(keys)
    if len(groups) == 1:                        # no gather and scatter
        return _pade_square(flat, *keys[0]).reshape(a.shape)
    out = np.empty_like(flat)
    for key in groups:
        sel = [i for i, k in enumerate(keys) if k == key]
        out[sel] = _pade_square(flat[sel], *key)
    return out.reshape(a.shape)


def _pade_key(norm) -> tuple[int, int]:
    """Pade degree m and scaling s of a matrix of 1-norm ``norm``."""
    for m, theta in _PADE_THETA.items():
        if norm <= theta:
            return m, 0
    if not np.isfinite(norm):
        raise ValueError("expm needs finite entries")
    return m, int(np.ceil(np.log2(norm / theta)))


def _pade_square(a: np.ndarray, m: int, s: int) -> np.ndarray:
    """exp of each matrix of the stack (g, n, n): the degree-m Pade
    approximant of a * 2^-s, squared s times."""
    if s:
        a = a * 2.0**-s
    # u and v are the odd and even parts of the approximant's numerator,
    # sums of b_k a^k; the even powers a^0, a^2, ... fill one array, so that
    # each sum is one vector-matrix product with the coefficients per matrix
    b, (g, n, _) = _PADE_COEFFS[m], a.shape
    k = 4 if m == 13 else m // 2 + 1
    p = np.empty((g, k, n, n))
    p[:, 0] = np.eye(n)
    np.matmul(a, a, out=p[:, 1])
    for i in range(2, k):
        np.matmul(p[:, i - 1], p[:, 1], out=p[:, i])
    p = p.reshape(g, k, n * n)
    mats = (g, n, n)
    if m == 13:
        # a^8 .. a^12 enter as a^6 times a^2, a^4, a^6
        a6 = p[:, 3].reshape(mats)
        u = a @ (a6 @ (b[9::2] @ p[:, 1:]).reshape(mats) + (b[1:9:2] @ p).reshape(mats))
        v = a6 @ (b[8::2] @ p[:, 1:]).reshape(mats) + (b[0:8:2] @ p).reshape(mats)
    else:
        u = a @ (b[1::2] @ p).reshape(mats)
        v = (b[0::2] @ p).reshape(mats)
    x = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        x = x @ x
    return x


def gauss_expectation(f, mu: GaussianMeasureN, rule: QuadratureRule) -> float:
    """Expectation of ``f`` under ``mu`` using a standard-normal rule.

    ``f`` must accept an (n, dim) array and return an (n,) array.  Points are
    ``mean + L @ node`` with ``L`` the square root of the covariance
    (:func:`psd_roots`).
    """
    if rule.dim != mu.dim:
        raise DimensionMismatch(
            f"rule dim {rule.dim} does not match measure dim {mu.dim}"
        )
    sqrt_cov = psd_roots(mu.covariance)[0]
    pts = mu.mean[None, :] + rule.nodes @ sqrt_cov.T
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (rule.nodes.shape[0],):
        raise DimensionMismatch("integrand must map (n, dim) -> (n,)")
    return float(rule.weights @ vals)
