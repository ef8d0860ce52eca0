"""Dense matrix functions, Gaussian expectations and quadrature rules.

Everything here works on small dense matrices (dimensions up to a few
hundred).  One routine, :func:`psd_roots`, decides everything about a PSD
matrix (square root, pseudo-inverse square root, image projector) from
one symmetric eigendecomposition, so that pseudo-inverses annihilate the
kernel exactly instead of amplifying noise and every caller shares one rank
threshold.  The exponential of a general square matrix, or of a stack of
them, uses scaling and squaring around the one [13/13] Pade approximant.
Gaussian expectations use one rule, tensor Gauss-Hermite, whose order**dim
nodes limit it to MAX_HERMITE_DIM dimensions; the time integrals use
Gauss-Jacobi.
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


def psd_roots(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric square root, pseudo-inverse square root and image
    projector of a PSD matrix, or of each matrix of a stack
    (..., N, N), from one eigendecomposition of its symmetric part.

    Negative eigenvalues above ``-TOL_PSD * lam_max`` are clamped to zero
    (covariances assembled from exponentials accumulate rounding); anything
    below raises :class:`NotPSD`.  Eigenvalues above ``RANK_TOL * lam_max``
    span the numerical image: the projector is the sum of their
    eigenvectors' outer products (its trace is the numerical rank),
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
    return root, (v * inv[..., None, :]) @ vt, (v * keep[..., None, :]) @ vt


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
# revisited" (SIAM J. Matrix Anal. Appl. 26, 2005): _THETA_13 is the largest
# 1-norm at which the [13/13] Pade approximant of exp is accurate to double
# precision, _PADE_13 its coefficients b_0..b_13 divided by b_0 (with the raw
# b_0 = 6.5e16 the solve rounds exp(0) to 1 - ulp on the diagonal).
_THETA_13 = 5.371920351148152e0
_PADE_13 = np.array([64764752532480000.0, 32382376266240000.0,
                     7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                     10559470521600.0, 670442572800.0, 33522128640.0,
                     1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0,
                     1.0]) / 64764752532480000.0


def expm(a) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each matrix of a stack
    (..., n, n), by scaling and squaring.

    Higham's 2005 algorithm with the one Pade degree 13: each matrix is
    scaled by 2^-s, with s the least integer >= 0 that brings its 1-norm to
    theta_13 or below, the [13/13] approximant is evaluated once over the
    whole stack, and each matrix is squared its own s times.  Every step
    works per matrix, so each matrix of a stack comes out as a call on it
    alone would give it, bit for bit.  A non-finite entry, or finite
    entries whose 1-norm overflows, raise ValueError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch("expected a square matrix")
    n = a.shape[-1]
    x = a.reshape(-1, n, n)
    with np.errstate(over="ignore"):        # finite entries may sum to inf
        norms = np.abs(x).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.isfinite(norms).all():
        if not np.isfinite(x).all():
            raise ValueError("expm needs finite entries")
        raise ValueError("the 1-norm of a matrix overflows; expm cannot scale it")
    s = np.ceil(np.log2(np.maximum(norms, _THETA_13) / _THETA_13)).astype(int)
    x = np.ldexp(x, -s[:, None, None])          # exact: a power of two
    # u and v are the odd and even parts of the numerator, sums of b_k x^k:
    # x^0, x^2, x^4, x^6 fill one array, so each sum is one vector-matrix
    # product per matrix, and x^8 .. x^12 enter as x^6 times x^2, x^4, x^6
    b, g, mats = _PADE_13, len(x), x.shape
    p = np.empty((g, 4, n, n))
    p[:, 0] = np.eye(n)
    np.matmul(x, x, out=p[:, 1])
    np.matmul(p[:, 1], p[:, 1], out=p[:, 2])
    np.matmul(p[:, 2], p[:, 1], out=p[:, 3])
    x6, p = p[:, 3], p.reshape(g, 4, n * n)
    u = x @ (x6 @ (b[9::2] @ p[:, 1:]).reshape(mats) + (b[1:9:2] @ p).reshape(mats))
    v = x6 @ (b[8::2] @ p[:, 1:]).reshape(mats) + (b[0:8:2] @ p).reshape(mats)
    x = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max(initial=0))):
        on = s > k
        x[on] = x[on] @ x[on]
    return x.reshape(a.shape)


def gauss_expectation(f, mean, cov, rule: QuadratureRule) -> float:
    """Expectation of ``f`` under N(mean, cov) using a standard-normal rule.

    ``f`` must accept an (n, dim) array and return an (n,) array.  Points are
    ``mean + L @ node`` with ``L`` the square root of the covariance
    (:func:`psd_roots`).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or mean.shape != (cov.shape[0],):
        raise DimensionMismatch("mean length must equal covariance dim")
    if rule.dim != mean.size:
        raise DimensionMismatch(
            f"rule dim {rule.dim} does not match measure dim {mean.size}"
        )
    sqrt_cov = psd_roots(cov)[0]
    pts = mean[None, :] + rule.nodes @ sqrt_cov.T
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (rule.nodes.shape[0],):
        raise DimensionMismatch("integrand must map (n, dim) -> (n,)")
    return float(rule.weights @ vals)
