"""Projected Ornstein-Uhlenbeck engine.

The infinite-dimensional uncontrolled state never appears explicitly: every
quantity the solver needs factors through a finite-rank projection P, and the
:class:`ProjectedModel` contract below collects exactly those projected
quantities.  On top of the contract this module provides the transition
semigroup acting on projected terminal costs, the Cameron-Martin density
between shifted Gaussians, and the assembly of a block covariance (the joint
law of the projected noise at several times) from its blocks.

Covariance calls always require t > 0; at t = 0 the projected dynamics are
only defined on the original state space and callers evaluate the terminal
cost directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotInCameronMartin
from .spectral import (
    GaussianMeasureN,
    QuadratureRule,
    gauss_expectation,
    psd_roots,
)


class ProjectedModel:
    """Capability contract for the projected face of an OU control system.

    Concrete models expose, for the projection P onto an N-dimensional
    subspace and control space of dimension m:

    - ``proj_semigroup_apply(t, x)``: N-vector of P e^{tA} x (extension to
      the enlarged state space included), t > 0;
    - ``project_state(x)``: N-vector of P x for states x of the original
      space (the t -> 0 limit of the above);
    - ``proj_cov(t)``: N x N matrix of P Q_t P*;
    - ``proj_control(t)``: N x m matrix of (P e^{tA}) C;
    - ``pushforward_cov(s, t)``: P e^{sA} Q_{t-s} e^{sA*} P*, 0 < s < t; for
      an array of s, the stack (*s.shape, N, N) of these matrices, each
      equal bit for bit to the call with its s alone.

    The library queries a model only through these; the policy simulation
    builds the law of the projected noise from the two covariances.  The
    solver's assembly and the greedy simulation ask for all the pushforward
    covariances of one t in one call.

    Implementations must be immutable after construction; all queries are
    pure so they can run concurrently.
    """

    proj_dim: int
    control_dim: int

    # time values where t -> proj_control(t) jumps (delay atoms); empty for
    # models with continuous control response
    control_discontinuities: tuple[float, ...] = ()

    def proj_semigroup_apply(self, t: float, x) -> np.ndarray:
        raise NotImplementedError

    def project_state(self, x) -> np.ndarray:
        raise NotImplementedError

    def proj_cov(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def proj_control(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def pushforward_cov(self, s, t: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ProjectedTerminalCost:
    """Bounded terminal cost evaluated on projected coordinates.

    ``phi_bar`` must be vectorized: it maps (..., N) arrays to (...) arrays.
    ``bound`` is a declared sup bound used in smoothing estimates.
    """

    phi_bar: object
    bound: float

    def __call__(self, y) -> np.ndarray:
        return np.asarray(self.phi_bar(np.asarray(y, dtype=float)), dtype=float)


def _check_time(t: float):
    if not t > 0.0:
        raise ValueError(f"covariance calls require t > 0, got t={t!r}")


def semigroup_apply(
    model: ProjectedModel,
    phi: ProjectedTerminalCost,
    t: float,
    y0: np.ndarray,
    rule: QuadratureRule,
) -> float:
    """Transition semigroup acting on a projected cost: R_t[phi](x).

    ``y0`` is the precomputed projected drift ``proj_semigroup_apply(t, x)``;
    the result is the expectation of ``phi_bar(z + y0)`` over
    z ~ N(0, proj_cov(t)).
    """
    _check_time(t)
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (model.proj_dim,):
        raise DimensionMismatch(f"y0 must be an N-vector, N={model.proj_dim}")
    mu = GaussianMeasureN(y0, model.proj_cov(t))
    return gauss_expectation(lambda z: phi(z), mu, rule)


def cameron_martin_density(cov, y, z) -> float:
    """Radon-Nikodym density dN(y, cov)/dN(0, cov) evaluated at z.

    Requires y in the image of cov^{1/2} (the two measures are otherwise
    singular): the component of y outside the numerical image
    (:func:`psd_roots`) must stay below ``1e-8 * |y|``.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if y.shape != z.shape or cov.shape != (y.size, y.size):
        raise DimensionMismatch("cov must be NxN with y, z of length N")
    _, pinv_sqrt, _, proj = psd_roots(cov)
    ny = np.linalg.norm(y)
    if ny > 0 and np.linalg.norm(y - proj @ y) > 1e-8 * ny:
        raise NotInCameronMartin(
            "shift has a component outside Im(cov^{1/2}); measures are singular"
        )
    u = pinv_sqrt @ y
    v = pinv_sqrt @ z
    return float(np.exp(u @ v - 0.5 * (u @ u)))


def assemble_block_cov(cov_fn, k: int, n: int) -> np.ndarray:
    """Stack an k*n x k*n covariance from the block kernel cov_fn(i, j)."""
    big = np.empty((k * n, k * n))
    for i in range(k):
        for j in range(i, k):
            block = np.asarray(cov_fn(i, j), dtype=float)
            big[i * n : (i + 1) * n, j * n : (j + 1) * n] = block
            big[j * n : (j + 1) * n, i * n : (i + 1) * n] = block.T
    return big
