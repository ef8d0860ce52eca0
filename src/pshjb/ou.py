"""Projected Ornstein-Uhlenbeck engine.

The infinite-dimensional uncontrolled state never appears explicitly: every
quantity the solver needs factors through a finite-rank projection P, and the
:class:`ProjectedModel` contract below collects exactly those projected
quantities.  On top of the contract this module provides the transition
semigroup acting on a projected terminal cost (any callable mapping (..., N)
float arrays to float arrays) and the Cameron-Martin density between
shifted Gaussians.

Covariance calls always require t > 0: the law at t = 0 is a point mass,
and the semigroup there is the terminal cost at the projected state.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NotInCameronMartin
from .spectral import QuadratureRule, gauss_expectation, psd_roots


class ProjectedModel:
    """Capability contract for the projected face of an OU control system.

    A state x is a 1-D coefficient vector (the heat model's spectral
    coefficients, the delay model's present n-vector).  Concrete models
    implement three queries, for the projection P onto an N-dimensional
    subspace and control space of dimension m:

    - ``proj_semigroup_apply(t, x)``: N-vector of P e^{tA} x (extension to
      the enlarged state space included), t >= 0; at t = 0 it is P x;
    - ``proj_control(t)``: N x m matrix of (P e^{tA}) C, t > 0; for an
      array of t, the stack (*t.shape, N, m) of these matrices, each equal
      bit for bit to the call with its t alone;
    - ``pushforward_cov(s, t)``: P e^{sA} Q_{t-s} e^{sA*} P*, 0 <= s < t;
      at s = 0 it is P Q_t P*; for arrays of s and t, which broadcast, the
      stack (*shape, N, N) of these matrices, each equal bit for bit to the
      call with its s and t alone.

    ``proj_cov(t)``, the N x N matrix of P Q_t P*, is defined here once as
    the s = 0 pushforward covariance.  The library queries a model only
    through these; the policy simulation builds the law of the projected
    noise from the pushforward covariances.  The solver's assembly asks for
    the s = 0 member and the pushforward covariances of one t in one call,
    the greedy simulation for the noise increments of all its steps (an
    array of s and one of t), and the simulation's control integrals for
    the control responses of one Gauss-Legendre piece.

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

    def proj_control(self, t) -> np.ndarray:
        raise NotImplementedError

    def pushforward_cov(self, s, t) -> np.ndarray:
        raise NotImplementedError

    def proj_cov(self, t) -> np.ndarray:
        return self.pushforward_cov(0.0, t)


def semigroup_apply(
    model: ProjectedModel,
    phi,
    t: float,
    y0: np.ndarray,
    rule: QuadratureRule,
) -> float:
    """Transition semigroup acting on a projected cost: R_t[phi](x).

    ``y0`` is the precomputed projected drift ``proj_semigroup_apply(t, x)``;
    the result is the expectation of ``phi(z + y0)`` over
    z ~ N(0, proj_cov(t)).
    """
    y0 = np.asarray(y0, dtype=float)
    if y0.shape != (model.proj_dim,):
        raise DimensionMismatch(f"y0 must be an N-vector, N={model.proj_dim}")
    return gauss_expectation(phi, y0, model.proj_cov(t), rule)


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
    _, pinv_sqrt, proj = psd_roots(cov)
    ny = np.linalg.norm(y)
    if ny > 0 and np.linalg.norm(y - proj @ y) > 1e-8 * ny:
        raise NotInCameronMartin(
            "shift has a component outside Im(cov^{1/2}); measures are singular"
        )
    u = pinv_sqrt @ y
    v = pinv_sqrt @ z
    return float(np.exp(u @ v - 0.5 * (u @ u)))
