"""Dirichlet boundary-controlled stochastic heat equation on (0, pi).

States live in the spectral basis e_k = sqrt(2) sin(k xi) of the Dirichlet
Laplacian with eigenvalues -lambda_k = -k^2.  The boundary control enters
through B0 = (-A0) D where D is the harmonic-extension (Dirichlet) map; its
coefficients grow linearly in k, i.e. B0 maps out of L^2, which is the whole
point of the exercise.  Everything the solver needs is projected onto a small
span of smooth vectors v_1..v_N, where the closed forms below make every
covariance a diagonal congruence V diag(.) V^T.

Noise convention: the stationary modal variance is lambda_k^{-1-2 beta}, i.e.
q_k(t) = lambda_k^{-1-2 beta} (1 - e^{-2 t lambda_k}); pushforward
covariances follow from the exact OU shift identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .ou import ProjectedModel


def eigenvalues(n_modes: int) -> np.ndarray:
    """Dirichlet Laplacian spectrum on (0, pi): lambda_k = k^2, k = 1..n."""
    if n_modes < 1:
        raise ConfigError("n_modes must be >= 1")
    k = np.arange(1, n_modes + 1, dtype=float)
    return k**2


def dirichlet_map_coeffs(a, n_modes: int) -> np.ndarray:
    """Spectral coefficients of the harmonic extension of boundary data.

    On (0, pi) the extension of (a0, a1) is the linear function
    a0 + (a1 - a0) xi / pi, whose k-th sine coefficient is
    sqrt(2) (a0 - (-1)^k a1) / k.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (2,):
        raise DimensionMismatch("boundary data must be a 2-vector")
    k = np.arange(1, n_modes + 1, dtype=float)
    sign = np.where(np.arange(1, n_modes + 1) % 2 == 0, 1.0, -1.0)
    return np.sqrt(2.0) * (a[0] - sign * a[1]) / k


@dataclass(frozen=True)
class HeatConfig:
    """Configuration of the projected boundary-control heat model.

    ``projection`` selects how the N projection vectors are built:

    - ``"bumps"``: indicator profiles smoothed by (-A0)^{-alpha}, then
      orthonormalized (default; coefficient decay lambda_k^{-alpha - 1/2});
    - ``"spectral"``: eigenvectors e_k for k in ``spectral_modes`` (the case
      with scalar closed forms);
    - ``"slow"``: deliberately under-smoothed vectors with coefficient decay
      k^{-slow_decay} (a configuration violating alpha > beta + 1/4, kept
      for negative tests);
    - ``"identity"``: no projection at all (P = identity on the truncated
      modes), used for the unprojected blow-up diagnostic.
    """

    n_modes: int = 256
    beta: float = 0.0
    epsilon: float = 0.01
    alpha: float = 1.0
    n_proj: int = 2
    projection: str = "bumps"
    spectral_modes: tuple[int, ...] = (1,)
    slow_decay: float = 0.5

    def __post_init__(self):
        if self.n_modes < 1:
            raise ConfigError("n_modes must be >= 1")
        if not 0.0 < self.epsilon < 0.25:
            raise ConfigError("epsilon must lie in (0, 1/4)")
        if self.beta < 0.0:
            raise ConfigError("beta must be >= 0")
        if self.projection not in ("bumps", "spectral", "slow", "identity"):
            raise ConfigError(f"unknown projection kind {self.projection!r}")
        if self.projection == "bumps" and not self.n_proj >= 1:
            raise ConfigError("n_proj must be >= 1")
        if self.projection == "spectral":
            if any(not 1 <= m <= self.n_modes for m in self.spectral_modes):
                raise ConfigError("spectral modes out of range")


def _orthonormal_rows(raw: np.ndarray) -> np.ndarray:
    """Orthonormalize rows so P x = sum_i <x, v_i> v_i is a projection."""
    q, r = np.linalg.qr(raw.T)
    # fix signs so each vector correlates positively with its raw version
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T


def projection_matrix(cfg: HeatConfig) -> np.ndarray:
    """N x n_modes matrix V of projection-vector coefficients <v_i, e_k>."""
    lam = eigenvalues(cfg.n_modes)
    k = np.arange(1, cfg.n_modes + 1, dtype=float)
    if cfg.projection == "identity":
        return np.eye(cfg.n_modes)
    if cfg.projection == "spectral":
        rows = np.zeros((len(cfg.spectral_modes), cfg.n_modes))
        for i, m in enumerate(cfg.spectral_modes):
            rows[i, m - 1] = 1.0
        return rows
    if cfg.projection == "bumps":
        centers = [np.pi * (i + 1) / (cfg.n_proj + 1) for i in range(cfg.n_proj)]
        width = np.pi / (2 * (cfg.n_proj + 1))
        raw = np.empty((len(centers), cfg.n_modes))
        for i, c in enumerate(centers):
            a, b = max(c - width, 0.0), min(c + width, np.pi)
            ind_coeff = np.sqrt(2.0) * (np.cos(k * a) - np.cos(k * b)) / k
            raw[i] = lam ** (-cfg.alpha) * ind_coeff
    else:  # slow: under-smoothed, decay k^{-slow_decay}
        # positive envelopes with distinct shapes: sign-aligned with the
        # Dirichlet-map coefficients so no oscillatory cancellation masks
        # the divergence this configuration is meant to exhibit
        raw = np.empty((cfg.n_proj, cfg.n_modes))
        for i in range(cfg.n_proj):
            raw[i] = k ** (-cfg.slow_decay) * k / (k + 5.0 * (i + 1))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    return _orthonormal_rows(raw)


class HeatProjectedModel(ProjectedModel):
    """Projected face of the boundary-controlled heat equation."""

    def __init__(self, cfg: HeatConfig):
        self.cfg = cfg
        self._lam = eigenvalues(cfg.n_modes)
        self._v = projection_matrix(cfg)
        self._v.setflags(write=False)
        self._dmat = np.stack(
            [
                dirichlet_map_coeffs((1.0, 0.0), cfg.n_modes),
                dirichlet_map_coeffs((0.0, 1.0), cfg.n_modes),
            ],
            axis=1,
        )
        self.proj_dim = self._v.shape[0]
        self.control_dim = 2

    @property
    def v_matrix(self) -> np.ndarray:
        return self._v

    def _q(self, t) -> np.ndarray:
        lam = self._lam
        decay = np.multiply.outer(-2.0 * t, lam)
        return lam ** (-1.0 - 2.0 * self.cfg.beta) * (-np.expm1(decay))

    def _congruence(self, diag: np.ndarray) -> np.ndarray:
        """V diag V^T, for each row of ``diag`` (..., n_modes)."""
        return (self._v * diag[..., None, :]) @ self._v.T

    def project_state(self, x) -> np.ndarray:
        return self._v @ self._coeffs(x)

    def _coeffs(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size > self.cfg.n_modes:
            raise DimensionMismatch("state must be a coefficient vector of length <= n_modes")
        if x.size < self.cfg.n_modes:
            x = np.pad(x, (0, self.cfg.n_modes - x.size))
        return x

    def proj_semigroup_apply(self, t: float, x) -> np.ndarray:
        if not t > 0.0:
            raise ValueError("t must be > 0; use project_state at t = 0")
        return self._v @ (np.exp(-t * self._lam) * self._coeffs(x))

    def proj_cov(self, t: float) -> np.ndarray:
        if not t > 0.0:
            raise ValueError("t must be > 0")
        return self._congruence(self._q(t))

    def proj_control(self, t: float) -> np.ndarray:
        if not t > 0.0:
            raise ValueError("t must be > 0")
        return (self._v * (self._lam * np.exp(-t * self._lam))) @ self._dmat

    def pushforward_cov(self, s, t: float) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if not np.all((0.0 < s) & (s < t)):
            raise ValueError("need 0 < s < t")
        shift = np.exp(np.multiply.outer(-2.0 * s, self._lam))
        return self._congruence(shift * self._q(t - s))


def build_projected_model(cfg: HeatConfig) -> HeatProjectedModel:
    """Assemble the projected heat model from its configuration."""
    return HeatProjectedModel(cfg)
