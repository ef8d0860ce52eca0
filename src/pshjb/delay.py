"""Linear SDE with measure-valued delay in the control.

The n-dimensional controlled equation

    dy(s) = a0 y(s) ds + b0 u(s) ds + (integral of u(s + r) against b1(dr)) ds
            + sigma dW(s)

is lifted to the product space (present state) x (past control
contributions); the projection P keeps the present component, so the
projected covariance is just the controllability Gramian of (a0, sigma),
computed in closed form from one block matrix exponential, and the projected
control response is the delayed impulse response

    (e^{tA} B)_0 = e^{t a0} b0 + sum_{atoms r_j >= -t} e^{(t + r_j) a0} w_j
                   + integral of the density part over [-min(t, d), 0].

Atoms produce genuine jump discontinuities of the control response at their
activation times t = -r_j; they are kept exact (no mollification) and the
blow-up fits exclude neighborhoods of those times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DimensionMismatch, RankDeficient
from .ou import ProjectedModel
from .spectral import expm

MIN_PAST_POINTS = 64


@dataclass(frozen=True)
class DelayConfig:
    """Dimensions, matrices and delay structure of the controlled SDE.

    ``b1_atoms`` is a list of (location, weight-matrix) pairs with locations
    in [-d, 0]; ``b1_density`` optionally tabulates an absolutely continuous
    part on a uniform grid over [-d, 0] (shape (n_points, n, m)).
    """

    a0: np.ndarray
    b0: np.ndarray
    sigma: np.ndarray
    delay: float
    b1_atoms: tuple[tuple[float, np.ndarray], ...] = ()
    b1_density: np.ndarray | None = None

    def __post_init__(self):
        a0 = np.atleast_2d(np.asarray(self.a0, dtype=float))
        b0 = np.atleast_2d(np.asarray(self.b0, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        for name, arr in (("a0", a0), ("b0", b0), ("sigma", sigma)):
            if not np.isfinite(arr).all():
                raise ConfigError(f"{name} must be finite")
        if a0.shape[0] != a0.shape[1]:
            raise ConfigError("a0 must be square")
        n = a0.shape[0]
        if b0.shape[0] != n or sigma.shape[0] != n:
            raise ConfigError("b0 and sigma must have n rows")
        if not 0 < self.delay < np.inf:
            raise ConfigError(f"delay must be finite and > 0, got {self.delay}")
        atoms = []
        for loc, w in self.b1_atoms:
            w = np.atleast_2d(np.asarray(w, dtype=float))
            if not -self.delay <= loc <= 0.0:
                raise ConfigError(f"atom location {loc} outside [-d, 0]")
            if w.shape != b0.shape:
                raise ConfigError("atom weights must be n x m")
            if not np.isfinite(w).all():
                raise ConfigError("atom weights must be finite")
            atoms.append((float(loc), w))
        dens = self.b1_density
        if dens is not None:
            dens = np.asarray(dens, dtype=float)
            if dens.ndim != 3 or dens.shape[1:] != b0.shape:
                raise ConfigError("density table must be (n_points, n, m)")
            if dens.shape[0] < 2:
                raise ConfigError("density table needs >= 2 points")
            if not np.isfinite(dens).all():
                raise ConfigError("density table must be finite")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "b1_atoms", tuple(atoms))
        object.__setattr__(self, "b1_density", dens)

    @property
    def n(self) -> int:
        return self.a0.shape[0]

    @property
    def m(self) -> int:
        return self.b0.shape[1]

    @property
    def k(self) -> int:
        return self.sigma.shape[1]

    @cached_property
    def van_loan(self) -> np.ndarray:
        """Van Loan's generator [[-a0, sigma sigma*], [0, a0*]] of the Gramian."""
        a0 = self.a0
        return np.block([[-a0, self.sigma @ self.sigma.T], [np.zeros_like(a0), a0.T]])


@dataclass(frozen=True)
class DelayState:
    """State of the lifted system: present vector and tabulated past.

    ``x1`` holds the past control contributions on a uniform grid over
    [-d, 0] (values in R^n, at least 64 points per delay interval).
    """

    x0: np.ndarray
    x1: np.ndarray
    delay: float

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        x1 = np.asarray(self.x1, dtype=float)
        if x1.ndim != 2 or x1.shape[1] != x0.shape[0]:
            raise DimensionMismatch("x1 must be (n_points, n)")
        if x1.shape[0] < MIN_PAST_POINTS:
            raise ConfigError(f"past grid needs >= {MIN_PAST_POINTS} points")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)

    @classmethod
    def zero_past(cls, x0, delay: float):
        x0 = np.asarray(x0, dtype=float)
        return cls(x0, np.zeros((MIN_PAST_POINTS, x0.shape[0])), delay)


def gramian(cfg: DelayConfig, t) -> np.ndarray:
    """Controllability Gramian integral of e^{s a0} sigma sigma* e^{s a0*} over
    [0, t], for a time t or for each of an array of times (one stacked
    :func:`expm`).

    Van Loan's closed form (IEEE TAC 1978): with
    F = expm(t * cfg.van_loan), the Gramian is F22* F12.
    The exponential carries e^{|a0| t} in its blocks, so that factor must be
    representable in floating point.
    """
    if not np.all(np.asarray(t) > 0):
        raise ValueError("t must be > 0")
    n = cfg.n
    f = expm(np.multiply.outer(t, cfg.van_loan))
    q = np.swapaxes(f[..., n:, n:], -1, -2) @ f[..., :n, n:]
    return 0.5 * (q + np.swapaxes(q, -1, -2))


def proj_control_delay(cfg: DelayConfig, t: float) -> np.ndarray:
    """Projected control response (e^{tA} B)_0 as an n x m matrix."""
    if not t > 0:
        raise ValueError("t must be > 0")
    out = expm(t * cfg.a0) @ cfg.b0
    for loc, w in cfg.b1_atoms:
        if loc >= -t:
            out = out + expm((t + loc) * cfg.a0) @ w
    if cfg.b1_density is not None:
        out = out + _past_integral(cfg, t, cfg.b1_density)
    return out


def _past_integral(cfg: DelayConfig, t: float, table: np.ndarray) -> np.ndarray:
    """Trapezoid rule for the integral of e^{(t + r) a0} table(r) over [-min(t, d), 0].

    ``table`` is tabulated on a uniform grid over [-d, 0]: the past state
    (n_points, n) or the control density (n_points, n, m).  Its value at the
    clipped endpoint is interpolated linearly.
    """
    grid = np.linspace(-cfg.delay, 0.0, table.shape[0])
    lo = -min(t, cfg.delay)
    i = int(np.clip(np.searchsorted(grid, lo) - 1, 0, grid.size - 2))
    theta = (lo - grid[i]) / (grid[i + 1] - grid[i])
    mask = grid > lo
    nodes = np.concatenate(([lo], grid[mask]))
    vals = np.concatenate(
        ([(1.0 - theta) * table[i] + theta * table[i + 1]], table[mask])
    )
    integrand = np.array([expm((t + r) * cfg.a0) @ v for r, v in zip(nodes, vals)])
    return np.trapezoid(integrand, nodes, axis=0)


def controllability_matrix(cfg: DelayConfig) -> np.ndarray:
    """Stacked Kalman matrix (sigma, a0 sigma, ..., a0^{n-1} sigma)."""
    blocks = [cfg.sigma]
    for _ in range(cfg.n - 1):
        blocks.append(cfg.a0 @ blocks[-1])
    return np.hstack(blocks)


def kalman_rank(cfg: DelayConfig) -> int:
    """Rank of the controllability matrix: its singular values above 1e-10
    times the largest."""
    sv = np.linalg.svd(controllability_matrix(cfg), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > 1e-10 * sv[0]))


def _column_residual(basis: np.ndarray, cols: np.ndarray) -> float:
    """Relative least-squares residual of cols against the span of basis."""
    denom = np.linalg.norm(cols)
    if denom == 0.0:
        return 0.0
    u, sv, _ = np.linalg.svd(basis, full_matrices=False)
    keep = sv > 1e-12 * (sv[0] if sv.size else 1.0)
    u = u[:, keep]
    return float(np.linalg.norm(cols - u @ (u.T @ cols)) / denom)


class DelayProjectedModel(ProjectedModel):
    """Projected (present-component) face of the delayed-control SDE."""

    def __init__(self, cfg: DelayConfig):
        self.cfg = cfg
        self.proj_dim = cfg.n
        self.control_dim = cfg.m
        self.control_discontinuities = tuple(
            sorted(-loc for loc, _ in cfg.b1_atoms if loc < 0.0)
        )

    def project_state(self, x: DelayState) -> np.ndarray:
        return np.asarray(x.x0, dtype=float)

    def proj_semigroup_apply(self, t: float, x: DelayState) -> np.ndarray:
        if not t > 0:
            raise ValueError("t must be > 0; use project_state at t = 0")
        out = expm(t * self.cfg.a0) @ x.x0
        if np.any(x.x1):
            out = out + _past_integral(self.cfg, t, x.x1)
        return out

    def proj_cov(self, t: float) -> np.ndarray:
        return gramian(self.cfg, t)

    def proj_control(self, t: float) -> np.ndarray:
        return proj_control_delay(self.cfg, t)

    def pushforward_cov(self, s, t: float) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if not np.all((0.0 < s) & (s < t)):
            raise ValueError("need 0 < s < t")
        e = expm(np.multiply.outer(s, self.cfg.a0))
        return e @ gramian(self.cfg, t - s) @ np.swapaxes(e, -1, -2)


def build_projected_model(cfg: DelayConfig, force: bool = False) -> DelayProjectedModel:
    """Build the projected model after the controllability precondition.

    The build is admissible when the Kalman rank is full or, failing that,
    when the control response stays inside the image of the controllability
    matrix at the probe times 1e-3, 1e-2, 0.1, 0.5 and 1.  ``force=True``
    skips the check (negative tests, diagnostics).
    """
    if not force:
        rank = kalman_rank(cfg)
        if rank < cfg.n:
            k_mat = controllability_matrix(cfg)
            worst = max(
                _column_residual(k_mat, proj_control_delay(cfg, t))
                for t in (1e-3, 1e-2, 1e-1, 0.5, 1.0)
            )
            if worst > 1e-8:
                raise RankDeficient(
                    f"kalman rank {rank} < n={cfg.n} and control response leaves "
                    f"the controllability image (residual {worst:.3e})"
                )
    return DelayProjectedModel(cfg)
