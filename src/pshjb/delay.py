"""Linear SDE with measure-valued delay in the control.

The n-dimensional controlled equation

    dy(s) = a0 y(s) ds + b0 u(s) ds + (integral of u(s + r) against b1(dr)) ds
            + sigma dW(s)

is lifted to the product space (present state) x (past control
contributions); the projection P keeps the present component.  Every path
starts from a zero past (no control before time 0), so a state is its
present n-vector, as a heat state is its coefficient vector.  The
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
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatch, RankDeficient
from .ou import ProjectedModel
from .smoothing import INCLUSION_TOL, inclusion_residual
from .spectral import expm


class Atom(NamedTuple):
    """A point mass of b1: an n x m weight at a location in [-d, 0]."""

    location: float
    weight: np.ndarray


@dataclass(frozen=True)
class DelayConfig:
    """Dimensions, matrices and delay structure of the controlled SDE.

    ``atoms`` are the point masses of b1; ``density`` optionally tabulates
    an absolutely continuous part on a uniform grid over [-d, 0] (shape
    (n_points, n, m)).
    """

    a0: np.ndarray
    b0: np.ndarray
    sigma: np.ndarray
    delay: float
    atoms: tuple[Atom, ...] = ()
    density: np.ndarray | None = None

    def __post_init__(self):
        a0, b0, sigma = (np.atleast_2d(np.asarray(x, dtype=float))
                         for x in (self.a0, self.b0, self.sigma))
        atoms = tuple(Atom(float(loc), np.atleast_2d(np.asarray(w, dtype=float)))
                      for loc, w in self.atoms)
        dens = None if self.density is None else np.asarray(self.density, dtype=float)
        arrays = [("a0", a0), ("b0", b0), ("sigma", sigma)]
        arrays += [("atom weights", w) for _, w in atoms]
        arrays += [("density table", dens)] if dens is not None else []
        for name, arr in arrays:
            if not np.isfinite(arr).all():
                raise ConfigError(f"{name} must be finite")
        if a0.shape[0] != a0.shape[1]:
            raise ConfigError("a0 must be square")
        n = a0.shape[0]
        if b0.shape[0] != n or sigma.shape[0] != n:
            raise ConfigError("b0 and sigma must have n rows")
        if not 0 < self.delay < np.inf:
            raise ConfigError(f"delay must be finite and > 0, got {self.delay}")
        for loc, w in atoms:
            if not -self.delay <= loc <= 0.0:
                raise ConfigError(f"atom location {loc} outside [-d, 0]")
            if w.shape != b0.shape:
                raise ConfigError("atom weights must be n x m")
        if dens is not None:
            if dens.ndim != 3 or dens.shape[1:] != b0.shape:
                raise ConfigError("density table must be (n_points, n, m)")
            if dens.shape[0] < 2:
                raise ConfigError("density table needs >= 2 points")
        for name, value in (("a0", a0), ("b0", b0), ("sigma", sigma),
                            ("atoms", atoms), ("density", dens)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.a0.shape[0]

    @property
    def m(self) -> int:
        return self.b0.shape[1]

    @cached_property
    def van_loan(self) -> np.ndarray:
        """Van Loan's generator [[-a0, sigma sigma*], [0, a0*]] of the Gramian."""
        a0 = self.a0
        return np.block([[-a0, self.sigma @ self.sigma.T], [np.zeros_like(a0), a0.T]])


def gramian(cfg: DelayConfig, t) -> np.ndarray:
    """Controllability Gramian integral of e^{s a0} sigma sigma* e^{s a0*} over
    [0, t], for a time t or for each of an array of times (one stacked
    :func:`expm`).

    Van Loan's closed form (IEEE TAC 1978): with
    F = expm(h * cfg.van_loan), the Gramian over [0, h] is G = F22* F12.
    The exponential carries e^{-h a0} in its upper left block, which
    overflows for a stiff drift (a0 = -800 at h = 1), so it is taken at
    h = t / 2^s with ||h a0||_1 <= 1, and G is doubled s times:
    G(2h) = G(h) + E G(h) E* with E = e^{h a0} = F22*, and E <- E E.  When
    ||t a0||_1 <= 1, s = 0 and G is Van Loan's form alone.  An empty array
    of times gives an empty (0, n, n) stack.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError("t must be > 0")
    n = cfg.n
    s = np.ceil(np.log2(np.maximum(t * np.linalg.norm(cfg.a0, 1), 1.0))).astype(int)
    f = expm(np.multiply.outer(t / 2.0**s, cfg.van_loan))
    e = np.swapaxes(f[..., n:, n:], -1, -2)
    q = e @ f[..., :n, n:]
    for k in range(int(s.max(initial=0))):
        on = s > k
        q[on] += e[on] @ q[on] @ np.swapaxes(e[on], -1, -2)
        e[on] = e[on] @ e[on]
    return 0.5 * (q + np.swapaxes(q, -1, -2))


def proj_control_delay(cfg: DelayConfig, t) -> np.ndarray:
    """Projected control response (e^{tA} B)_0 as an n x m matrix, for a
    time t or for each of an array of times: one stacked :func:`expm` for
    the b0 term and one for each atom over the times it is active at; the
    density part is integrated per time."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0):
        raise ValueError("t must be > 0")
    out = expm(np.multiply.outer(t, cfg.a0)) @ cfg.b0
    for loc, w in cfg.atoms:
        on = loc >= -t
        if on.any():
            out[on] += expm(np.multiply.outer(t[on] + loc, cfg.a0)) @ w
    if cfg.density is not None:
        for at in np.ndindex(t.shape):
            out[at] += _past_integral(cfg, t[at])
    return out


def _past_integral(cfg: DelayConfig, t: float) -> np.ndarray:
    """Trapezoid rule for the integral of e^{(t + r) a0} density(r) over
    [-min(t, d), 0], with one stacked :func:`expm` for its nodes.

    The density is tabulated on a uniform grid over [-d, 0]; its value at
    the clipped endpoint is interpolated linearly.
    """
    table = cfg.density
    grid = np.linspace(-cfg.delay, 0.0, table.shape[0])
    lo = -min(t, cfg.delay)
    i = int(np.clip(np.searchsorted(grid, lo) - 1, 0, grid.size - 2))
    theta = (lo - grid[i]) / (grid[i + 1] - grid[i])
    mask = grid > lo
    nodes = np.concatenate(([lo], grid[mask]))
    vals = np.concatenate(
        ([(1.0 - theta) * table[i] + theta * table[i + 1]], table[mask])
    )
    integrand = expm(np.multiply.outer(t + nodes, cfg.a0)) @ vals
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


class DelayProjectedModel(ProjectedModel):
    """Projected (present-component) face of the delayed-control SDE."""

    def __init__(self, cfg: DelayConfig):
        self.cfg = cfg
        self.proj_dim = cfg.n
        self.control_dim = cfg.m
        self.control_discontinuities = tuple(
            sorted(-loc for loc, _ in cfg.atoms if loc < 0.0)
        )

    def proj_semigroup_apply(self, t: float, x) -> np.ndarray:
        if not t >= 0:
            raise ValueError(f"t must be >= 0, got {t}")
        x = np.asarray(x, dtype=float)
        if x.shape != (self.cfg.n,):
            raise DimensionMismatch(f"a state is a present vector of length {self.cfg.n}")
        return expm(t * self.cfg.a0) @ x

    def proj_control(self, t) -> np.ndarray:
        return proj_control_delay(self.cfg, t)

    def pushforward_cov(self, s, t) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if not np.all((0.0 <= s) & (s < t)):
            raise ValueError("need 0 <= s < t")
        e = expm(np.multiply.outer(s, self.cfg.a0))
        return e @ gramian(self.cfg, t - s) @ np.swapaxes(e, -1, -2)


def build_projected_model(cfg: DelayConfig, horizon: float) -> DelayProjectedModel:
    """Build the projected model for problems on [0, ``horizon``] after the
    controllability precondition: full Kalman rank or, failing that, a
    control response inside the covariance image within ``INCLUSION_TOL``
    (:func:`inclusion_residual`, the solver's rule) at the probe times
    horizon times 1e-3, 1e-2, 0.1, 0.5 and 1, from one stacked
    :func:`gramian` and one :func:`proj_control_delay` call; otherwise
    :class:`RankDeficient`."""
    rank = kalman_rank(cfg)
    if rank < cfg.n:
        t = horizon * np.array([1e-3, 1e-2, 1e-1, 0.5, 1.0])
        worst = inclusion_residual(gramian(cfg, t), proj_control_delay(cfg, t)).max()
        if worst > INCLUSION_TOL:
            raise RankDeficient(
                f"kalman rank {rank} < n={cfg.n} and control response leaves "
                f"the covariance image (residual {worst:.3e})"
            )
    return DelayProjectedModel(cfg)
