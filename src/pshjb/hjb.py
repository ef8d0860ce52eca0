"""Picard fixed-point solver for the mild HJB equation.

The backward HJB equation is rewritten forward (w(t, x) = v(T - t, x)) as the
integral identity

    w(t, x) = R_t[phi](x) + int_0^t ell0(s) ds
              + int_0^t R_{t-s}[H_min(grad_C w(s, .))](x) ds,

whose right-hand side is the map Upsilon below.  Every iterate is stored in
factored form: a bounded array f(t, y) on a time x space grid with
w(t, x) = f(t, P e^{tA} x), plus the bounded gradient representative
fbar(t, y) = t^gamma * grad_C-coordinates.  Storing t^gamma times the
gradient keeps arrays bounded; the t^{-gamma} singularity is reconstructed
analytically at evaluation time.

The convolution integral is split at s = t/2 and each half is mapped by
s = t * sigma^{1/(1-gamma)}, measured from its own end.  The Gauss-Jacobi
weight sigma^p, p = gamma / (1 - gamma), carries only the Jacobian of this
substitution.  The endpoint singularities (s^{-gamma} from the stored
gradient, (t-s)^{-gamma} from the smoothing weight) stay in the integrand,
which near each end therefore keeps a sigma^{-p} factor; the rule does not
absorb them, and its error is part of the discretization error.

Convolution gradient weight: for the inner expectation over
Y ~ N(0, pushforward_cov(s, t)) the control-directional derivative is
recovered by the linear weight <proj_control(t) k, pushforward_cov(s,t)^+ Y>.
Gaussian integration by parts shows this reproduces exactly the derivative of
the convolution along the projected control direction (the only weight that
passes the finite-difference oracle; see the norm-bound tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi

from .errors import (
    DimensionMismatch,
    GridMismatch,
    NoContraction,
    OutOfGrid,
    TooCloseToHorizon,
)
from .ou import ProjectedModel, ProjectedTerminalCost
from .smoothing import fit_blowup, lambda_operator
from .spectral import default_rule_for_dim, psd_pinv_sqrt, psd_sqrt

ETA_CANDIDATES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


@dataclass(frozen=True)
class Hamiltonian:
    """Finite control grid U = {u_j} with running costs ell1(u_j)."""

    control_points: np.ndarray   # (n_u, m)
    running_cost: np.ndarray     # (n_u,)

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.control_points, dtype=float))
        c = np.asarray(self.running_cost, dtype=float)
        if u.shape[0] == 0:
            raise DimensionMismatch("control grid must be nonempty")
        if c.shape != (u.shape[0],):
            raise DimensionMismatch("running_cost must match control grid length")
        object.__setattr__(self, "control_points", u)
        object.__setattr__(self, "running_cost", c)

    @property
    def control_dim(self) -> int:
        return self.control_points.shape[1]

    @property
    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.control_points, axis=1).max())


def h_min_batch(ham: Hamiltonian, p: np.ndarray, argmin: bool = False):
    """Minimized Hamiltonian min_j <p, u_j> + ell1(u_j) over a batch of gradients.

    ``p`` has shape (m, ...): gradient components along the first axis.  One
    pass per control point keeps a running minimum, so no array of all
    (point, control) values is formed.  With ``argmin`` the index of the
    minimizer is returned as well; ties break to the lowest index
    (determinism).
    """
    p2 = p.reshape(ham.control_dim, -1)
    best = np.full(p2.shape[1], np.inf)
    idx = np.zeros(best.shape, dtype=np.intp) if argmin else None
    for j, (u, cost) in enumerate(zip(ham.control_points, ham.running_cost)):
        vals = np.full(p2.shape[1], cost)
        for uk, pk in zip(u, p2):
            if uk != 0.0:           # axis-aligned control grids skip most terms
                vals += uk * pk
        if argmin:
            np.putmask(idx, vals < best, j)
        np.minimum(best, vals, out=best)
    shape = p.shape[1:]
    return (best.reshape(shape), idx.reshape(shape)) if argmin else best.reshape(shape)


@dataclass(frozen=True)
class SolverConfig:
    """Grids, tolerances and quadrature settings of the Picard solver."""

    horizon: float = 1.0
    gamma: float | None = None        # None: take it from the blow-up fit
    eta_weight: float | None = None   # None: auto-select
    tol: float = 1e-4
    max_iter: int = 30
    n_time: int = 40
    t_min_factor: float = 1e-4
    space_points: int = 41
    box_halfwidth: float | None = None
    quad_order: int = 6
    time_quad_order: int = 7
    mc_samples: int = 4000
    seed: int = 0

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.eta_weight is not None and self.eta_weight < 0:
            raise ValueError("eta_weight must be >= 0")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        # two nodes per axis bracket every point (interp_space)
        for name, least in (("space_points", 2), ("n_time", 1), ("max_iter", 1),
                            ("quad_order", 1), ("time_quad_order", 1)):
            if getattr(self, name) < least:
                raise ValueError(
                    f"{name} must be >= {least}, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class ValueIterate:
    """Factored value iterate on the solver grids.

    ``f_values`` has shape (n_time + 1, *space_shape) with f(0, .) equal to
    the terminal cost; ``fbar_values`` has shape (n_time, *space_shape, m)
    and stores t^gamma times the control-gradient coordinates (no node at
    t = 0: the solution gradient is undefined there).
    """

    time_grid: np.ndarray
    space_axes: tuple[np.ndarray, ...]
    f_values: np.ndarray
    fbar_values: np.ndarray
    gamma: float

    def __post_init__(self):
        t = np.asarray(self.time_grid, dtype=float)
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValueError("time grid must start at 0 and increase")
        shape = tuple(len(a) for a in self.space_axes)
        if self.f_values.shape != (t.size,) + shape:
            raise DimensionMismatch("f_values shape mismatch")
        if self.fbar_values.shape[: 1 + len(shape)] != (t.size - 1,) + shape:
            raise DimensionMismatch("fbar_values shape mismatch")
        if not (np.isfinite(self.f_values).all() and np.isfinite(self.fbar_values).all()):
            raise ValueError("iterate values must be finite (bounded class)")

    @property
    def horizon(self) -> float:
        return float(self.time_grid[-1])

    @property
    def control_dim(self) -> int:
        return self.fbar_values.shape[-1]


@dataclass
class HJBSolution:
    """Converged iterate plus convergence diagnostics."""

    iterate: ValueIterate
    residual: float
    contraction_estimates: list[float]
    iterations: int
    eta_weight: float
    gamma: float
    phi: ProjectedTerminalCost
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# grids and interpolation

def make_time_grid(cfg: SolverConfig) -> np.ndarray:
    """{0} plus n_time geometric nodes from t_min_factor * T up to T."""
    t_min = cfg.t_min_factor * cfg.horizon
    pos = np.geomspace(t_min, cfg.horizon, cfg.n_time)
    pos[-1] = cfg.horizon
    return np.concatenate(([0.0], pos))


def make_space_axes(model: ProjectedModel, cfg: SolverConfig) -> tuple[np.ndarray, ...]:
    if cfg.box_halfwidth is not None:
        w = cfg.box_halfwidth
    else:
        w = 6.0 * np.sqrt(np.diag(model.proj_cov(cfg.horizon)).max())
    ax = np.linspace(-w, w, cfg.space_points)
    return tuple(ax.copy() for _ in range(model.proj_dim))


def interp_space(axes, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation at scattered points, clamped at the boundary.

    ``values`` has shape (*lead, *grid_shape) and ``pts`` shape (N, B), one
    row per coordinate; the result has shape (*lead, B).  A point outside
    the box takes the value at the nearest boundary point (as
    ``mode="nearest"`` of ``scipy.ndimage.map_coordinates``), which
    preserves sup-norm bounds of the iterates.  Cell indices and corner
    weights are computed once; every leading component is then gathered
    from a (components, mesh) table with 1-D ``take``.  Needs at least two
    nodes per axis.
    """
    n_dim = len(axes)
    grid = values.shape[values.ndim - n_dim:]
    lead = values.shape[:values.ndim - n_dim]
    table = values.reshape((-1, int(np.prod(grid))))
    base = 0                      # flat mesh index of each point's cell
    corners = [(0, None)]         # (flat offset from base, weight) per corner
    stride = 1
    for d in reversed(range(n_dim)):
        ax, n = axes[d], grid[d]
        c = np.clip((pts[d] - ax[0]) / (ax[1] - ax[0]), 0.0, n - 1.0)
        i = np.minimum(c.astype(np.intp), n - 2)   # c >= 0: the cast floors
        a = c - i
        base = base + i * stride
        corners = [
            (off + o, w if wt is None else wt * w)
            for off, wt in corners
            for o, w in ((0, 1.0 - a), (stride, a))
        ]
        stride *= n
    # base + offset stays inside the mesh (the n - 2 clamp), so mode="clip"
    # never clips; unlike the default mode it lets take write into buf
    out = np.empty((table.shape[0], pts.shape[1]))
    buf = np.empty(pts.shape[1])
    for row, field in zip(out, table):
        (off, wt), *rest = corners
        np.multiply(field[off:].take(base, out=buf, mode="clip"), wt, out=row)
        for off, wt in rest:
            row += np.multiply(field[off:].take(base, out=buf, mode="clip"), wt, out=buf)
    return out.reshape(lead + (pts.shape[1],))


def shift_stencil(axes, shifts: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-axis index data of interpolation at "mesh + constant shift".

    ``shifts`` has shape (*B, N).  On a uniform axis with step h, moving
    every node j by the same c lands at j + k + a with k = floor(c / h) and
    a = c / h - k in [0, 1), for all j alike.  Returns one pair (k, a) of
    (*B,) arrays per axis.
    """
    out = []
    for d, ax in enumerate(axes):
        pos = shifts[..., d] / (ax[1] - ax[0])
        k = np.floor(pos)
        out.append((k.astype(np.intp), pos - k))
    return tuple(out)


def _shift_matrices(k: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """(*B, n, n) matrices W with (W F)[j] = (1 - a) F[lo] + a F[hi],
    lo = clip(j + k), hi = clip(j + k + 1): clamped linear interpolation."""
    lo = k[..., None] + np.arange(n)
    rows = n * np.arange(lo.size).reshape(lo.shape)
    w = np.zeros(lo.shape + (n,))
    flat = w.reshape(-1)
    flat[rows + np.clip(lo, 0, n - 1)] = (1.0 - a)[..., None]
    flat[rows + np.clip(lo + 1, 0, n - 1)] += a[..., None]
    return w


def interp_shifted(values: np.ndarray, stencil) -> np.ndarray:
    """Multilinear interpolation at every mesh point plus each stencil shift.

    ``values`` has shape (*Bv, *grid_shape) with Bv broadcasting against the
    stencil's batch shape B; the result has shape (*broadcast(Bv, B),
    *grid_shape).  With the shift fixed across the mesh the interpolation
    is separable: an N-mode product with one clamped 1-D interpolation
    matrix per axis (``Wx @ F @ Wy.T`` in 2-D), which reproduces
    :func:`interp_space` (``mode="nearest"``) at mesh + shift.
    """
    n_dim = len(stencil)
    grid = values.shape[values.ndim - n_dim:]
    batch = np.broadcast_shapes(values.shape[:-n_dim], stencil[0][0].shape)
    for d, (k, a) in enumerate(stencil):
        w = _shift_matrices(k, a, grid[d])
        lead = values.shape[:-n_dim] + (int(np.prod(grid[:d])), grid[d])
        if d == n_dim - 1:
            values = values.reshape(lead) @ np.swapaxes(w, -1, -2)
        else:
            post = int(np.prod(grid[d + 1:]))
            values = w[..., None, :, :] @ values.reshape(lead + (post,))
        values = values.reshape(batch + grid)
    return values


def _time_bracket(t_axis: np.ndarray, s: float) -> tuple[int, int, float]:
    """Bracketing indices and blend weight for linear time interpolation."""
    if s <= t_axis[0]:
        return 0, 0, 0.0
    if s >= t_axis[-1]:
        n = t_axis.size - 1
        return n, n, 0.0
    i = int(np.searchsorted(t_axis, s) - 1)
    theta = (s - t_axis[i]) / (t_axis[i + 1] - t_axis[i])
    return i, i + 1, float(theta)


# ---------------------------------------------------------------------------
# the Picard map

@dataclass(frozen=True)
class _Convolution:
    """Iterate-independent data of the convolution integral at one time node.

    The batch axes are (s-node, Gauss node): S = 2 * time_quad_order
    s-nodes times n_q expectation nodes.
    """

    i0: np.ndarray         # (S,) bracketing gradient-slice indices
    i1: np.ndarray
    w0: np.ndarray         # (S, 1, ...) s^{-gamma} times the time-interpolation
    w1: np.ndarray         # weights, shaped to broadcast over a gradient slice
    stencil: tuple         # shift_stencil of the (S, n_q, N) quadrature offsets
    fweights: np.ndarray   # (S * n_q,) time-quadrature times expectation weights
    gweights: np.ndarray   # (S * n_q, m) the same times the gradient weights


class UpsilonOperator:
    """Precomputed Picard map on fixed grids.

    Everything that does not depend on the iterate (semigroup terms,
    covariance square roots, quadrature offsets and gradient weights) is
    assembled once; ``apply`` then only interpolates, evaluates the
    Hamiltonian and sums.

    ``apply`` relies on three facts: the space grid is a uniform tensor
    grid, each Gaussian quadrature offset is one constant shift for every
    mesh point, and interpolation clamps at the box edge.  Interpolating the
    gradient iterate at mesh + offset is then a separable per-axis product
    (:func:`shift_stencil`, :func:`interp_shifted`), done at each time node
    for all (s-node, Gauss node) pairs at once.
    """

    def __init__(
        self,
        model: ProjectedModel,
        ham: Hamiltonian,
        phi: ProjectedTerminalCost,
        ell0,
        cfg: SolverConfig,
        gamma: float,
    ):
        if ham.control_dim != model.control_dim:
            raise DimensionMismatch("Hamiltonian control dim must match the model")
        self.model = model
        self.ham = ham
        self.phi = phi
        self.cfg = cfg
        self.gamma = float(gamma)
        self.time_grid = make_time_grid(cfg)
        self.space_axes = make_space_axes(model, cfg)
        shape = tuple(len(a) for a in self.space_axes)
        mesh = np.meshgrid(*self.space_axes, indexing="ij")
        self.mesh = np.stack([g.ravel() for g in mesh], axis=-1)   # (P, N)
        self.space_shape = shape
        self.rule = default_rule_for_dim(
            model.proj_dim, cfg.quad_order, cfg.mc_samples, cfg.seed
        )
        self._precompute(ell0)

    # -- assembly ----------------------------------------------------------
    def _precompute(self, ell0):
        t_pos = self.time_grid[1:]
        n_t = t_pos.size
        nq = self.rule.nodes.shape[0]
        npts = self.mesh.shape[0]
        m = self.ham.control_dim

        fine = np.linspace(0.0, self.cfg.horizon, 4001)
        ell_vals = np.asarray(ell0(fine), dtype=float)
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (ell_vals[1:] + ell_vals[:-1]) * np.diff(fine)))
        )
        self.ell0_cum = np.interp(t_pos, fine, cum)

        # all-zero control set: H_min is the constant min ell1, the
        # convolution is min(ell1) * t and its gradient vanishes
        self.trivial_ham = self.ham.lipschitz == 0.0
        self.h_const = float(self.ham.running_cost.min())

        self.s_f = np.empty((n_t, npts))
        self.s_grad = np.empty((n_t, npts, m))
        self.conv: list[_Convolution | None] = []
        for i, t in enumerate(t_pos):
            sqrt_cov = psd_sqrt(self.model.proj_cov(t))
            offs = self.rule.nodes @ sqrt_cov.T
            pts = (self.mesh[None, :, :] + offs[:, None, :]).reshape(-1, self.model.proj_dim)
            vals = self.phi(pts).reshape(nq, npts)
            self.s_f[i] = self.rule.weights @ vals
            lam = lambda_operator(self.model, t).matrix
            wk = self.rule.nodes @ lam                       # (nq, m)
            self.s_grad[i] = np.einsum("q,qp,qk->pk", self.rule.weights, vals, wk)
            self.conv.append(None if self.trivial_ham else self._time_quadrature(t, t_pos))

    def _time_quadrature(self, t: float, t_pos: np.ndarray) -> _Convolution:
        """Two-sided Gauss-Jacobi quadrature of int_0^t . ds, see the module doc."""
        gamma = self.gamma
        p = gamma / (1.0 - gamma)
        x, w = roots_jacobi(self.cfg.time_quad_order, 0.0, p)
        c = 0.5 ** (1.0 - gamma)                 # sigma value mapping to s = t/2
        scale = (c / 2.0) ** (p + 1.0) * t / (1.0 - gamma)
        frac = (c * 0.5 * (1.0 + x)) ** (1.0 / (1.0 - gamma))
        s_nodes = np.concatenate((t * frac, t * (1.0 - frac)))
        s_weights = np.concatenate((scale * w, scale * w))
        b_t = self.model.proj_control(t)
        offs, gvecs = [], []
        for s in s_nodes:
            pf = self.model.pushforward_cov(s, t)
            offs.append(self.rule.nodes @ psd_sqrt(pf).T)
            pinv, _ = psd_pinv_sqrt(pf)
            gvecs.append(self.rule.nodes @ (pinv @ b_t))
        brackets = [_time_bracket(t_pos, s) for s in s_nodes]
        i0, i1, theta = (np.array(v) for v in zip(*brackets))
        s_pow = (s_nodes ** (-gamma)).reshape((-1,) + (1,) * (len(self.space_axes) + 1))
        theta = theta.reshape(s_pow.shape)
        qw = np.outer(s_weights, self.rule.weights)
        return _Convolution(
            i0=i0, i1=i1, w0=s_pow * (1.0 - theta), w1=s_pow * theta,
            stencil=shift_stencil(self.space_axes, np.stack(offs)),
            fweights=qw.ravel(),
            gweights=(qw[..., None] * np.stack(gvecs)).reshape(qw.size, -1),
        )

    # -- iterates ----------------------------------------------------------
    def zero_iterate(self) -> ValueIterate:
        """f = 0 for t > 0 (terminal slice kept), zero gradient."""
        n_t = self.time_grid.size - 1
        npts = self.mesh.shape[0]
        f = np.zeros((n_t + 1, npts))
        f[0] = self.phi(self.mesh)
        fbar = np.zeros((n_t, npts, self.ham.control_dim))
        return self._pack(f, fbar)

    def initial_iterate(self) -> ValueIterate:
        """Semigroup-only iterate: the fixed point of the trivial Hamiltonian."""
        n_t = self.time_grid.size - 1
        npts = self.mesh.shape[0]
        f = np.empty((n_t + 1, npts))
        f[0] = self.phi(self.mesh)
        f[1:] = self.s_f + self.ell0_cum[:, None]
        t_pos = self.time_grid[1:]
        fbar = (t_pos**self.gamma)[:, None, None] * self.s_grad
        return self._pack(f, fbar)

    def _pack(self, f_flat: np.ndarray, fbar_flat: np.ndarray) -> ValueIterate:
        shape = self.space_shape
        return ValueIterate(
            time_grid=self.time_grid,
            space_axes=self.space_axes,
            f_values=f_flat.reshape((-1,) + shape),
            fbar_values=fbar_flat.reshape((-1,) + shape + (self.ham.control_dim,)),
            gamma=self.gamma,
        )

    # -- the map -----------------------------------------------------------
    def apply(self, g: ValueIterate) -> ValueIterate:
        self._check_grids(g)
        t_pos = self.time_grid[1:]
        n_t = t_pos.size
        npts = self.mesh.shape[0]
        m = self.ham.control_dim
        fbar = g.fbar_values
        f_new = np.empty((n_t + 1, npts))
        f_new[0] = self.phi(self.mesh)
        fbar_new = np.empty((n_t, npts, m))
        for i, t in enumerate(t_pos):
            if self.trivial_ham:
                f_new[i + 1] = self.s_f[i] + self.ell0_cum[i] + self.h_const * t
                fbar_new[i] = t**self.gamma * self.s_grad[i]
                continue
            cv = self.conv[i]
            # interpolation is linear in the array: blend the two bracketing
            # time slices (times s^{-gamma}) first, then shift-interpolate
            # once per (s-node, Gauss node)
            sl = cv.w0 * fbar[cv.i0] + cv.w1 * fbar[cv.i1]
            # p: (m, S, n_q, *grid), gradient components first
            p = interp_shifted(np.moveaxis(sl, -1, 0)[:, :, None], cv.stencil)
            hvals = h_min_batch(self.ham, p).reshape(-1, npts)
            f_new[i + 1] = self.s_f[i] + self.ell0_cum[i] + cv.fweights @ hvals
            fbar_new[i] = t**self.gamma * (self.s_grad[i] + hvals.T @ cv.gweights)
        return self._pack(f_new, fbar_new)

    def _check_grids(self, g: ValueIterate):
        if g.time_grid.shape != self.time_grid.shape or not np.allclose(
            g.time_grid, self.time_grid
        ):
            raise GridMismatch("iterate time grid differs from the solver grid")
        for a, b in zip(g.space_axes, self.space_axes):
            if a.shape != b.shape or not np.allclose(a, b):
                raise GridMismatch("iterate space grid differs from the solver grid")

    # -- random bounded iterates (contraction probes) -----------------------
    def random_iterate(self, rng: np.random.Generator, scale: float = 1.0) -> ValueIterate:
        n_t = self.time_grid.size - 1
        npts = self.mesh.shape[0]
        m = self.ham.control_dim
        f = np.empty((n_t + 1, npts))
        f[0] = self.phi(self.mesh)
        t_pos = self.time_grid[1:]
        a = rng.standard_normal(self.model.proj_dim)
        mod_t = 1.0 + 0.5 * np.sin(3.0 * rng.random() * t_pos)[:, None]
        f[1:] = scale * mod_t * np.tanh(self.mesh @ a + rng.standard_normal())[None, :]
        fbar = np.empty((n_t, npts, m))
        for k in range(m):
            c = rng.standard_normal(self.model.proj_dim)
            fbar[..., k] = (
                scale
                * (1.0 + 0.3 * np.cos(2.0 * rng.random() * t_pos))[:, None]
                * np.tanh(self.mesh @ c + rng.standard_normal())[None, :]
            )
        return self._pack(f, fbar)


# ---------------------------------------------------------------------------
# weighted norm, eta selection, Picard loop

def weighted_distance(g1: ValueIterate, g2: ValueIterate, eta_weight: float) -> float:
    """Distance sup e^{-eta t}|f1 - f2| + sup e^{-eta t}|fbar1 - fbar2|.

    The t^gamma factor of the gradient part is already embedded in the
    stored fbar arrays.  The decaying weight e^{-eta t} (eta >= 0) is the
    equivalent norm under which the Picard map contracts for eta large
    enough.
    """
    if g1.time_grid.shape != g2.time_grid.shape or not np.allclose(
        g1.time_grid, g2.time_grid
    ):
        raise GridMismatch("time grids differ")
    for a, b in zip(g1.space_axes, g2.space_axes):
        if a.shape != b.shape or not np.allclose(a, b):
            raise GridMismatch("space grids differ")
    if g1.fbar_values.shape != g2.fbar_values.shape:
        raise GridMismatch("gradient value shapes differ")
    wt = np.exp(-eta_weight * g1.time_grid)
    df = np.abs(g1.f_values - g2.f_values).reshape(g1.time_grid.size, -1).max(axis=1)
    dbar = (
        np.abs(g1.fbar_values - g2.fbar_values)
        .reshape(g1.time_grid.size - 1, -1)
        .max(axis=1)
    )
    return float((wt * df).max() + (wt[1:] * dbar).max())


def contraction_ratios(
    ups: UpsilonOperator,
    eta_weight: float,
    n_pairs: int = 10,
    rng: np.random.Generator | None = None,
    scale: float = 1.0,
    _cache: list | None = None,
) -> list[float]:
    """Measured ratios ||Ups g1 - Ups g2|| / ||g1 - g2|| on random pairs."""
    rng = rng or np.random.default_rng(0)
    ratios = []
    for _ in range(n_pairs):
        if _cache is not None and len(_cache) > len(ratios):
            g1, g2, h1, h2 = _cache[len(ratios)]
        else:
            g1 = ups.random_iterate(rng, scale)
            g2 = ups.random_iterate(rng, scale)
            h1 = ups.apply(g1)
            h2 = ups.apply(g2)
            if _cache is not None:
                _cache.append((g1, g2, h1, h2))
        d0 = weighted_distance(g1, g2, eta_weight)
        d1 = weighted_distance(h1, h2, eta_weight)
        ratios.append(d1 / d0 if d0 > 0 else 0.0)
    return ratios


def auto_select_eta(
    ups: UpsilonOperator,
    n_pairs: int = 3,
    target: float = 0.9,
    rng: np.random.Generator | None = None,
    scale: float = 1.0,
) -> float:
    """Smallest eta from the doubling ladder with measured ratio < target.

    The Picard images of the probe pairs do not depend on eta, so they are
    computed once and the ladder is scanned cheaply.
    """
    rng = rng or np.random.default_rng(ups.cfg.seed + 1)
    cache: list = []
    for eta in ETA_CANDIDATES:
        ratios = contraction_ratios(ups, eta, n_pairs, rng, scale, _cache=cache)
        if max(ratios) < target:
            return eta
    raise NoContraction(
        f"no eta in {ETA_CANDIDATES} achieves contraction ratio < {target}"
    )


def picard_solve(
    model: ProjectedModel,
    ham: Hamiltonian,
    phi: ProjectedTerminalCost,
    ell0,
    cfg: SolverConfig,
    initial: str = "semigroup",
    fit_grid=None,
) -> HJBSolution:
    """Iterate the Picard map to the mild-solution fixed point.

    ``gamma`` defaults to the fitted blow-up exponent of the smoothing
    operator (slightly padded); any exponent at least that large also works.
    ``eta_weight`` defaults to the smallest dyadic weight with measured
    contraction ratio below 0.9.  Raises :class:`NoContraction` after three
    consecutive residual increases.
    """
    diagnostics: dict = {}
    gamma = cfg.gamma
    if gamma is None:
        if fit_grid is None:
            fit_grid = np.geomspace(1e-4 * cfg.horizon, 0.1 * cfg.horizon, 20)
        windows = tuple(
            (0.9 * d, 1.1 * d) for d in model.control_discontinuities
        )
        fit = fit_blowup(model, fit_grid, exclude_windows=windows)
        gamma = float(np.clip(fit.gamma + 0.02, 0.05, 0.95))
        diagnostics["fitted_gamma"] = fit.gamma
        diagnostics["fit_slope"] = fit.slope
        if not 0.0 < fit.gamma < 1.0:
            raise NoContraction(
                f"fitted blow-up exponent {fit.gamma:.3f} outside (0, 1); "
                "the contraction machinery does not apply to this model"
            )
    if gamma > 0.5:
        # supported, but the time-integral bounds degrade; record it
        diagnostics["gamma_above_half"] = True

    ups = UpsilonOperator(model, ham, phi, ell0, cfg, gamma=gamma)
    eta = cfg.eta_weight
    if eta is None:
        eta = auto_select_eta(ups, scale=max(phi.bound, 1.0))
        diagnostics["auto_eta"] = eta

    g = ups.initial_iterate() if initial == "semigroup" else ups.zero_iterate()
    residuals: list[float] = []
    ratios: list[float] = []
    bad_streak = 0
    for it in range(1, cfg.max_iter + 1):
        g_next = ups.apply(g)
        d = weighted_distance(g_next, g, eta)
        if residuals:
            ratio = d / residuals[-1] if residuals[-1] > 0 else 0.0
            ratios.append(ratio)
            bad_streak = bad_streak + 1 if ratio > 1.0 else 0
            if bad_streak >= 3:
                raise NoContraction(
                    f"residual grew for 3 consecutive Picard steps "
                    f"(eta={eta}, gamma={gamma}); residuals={residuals[-4:] + [d]}"
                )
        residuals.append(d)
        g = g_next
        if d < cfg.tol:
            break
    diagnostics["residual_history"] = residuals
    return HJBSolution(
        iterate=g,
        residual=residuals[-1],
        contraction_estimates=ratios,
        iterations=len(residuals),
        eta_weight=eta,
        gamma=gamma,
        phi=phi,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# evaluation of the solved backward value function

def _check_in_box(axes, y: np.ndarray):
    for d, a in enumerate(axes):
        pad = 1e-9 * (a[-1] - a[0])
        if y[d] < a[0] - pad or y[d] > a[-1] + pad:
            raise OutOfGrid(
                f"projected point component {d} = {y[d]:.4g} outside "
                f"[{a[0]:.4g}, {a[-1]:.4g}]"
            )


def _time_blend(values: np.ndarray, t_axis: np.ndarray, tau: float) -> np.ndarray:
    """Slice of ``values`` (time along the first axis) linearly interpolated
    at time ``tau`` on the grid; scattered interpolation is linear in the
    values, so blending before it gives the same result."""
    i0, i1, theta = _time_bracket(t_axis, tau)
    if i1 != i0 and theta > 0:
        return (1.0 - theta) * values[i0] + theta * values[i1]
    return values[i0]


def interp_f(iterate: ValueIterate, tau: float, pts: np.ndarray) -> np.ndarray:
    """Interpolate f at backward time tau over projected points ``pts``
    of shape (N, B); returns shape (B,)."""
    f = _time_blend(iterate.f_values, iterate.time_grid, tau)
    return interp_space(iterate.space_axes, f, pts)


def interp_fbar(iterate: ValueIterate, tau: float, pts: np.ndarray) -> np.ndarray:
    """Interpolate the stored gradient representative at backward time tau
    over projected points ``pts`` of shape (N, B); returns shape (m, B)."""
    fbar = _time_blend(iterate.fbar_values, iterate.time_grid[1:], tau)
    return interp_space(iterate.space_axes, np.moveaxis(fbar, -1, 0), pts)


def eval_value(sol: HJBSolution, model: ProjectedModel, t: float, x) -> float:
    """Backward value v(t, x) = f(T - t, P e^{(T-t)A} x) by interpolation.

    At t = T the terminal cost is evaluated exactly at the projected state.
    """
    T = sol.iterate.horizon
    if not 0.0 <= t <= T:
        raise OutOfGrid(f"t={t} outside [0, {T}]")
    tau = T - t
    if tau == 0.0:
        return float(sol.phi(model.project_state(x)))
    y = np.asarray(model.proj_semigroup_apply(tau, x), dtype=float)
    _check_in_box(sol.iterate.space_axes, y)
    return float(interp_f(sol.iterate, tau, y[:, None])[0])


def eval_c_gradient(sol: HJBSolution, model: ProjectedModel, t: float, x) -> np.ndarray:
    """Control-directional gradient of v at (t, x), t < T.

    The stored representative is t^gamma-rescaled; the (T - t)^{-gamma}
    blow-up toward the horizon is reconstructed here.  Below the first time
    node the gradient is not resolved and :class:`TooCloseToHorizon` is
    raised.
    """
    T = sol.iterate.horizon
    if not 0.0 <= t <= T:
        raise OutOfGrid(f"t={t} outside [0, {T}]")
    tau = T - t
    if tau < sol.iterate.time_grid[1]:
        raise TooCloseToHorizon(
            f"T - t = {tau:.3g} below the first gradient node "
            f"{sol.iterate.time_grid[1]:.3g}"
        )
    y = np.asarray(model.proj_semigroup_apply(tau, x), dtype=float)
    _check_in_box(sol.iterate.space_axes, y)
    return tau ** (-sol.gamma) * interp_fbar(sol.iterate, tau, y[:, None])[:, 0]
