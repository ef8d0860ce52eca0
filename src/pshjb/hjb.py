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

The equation is a Volterra equation in time-to-go: Upsilon at time node i
reads the gradient slices 0..i only.  The Picard loop therefore computes
its iterates in sweeps with the time nodes as the outer loop, which build
each node's shift matrices once for several iterates.  A node whose input
slices no longer change beyond four ulps is copied from the previous
iterate instead of recomputed: the result stays within rounding of exact
applies, and a sweep gives the iterates of one-iterate sweeps bit for bit
(:class:`UpsilonOperator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    NoContraction,
    OutOfGrid,
    TooCloseToHorizon,
)
from .ou import ProjectedModel, ProjectedTerminalCost
from .smoothing import blowup_grid, fit_blowup, smoothing_matrix
from .spectral import MAX_HERMITE_DIM, build_quadrature, gauss_jacobi, psd_roots

# Bytes of interpolated gradient values per block of UpsilonOperator.apply.
# A block's arrays then stay in a core's cache between the interpolation
# and the Hamiltonian passes.  Measured on 2 MiB-L2 cores: 384 KiB to
# 512 KiB were fastest on both the 21- and 41-point grids; 128 KiB lost to
# per-block overhead, one block per time node lost the cache.
APPLY_BLOCK_BYTES = 512 * 1024

# Largest Picard sweep working set a solve may ask for; a larger one would
# exhaust memory in the middle of the solve instead of failing at its start.
# The shipped configs need 45 MB (heat) and 37 MB (delay); n_proj: 3 at the
# solver defaults 2.8 GB.
_SWEEP_BUDGET_BYTES = 1 << 30


@dataclass(frozen=True)
class Hamiltonian:
    """Finite control grid U = {u_j} with running costs ell1(u_j)."""

    control_points: np.ndarray   # (n_u, m)
    running_cost: np.ndarray     # (n_u,)
    # per control, its nonzero coordinates as (k, u_jk) pairs in k order
    terms: tuple = field(init=False, repr=False, compare=False)
    # per control, 1 for the lower and 2 for the upper index of a +- pair
    # (u and -u with one nonzero coordinate and equal running cost, each
    # control in at most one pair, lowest free partner first), else 0
    pair_role: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.control_points, dtype=float))
        c = np.asarray(self.running_cost, dtype=float)
        if u.shape[0] == 0:
            raise DimensionMismatch("control grid must be nonempty")
        if c.shape != (u.shape[0],):
            raise DimensionMismatch("running_cost must match control grid length")
        object.__setattr__(self, "control_points", u)
        object.__setattr__(self, "running_cost", c)
        terms = tuple(
            tuple((k, float(uk)) for k, uk in enumerate(row) if uk != 0.0) for row in u
        )
        object.__setattr__(self, "terms", terms)
        role = [0] * len(terms)
        # a running cost of -0.0 is the one source of -0.0 values, whose
        # minimum with +0.0 depends on the order the controls are taken in
        if not (np.signbit(c) & (c == 0.0)).any():
            for j, tj in enumerate(terms):
                if len(tj) != 1 or role[j]:
                    continue
                (k, uk), = tj
                for j2 in range(j + 1, len(terms)):
                    if not role[j2] and terms[j2] == ((k, -uk),) and c[j2] == c[j]:
                        role[j], role[j2] = 1, 2
                        break
        object.__setattr__(self, "pair_role", tuple(role))

    @property
    def control_dim(self) -> int:
        return self.control_points.shape[1]


def h_min_batch(ham: Hamiltonian, p: np.ndarray, argmin: bool = False, out=None):
    """Minimized Hamiltonian min_j <p, u_j> + ell1(u_j) over a batch of gradients.

    ``p`` has shape (m, ...): gradient components along the first axis.  One
    pass per control point keeps a running minimum in one reused scratch
    row, so no array of all (point, control) values is formed; leading
    all-zero controls, which are constants, enter last as one scalar.  Each
    control's values are ell1(u_j) + sum of u_jk p_k over its nonzero u_jk
    (``ham.terms``), summed in that order; a first u_jk of +-1 adds or
    subtracts p_k without the multiply, which is exact.  Without
    ``argmin`` each +- pair (``ham.pair_role``) takes one pass,
    ell1 - |u_k| |p_k|: rounding is monotone and symmetric, so this equals
    min(ell1 + u_k p_k, ell1 - u_k p_k) bit for bit, and with no -0.0 cost
    (the pairing's condition) no value is -0.0 and the minimum does not
    depend on the order.  Pairs on the same component k share one |p_k|
    pass.  ``out``, if given, is a C-contiguous array of
    p.shape[1:] values that receives the minimum.  With ``argmin`` the index
    of the minimizer is returned as well; ties break to the lowest index
    (determinism), so every control takes its own pass.
    """
    p2 = p.reshape(ham.control_dim, -1)
    if out is None:
        best = np.empty(p2.shape[1])
    elif out.flags.c_contiguous and out.size == p2.shape[1]:
        best = out.reshape(-1)
    else:
        raise ValueError("out must be C-contiguous with one value per gradient")
    vals = np.empty_like(best)
    n_u = len(ham.terms)
    pairs = (0,) * n_u if argmin else ham.pair_role
    # the first control with a nonzero coordinate starts the minimum
    lead = next((j for j, terms in enumerate(ham.terms) if terms), n_u)
    idx = np.full(best.shape, lead, dtype=np.intp) if argmin else None
    # |p_k| of each component with several pairs, taken once
    paired = [ham.terms[j][0][0] for j in range(n_u) if pairs[j] == 1]
    shared = {k: None for k in paired if paired.count(k) > 1}
    for j in range(lead, n_u):
        if pairs[j] == 2:
            continue                # folded into the lower index of its pair
        terms, cost = ham.terms[j], ham.running_cost[j]
        row = best if j == lead else vals
        if terms:
            (k, uk), *rest = terms
            if pairs[j]:
                if k in shared:
                    if shared[k] is None:
                        shared[k] = np.abs(p2[k])
                    mag = shared[k]
                else:
                    mag = np.abs(p2[k], out=row)
                if abs(uk) != 1.0:
                    mag = np.multiply(mag, abs(uk), out=row)
                np.subtract(cost, mag, out=row)
            elif uk == 1.0:
                np.add(p2[k], cost, out=row)
            elif uk == -1.0:
                np.subtract(cost, p2[k], out=row)
            else:
                np.multiply(p2[k], uk, out=row)
                row += cost
            for k, uk in rest:
                row += uk * p2[k]
        else:
            row = cost              # an all-zero control: a constant
        if j == lead:
            continue
        if argmin:
            np.putmask(idx, row < best, j)
        np.minimum(best, row, out=best)
    if lead:
        # all-zero controls ahead of it (the rest control of the heat grids)
        # are constants: the least of them, lowest index first, joins last
        # and wins its ties, as every other control has a higher index
        j = int(np.argmin(ham.running_cost[:lead]))
        cost = ham.running_cost[j]
        if lead == n_u:
            best.fill(np.inf)       # no control has a nonzero coordinate
        if argmin:
            np.putmask(idx, best >= cost, j)
        np.minimum(best, cost, out=best)
    shape = p.shape[1:]
    return (best.reshape(shape), idx.reshape(shape)) if argmin else best.reshape(shape)


@dataclass(frozen=True)
class SolverConfig:
    """Grids, tolerances and quadrature settings of the Picard solver."""

    horizon: float = 1.0
    gamma: float | None = None        # None: take it from the blow-up fit
    tol: float = 1e-4
    max_iter: int = 30
    n_time: int = 40
    t_min_factor: float = 1e-4
    space_points: int = 41
    box_halfwidth: float | None = None
    quad_order: int = 6
    time_quad_order: int = 7

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be > 0")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
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
    eta_weight: float       # always 0.0: solves stop in the sup norm
    gamma: float
    phi: ProjectedTerminalCost
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# grids and interpolation

def _check_problem_size(cfg: SolverConfig, proj_dim: int, control_dim: int):
    """Raise :class:`ConfigError` for a problem the solver cannot take: a
    projected dimension N above the tensor Gauss-Hermite rule's
    MAX_HERMITE_DIM, or a Picard sweep over _SWEEP_BUDGET_BYTES.  The sweep
    estimate is what grows with the problem, for S = 2 * time_quad_order
    s-nodes, n_q = quad_order^N quadrature nodes, n = space_points and
    P = n^N mesh points: at one time node the (S * n_q, P) H_min values,
    the (m, S, P) blended gradient slice and the S * n_q * N shift matrices
    of n x n; and the sweep's iterates, (n_time + 1 + m * n_time) * P values
    each, at the longest sweep of max(1, max_iter // 2) iterates
    (:func:`_sweep_length`).  Computed from the sizes alone, so it builds no
    array."""
    if proj_dim > MAX_HERMITE_DIM:
        raise ConfigError(
            f"the projected dimension N = {proj_dim} is above "
            f"{MAX_HERMITE_DIM}, the most the tensor Gauss-Hermite rule takes"
        )
    n = cfg.space_points
    n_q, n_pts = cfg.quad_order**proj_dim, n**proj_dim
    node = 2 * cfg.time_quad_order * (n_pts * (n_q + control_dim) + n_q * proj_dim * n * n)
    iterates = max(1, cfg.max_iter // 2) * n_pts * (cfg.n_time + 1 + control_dim * cfg.n_time)
    need = 8 * (node + iterates)
    if need > _SWEEP_BUDGET_BYTES:
        raise ConfigError(
            f"the solver would need about {need / 1e9:.3g} GB per Picard sweep "
            f"(N = {proj_dim}, space_points = {n}, quad_order = {cfg.quad_order}, "
            f"time_quad_order = {cfg.time_quad_order}, n_time = {cfg.n_time}, "
            f"max_iter = {cfg.max_iter}); the budget is "
            f"{_SWEEP_BUDGET_BYTES / 1e9:.3g} GB"
        )


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
        c = (pts[d] - ax[0]) / (ax[1] - ax[0])
        # ufuncs, not np.clip: its wrapper costs more than the work on a block
        np.minimum(np.maximum(c, 0.0, out=c), n - 1.0, out=c)
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


def _scatter_index(k: np.ndarray, n: int, transpose: bool) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into the (*B, n, n) shift matrices of shifts ``k`` of
    the entries (j, lo) and (j, hi) of every row j, lo = clip(j + k),
    hi = clip(j + k + 1); with ``transpose``, of the entries of the
    transposes, (lo, j) and (hi, j)."""
    lo = k[..., None] + np.arange(n)
    # flat index of entry (j, c) of matrix b: rows[b, j] + step * c, with
    # rows = (b n + j) n, step = 1, or for the transposes b n^2 + j, step = n
    rows = np.arange(0, lo.size * n, n).reshape(lo.shape)
    step = 1
    if transpose:
        rows -= (n - 1) * np.arange(n)
        step = n
    # ufuncs, not np.clip: its wrapper costs more than the work on a block
    hi = rows + step * np.minimum(np.maximum(lo + 1, 0), n - 1)
    np.maximum(lo, 0, out=lo)
    return rows + step * np.minimum(lo, n - 1, out=lo), hi


class ShiftMatrices:
    """Per-axis interpolation matrices of one :func:`shift_stencil` of batch
    shape B at a time, in (*B, n, n) buffers that every :meth:`build`
    rewrites.  They depend on the stencil alone, so one build serves every
    array interpolated with it.

    For shifts (k, a) on an axis of n nodes, W has (W F)[j] =
    (1 - a) F[lo] + a F[hi], lo = clip(j + k), hi = clip(j + k + 1):
    clamped linear interpolation.  The last axis holds W.T, written in C
    order by the same two scatters with the row and column roles swapped
    (its entries equal those of ``np.swapaxes(W, -1, -2)`` exactly), for
    :func:`interp_shifted`.  Fresh zeroed arrays of this size would be new
    pages to fault in at every build, and zeroing them whole writes n / 2
    times the entries that a build writes, so a build zeroes only the two
    entries per row that the one before it wrote.
    """

    def __init__(self, batch: tuple[int, ...], grid: tuple[int, ...]):
        self.mats = tuple(np.zeros(tuple(batch) + (n, n)) for n in grid)
        self._written: list = []        # per axis, the last build's indices

    def build(self, stencil) -> tuple[np.ndarray, ...]:
        last = len(self.mats) - 1
        for w, index in zip(self.mats, self._written):
            for idx in index:
                w.reshape(-1)[idx] = 0.0
        self._written = [_scatter_index(k, w.shape[-1], d == last)
                         for d, ((k, _), w) in enumerate(zip(stencil, self.mats))]
        for w, (_, a), (lo, hi) in zip(self.mats, stencil, self._written):
            flat = w.reshape(-1)
            flat[lo] = (1.0 - a)[..., None]
            flat[hi] += a[..., None]
        return self.mats


def interp_shifted(values: np.ndarray, mats: tuple[np.ndarray, ...]) -> np.ndarray:
    """Multilinear interpolation at every mesh point plus each stencil shift.

    ``mats`` are the :class:`ShiftMatrices` of a stencil of batch shape B.
    ``values`` has shape (*Bv, *grid_shape) with Bv broadcasting against B;
    the result has shape (*broadcast(Bv, B), *grid_shape).  With the shift
    fixed across the mesh the interpolation is separable: an N-mode product
    with one clamped 1-D interpolation matrix per axis (``Wx @ F @ Wy.T`` in
    2-D), which reproduces :func:`interp_space` (``mode="nearest"``) at
    mesh + shift.

    Operand layout: every product hands matmul C-contiguous matrices, the
    layout in which it calls BLAS gemm directly.  The last axis's matrices
    are built transposed in C order rather than taken as a swapped view,
    on which matmul runs about 2x slower for the same result.  ``values``
    should be C-contiguous in its last N axes for the same reason.
    """
    n_dim = len(mats)
    grid = values.shape[values.ndim - n_dim:]
    batch = np.broadcast_shapes(values.shape[:-n_dim], mats[0].shape[:-2])
    for d, w in enumerate(mats):
        lead = values.shape[:-n_dim] + (math.prod(grid[:d]), grid[d])
        if d == n_dim - 1:
            values = values.reshape(lead) @ w
        else:
            post = math.prod(grid[d + 1:])
            values = w[..., None, :, :] @ values.reshape(lead + (post,))
        values = values.reshape(batch + grid)
    return values


def clamped_share(stencil, weights: np.ndarray, shape: tuple[int, ...]) -> float:
    """Weighted share of the points "mesh + shift" that lie outside the box.

    ``stencil`` is :func:`shift_stencil` data of batch shape B and
    ``weights`` holds one weight per shift (B raveled).  A point outside the
    box on some axis is clamped to its edge by the interpolation.  Returns
    sum_b w_b * (outside share of the mesh for shift b) / sum_b w_b.
    """
    inside = 1.0
    for (k, a), n in zip(stencil, shape):
        # node j lands at j + k + a, inside for -k <= j <= n - 1 - k - (a > 0)
        hi = np.minimum(n - 1 - k - (a > 0), n - 1)
        lo = np.maximum(-k, 0)
        inside = inside * np.clip(hi - lo + 1, 0, n) / n
    return float(weights @ (1.0 - inside).ravel() / weights.sum())


def _check_grids(a, b):
    """Raise :class:`GridMismatch` unless the time grids and space axes of
    ``a`` and ``b`` (iterates or an operator) agree within ``allclose``."""
    ta, tb = a.time_grid, b.time_grid
    if ta.shape != tb.shape or not np.allclose(ta, tb):
        raise GridMismatch("time grids differ")
    for x, y in zip(a.space_axes, b.space_axes):
        if x.shape != y.shape or not np.allclose(x, y):
            raise GridMismatch("space grids differ")


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
    w1: np.ndarray         # weights, shaped to broadcast over (S, *grid)
    stencil: tuple         # shift_stencil of the (S, n_q, N) quadrature offsets
    fweights: np.ndarray   # (S * n_q,) time-quadrature times expectation weights
    gweights: np.ndarray   # (S * n_q, m) the same times the gradient weights


def _pair_blocks(n_s: int, n_q: int, pair_bytes: int) -> list[tuple[int, int, int, int]]:
    """Blocks (s0, s1, q0, q1) of the (s-node, Gauss node) pairs of one
    time node, each holding at most APPLY_BLOCK_BYTES of ``pair_bytes``
    pairs (at least one pair): whole s-nodes where one s-node fits, else
    runs of Gauss nodes of one s-node.  Every block is a contiguous range
    of pairs in (s-node, Gauss node) order."""
    per = max(1, APPLY_BLOCK_BYTES // pair_bytes)
    if per >= n_q:
        step = per // n_q
        return [(s, min(s + step, n_s), 0, n_q) for s in range(0, n_s, step)]
    return [(s, s + 1, q, min(q + per, n_q)) for s in range(n_s) for q in range(0, n_q, per)]


class UpsilonOperator:
    """Precomputed Picard map on fixed grids.

    Everything that does not depend on the iterate (semigroup terms,
    covariance square roots, quadrature offsets and gradient weights) is
    assembled once; ``sweep`` then only interpolates, evaluates the
    Hamiltonian and sums.

    ``sweep`` relies on three facts: the space grid is a uniform tensor
    grid, each Gaussian quadrature offset is one constant shift for every
    mesh point, and interpolation clamps at the box edge.  Interpolating the
    gradient iterate at mesh + offset is then a separable per-axis product
    (:func:`shift_stencil`, :class:`ShiftMatrices`, :func:`interp_shifted`).

    Loop order: ``sweep(g, n)`` runs the time nodes in the outer loop and
    the n iterates in the inner one.  Node i of iterate l + 1 reads only
    slices 0..i of iterate l, which the earlier nodes and the previous pass
    at node i have finished; each node builds its shift matrices once and
    runs all n iterates through them.

    Settled nodes: an iterate's settled count is the length of the leading
    run of time nodes i whose gradient slice differs from that of the
    iterate it was computed from by at most four ulps, 4 ``np.spacing`` of
    its largest |fbar| over slices 0..i (the slices node i reads, and all a
    node-major sweep has of an iterate when it reaches node i).  Below its
    source's count, the next iterate copies the source's ``f[i + 1]`` and
    ``fbar[i]``: no blend, interpolation or Hamiltonian, and a node that
    every iterate of a sweep copies builds no shift matrices.  Four ulps,
    not one: early slices that have reached their floating-point fixed
    point can still cycle between a few values a couple of ulps apart
    (rounding of the blend and the quadrature sums), and one ulp would
    recompute such nodes at every iterate.  Inputs unchanged to four ulps
    give an output unchanged to rounding, so copies keep the iterates
    within rounding of exact applies (at most 1.1e-16 on the shipped and
    benchmark configs).  A copied slice equals its source, so a count never
    falls from one iterate to the next.  Every iterate is computed, or
    copied, by the same operations on the same operands and with the same
    count as in a chain of one-iterate sweeps that carries the count, so it
    is the same bit for bit; ``apply`` is ``sweep(g, 1)`` with nothing
    settled, the exact map.

    At each time node the (s-node, Gauss node) pairs are taken in blocks of
    at most APPLY_BLOCK_BYTES of interpolated gradient values: whole
    s-nodes, or runs of Gauss nodes of one s-node where one s-node is
    larger (:func:`_pair_blocks`).  Each block is interpolated and its
    H_min values are written into one (S * n_q, P) array (S s-nodes, n_q
    Gauss nodes, P mesh points); the two quadrature sums then run on that
    array.  Blocking changes no arithmetic.  Memory: besides the n
    iterates, a sweep holds a small multiple of APPLY_BLOCK_BYTES, the
    S * n_q * P * 8 bytes of H_min values and one node's shift matrices,
    S * n_q * N * n^2 * 8 bytes for n points per axis (13.6 MB on the
    shipped 41-point grids), in buffers that every node that computes
    rewrites (:class:`ShiftMatrices`).

    Operand layout: ``sweep`` writes each time node's blended gradient
    slice components first into a C-contiguous (m, S, *grid) array, so
    every interpolation product gets contiguous matrices (see
    :func:`interp_shifted`).  A view of the iterate's components-last
    slice would be strided per component, and matmul then leaves the BLAS
    fast path on heat (m = 2).  The layout changes no arithmetic.
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
        self.rule = build_quadrature(model.proj_dim, cfg.quad_order)
        self._precompute(ell0)
        self.applies = 0     # iterates computed, for the solve diagnostics
        self.copied = 0      # node-iterates copied from a settled source

    # -- assembly ----------------------------------------------------------
    def _precompute(self, ell0):
        t_pos = self.time_grid[1:]
        fine = np.linspace(0.0, self.cfg.horizon, 4001)
        ell_vals = np.asarray(ell0(fine), dtype=float)
        cum = np.concatenate(
            ([0.0], np.cumsum(0.5 * (ell_vals[1:] + ell_vals[:-1]) * np.diff(fine)))
        )
        self.ell0_cum = np.interp(t_pos, fine, cum)

        jacobi = gauss_jacobi(self.cfg.time_quad_order, self.gamma / (1.0 - self.gamma))
        self.s_f = np.empty((t_pos.size, self.mesh.shape[0]))
        self.s_grad = np.empty((t_pos.size, self.mesh.shape[0], self.ham.control_dim))
        self.conv = [self._time_quadrature(i, t_pos, jacobi) for i in range(t_pos.size)]
        self.clamped_mass = max(
            clamped_share(cv.stencil, cv.fweights, self.space_shape) for cv in self.conv
        )

    def _time_quadrature(self, i: int, t_pos: np.ndarray, jacobi) -> _Convolution:
        """Iterate-independent data of time node i, t = t_pos[i]: the
        semigroup terms ``s_f[i]``, ``s_grad[i]`` and the convolution's
        two-sided Gauss-Jacobi quadrature of int_0^t . ds (see the module
        doc); ``jacobi`` holds the nodes and weights for (1 + x)^p on [-1, 1].

        The semigroup term is the s = 0 member of the node's stencil: one
        ``pushforward_cov`` query returns the S pushforward covariances, one
        :func:`psd_roots` call decomposes them with proj_cov(t), and the
        image-inclusion check (:func:`smoothing_matrix`) reads the same
        decomposition."""
        t, gamma, nodes = t_pos[i], self.gamma, self.rule.nodes
        p = gamma / (1.0 - gamma)
        x, w = jacobi
        c = 0.5 ** (1.0 - gamma)                 # sigma value mapping to s = t/2
        scale = (c / 2.0) ** (p + 1.0) * t / (1.0 - gamma)
        frac = (c * 0.5 * (1.0 + x)) ** (1.0 / (1.0 - gamma))
        s_nodes = np.concatenate((t * frac, t * (1.0 - frac)))
        s_weights = np.concatenate((scale * w, scale * w))
        b_t = self.model.proj_control(t)
        covs = np.concatenate(([self.model.proj_cov(t)], self.model.pushforward_cov(s_nodes, t)))
        roots, pinvs, _, projs = psd_roots(covs)
        offs = [nodes @ r.T for r in roots]
        gvecs = [nodes @ smoothing_matrix(t, pinvs[0], projs[0], b_t)]
        gvecs += [nodes @ (pinv @ b_t) for pinv in pinvs[1:]]

        pts = (self.mesh[None, :, :] + offs[0][:, None, :]).reshape(-1, self.model.proj_dim)
        vals = self.phi(pts).reshape(nodes.shape[0], -1)
        self.s_f[i] = self.rule.weights @ vals
        self.s_grad[i] = np.einsum("q,qp,qk->pk", self.rule.weights, vals, gvecs[0])

        brackets = [_time_bracket(t_pos, s) for s in s_nodes]
        i0, i1, theta = (np.array(v) for v in zip(*brackets))
        s_pow = (s_nodes ** (-gamma)).reshape((-1,) + (1,) * len(self.space_axes))
        theta = theta.reshape(s_pow.shape)
        qw = np.outer(s_weights, self.rule.weights)
        return _Convolution(
            i0=i0, i1=i1, w0=s_pow * (1.0 - theta), w1=s_pow * theta,
            stencil=shift_stencil(self.space_axes, np.stack(offs[1:])),
            fweights=qw.ravel(),
            gweights=(qw[..., None] * np.stack(gvecs[1:])).reshape(qw.size, -1),
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
        """Upsilon(g), exactly: a sweep of one iterate with nothing settled."""
        return self.sweep(g, 1)[0][0]

    def sweep(self, g: ValueIterate, n: int,
              settled: int = 0) -> tuple[list[ValueIterate], int]:
        """The n iterates Upsilon(g), ..., Upsilon^n(g), time node by time
        node (see the class docstring for the loop order and the settled
        counts), and the settled count of the last of them.

        ``settled`` is the settled count of ``g`` against the iterate it
        was computed from: the count the sweep that computed ``g``
        returned, or 0, which makes every node compute."""
        if n < 1:
            raise ValueError(f"a sweep computes at least one iterate, got n = {n}")
        _check_grids(g, self)
        t_pos = self.time_grid[1:]
        n_t = t_pos.size
        npts = self.mesh.shape[0]
        m = self.ham.control_dim
        f_new = np.empty((n, n_t + 1, npts))
        f_new[:, 0] = self.phi(self.mesh)
        fbar_new = np.empty((n, n_t, npts, m))
        # each iterate's source: g, then the iterate before it
        f_src = [g.f_values.reshape(n_t + 1, npts)] + list(f_new[:-1])
        fbar_src = [g.fbar_values.reshape(n_t, npts, m)] + list(fbar_new[:-1])
        grid_src = [s.reshape((n_t,) + self.space_shape + (m,)) for s in fbar_src]
        # settled counts of the sources and of the last iterate, and the
        # largest |fbar| of each new iterate over the slices of its count
        counts = [settled] + [0] * n
        tops = [0.0] * (n + 1)
        n_s, n_q = 2 * self.cfg.time_quad_order, self.rule.nodes.shape[0]
        blocks = _pair_blocks(n_s, n_q, 8 * m * npts)
        hvals = np.empty((n_s * n_q, npts))     # H_min per (s-node, Gauss node)
        # one node's shift matrices, rewritten at every node that computes
        node_mats = ShiftMatrices((n_s, n_q), self.space_shape)
        sl = np.empty((m, n_s) + self.space_shape)
        src = sl[:, :, None]                    # (m, S, 1, *grid)
        self.applies += n
        for i, t in enumerate(t_pos):
            cv = self.conv[i]
            mats = None
            for l in range(n):
                f_out, fbar_out, fbar = f_new[l], fbar_new[l], grid_src[l]
                if i < counts[l]:
                    # the source's slices 0..i have settled: its own node i
                    # is this node's value to rounding
                    f_out[i + 1] = f_src[l][i + 1]
                    fbar_out[i] = fbar_src[l][i]
                    self.copied += 1
                else:
                    if mats is None:
                        built = node_mats.build(cv.stencil)
                        mats = [tuple(w[s0:s1, q0:q1] for w in built)
                                for s0, s1, q0, q1 in blocks]
                    # interpolation is linear in the array: blend the two
                    # bracketing time slices (times s^{-gamma}) first, then
                    # shift-interpolate once per (s-node, Gauss node); the
                    # blend is written components first, one at a time
                    for k in range(m):
                        np.multiply(cv.w0, fbar[cv.i0, ..., k], out=sl[k])
                        sl[k] += cv.w1 * fbar[cv.i1, ..., k]
                    for (s0, s1, q0, q1), w in zip(blocks, mats):
                        # p: (m, s1 - s0, q1 - q0, *grid), components first
                        p = interp_shifted(src[:, s0:s1], w)
                        h_min_batch(self.ham, p,
                                    out=hvals[s0 * n_q + q0:(s1 - 1) * n_q + q1])
                    f_out[i + 1] = self.s_f[i] + self.ell0_cum[i] + cv.fweights @ hvals
                    fbar_out[i] = t**self.gamma * (self.s_grad[i] + hvals.T @ cv.gweights)
                if counts[l + 1] == i:
                    # the new iterate's leading run of settled slices grows
                    # while slice i moves by at most four ulps of its slices 0..i
                    tops[l + 1] = max(tops[l + 1], float(np.abs(fbar_out[i]).max()))
                    if np.abs(fbar_out[i] - fbar_src[l][i]).max() <= 4 * np.spacing(tops[l + 1]):
                        counts[l + 1] = i + 1
        return [self._pack(f, fbar) for f, fbar in zip(f_new, fbar_new)], counts[n]

    # -- random bounded iterates (contraction probes) -----------------------
    def random_iterate(self, rng: np.random.Generator) -> ValueIterate:
        n_t = self.time_grid.size - 1
        npts = self.mesh.shape[0]
        m = self.ham.control_dim
        f = np.empty((n_t + 1, npts))
        f[0] = self.phi(self.mesh)
        t_pos = self.time_grid[1:]
        a = rng.standard_normal(self.model.proj_dim)
        mod_t = 1.0 + 0.5 * np.sin(3.0 * rng.random() * t_pos)[:, None]
        f[1:] = mod_t * np.tanh(self.mesh @ a + rng.standard_normal())[None, :]
        fbar = np.empty((n_t, npts, m))
        for k in range(m):
            c = rng.standard_normal(self.model.proj_dim)
            fbar[..., k] = (
                (1.0 + 0.3 * np.cos(2.0 * rng.random() * t_pos))[:, None]
                * np.tanh(self.mesh @ c + rng.standard_normal())[None, :]
            )
        return self._pack(f, fbar)


# ---------------------------------------------------------------------------
# weighted norm, Picard loop

def weighted_distance(g1: ValueIterate, g2: ValueIterate, eta_weight: float) -> float:
    """Distance sup e^{-eta t}|f1 - f2| + sup e^{-eta t}|fbar1 - fbar2|.

    The t^gamma factor of the gradient part is already embedded in the
    stored fbar arrays.  The decaying weight e^{-eta t} (eta >= 0) is the
    equivalent (Bielecki-type) norm under which the Picard map contracts for
    eta large enough; :func:`contraction_ratios` measures in it.  The
    weight is at most 1, so eta = 0, the sup norm of the stopping test, is
    the strictest.
    """
    _check_grids(g1, g2)
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
    eta_weights,
    n_pairs: int = 10,
    rng: np.random.Generator | None = None,
) -> list[list[float]]:
    """Measured ratios ||Ups g1 - Ups g2|| / ||g1 - g2|| on random pairs,
    one list per weight of ``eta_weights``, all from the same pairs."""
    rng = rng or np.random.default_rng(0)
    pairs = [(ups.random_iterate(rng), ups.random_iterate(rng))
             for _ in range(n_pairs)]
    images = [(ups.apply(g1), ups.apply(g2)) for g1, g2 in pairs]

    def ratio(g, h, eta):
        d0 = weighted_distance(*g, eta)
        return weighted_distance(*h, eta) / d0 if d0 > 0 else 0.0

    return [[ratio(g, h, eta) for g, h in zip(pairs, images)] for eta in eta_weights]


def _sweep_length(residuals: list[float], cfg: SolverConfig) -> int:
    """Iterates of the next :meth:`UpsilonOperator.sweep` of a Picard solve.

    One until two residuals exist and after a rise.  Else, with k iterates
    done and the last ratio q = d_k / d_{k-1} < 1, half of the
    r = ceil(log(tol / d_k) / log q) further steps that q predicts to the
    stop, at most k and at most what ``max_iter`` leaves: a longer sweep
    saves more shift-matrix builds, a shorter one computes fewer iterates
    past the stop.
    """
    k = len(residuals)
    q = residuals[-1] / residuals[-2] if k >= 2 else 1.0
    if q >= 1.0:
        return 1
    r = math.ceil(math.log(cfg.tol / residuals[-1]) / math.log(q))
    return max(1, min(-(-r // 2), k, cfg.max_iter - k))


def picard_solve(
    model: ProjectedModel,
    ham: Hamiltonian,
    phi: ProjectedTerminalCost,
    ell0,
    cfg: SolverConfig,
    initial: str = "semigroup",
) -> HJBSolution:
    """Iterate the Picard map to the mild-solution fixed point.

    A problem the solver cannot take (see :func:`_check_problem_size`)
    raises :class:`ConfigError` before anything else runs.

    ``gamma`` defaults to the fitted blow-up exponent of the smoothing
    operator (slightly padded); any exponent at least that large also works.

    The stopping test and the growth rule (:class:`NoContraction` after
    three consecutive residual increases) use the sup norm, so converged
    means a sup residual below ``tol``.  The weighted norms of
    :func:`weighted_distance` never change the fixed point, only the norm
    it is measured in; they serve :func:`contraction_ratios` alone.

    The iterates come in :meth:`UpsilonOperator.sweep` runs whose lengths
    :func:`_sweep_length` takes from the residual history; each sweep
    starts from the settled count the previous one returned (0 at the
    start).  Both tests run on every iterate in turn, so the result, the
    residual history and the step at which :class:`NoContraction` is raised
    are those of a loop of one-iterate sweeps that carries the count;
    ``diagnostics["applies"]["picard"]`` counts the iterates computed, which
    exceeds ``iterations`` only when a sweep runs past the stop, and
    ``diagnostics["copied_nodes"]`` the node-iterates copied from a settled
    source.
    """
    _check_problem_size(cfg, model.proj_dim, model.control_dim)
    diagnostics: dict = {}
    gamma = cfg.gamma
    if gamma is None:
        fit = fit_blowup(model, blowup_grid(cfg.horizon))
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
    diagnostics["clamped_mass"] = ups.clamped_mass

    g = ups.initial_iterate() if initial == "semigroup" else ups.zero_iterate()
    residuals: list[float] = []
    ratios: list[float] = []
    bad_streak = 0
    settled = 0
    converged = False
    while not converged and len(residuals) < cfg.max_iter:
        # the stop test and the growth rule run iterate by iterate, so a
        # sweep that runs past the stop only costs its extra iterates
        iterates, settled = ups.sweep(g, _sweep_length(residuals, cfg), settled)
        for g_next in iterates:
            d = weighted_distance(g_next, g, 0.0)
            if residuals:
                ratio = d / residuals[-1] if residuals[-1] > 0 else 0.0
                ratios.append(ratio)
                bad_streak = bad_streak + 1 if ratio > 1.0 else 0
                if bad_streak >= 3:
                    raise NoContraction(
                        f"residual grew in the sup norm for 3 consecutive Picard steps "
                        f"(gamma={gamma}); residuals={residuals[-4:] + [d]}"
                    )
            residuals.append(d)
            g = g_next
            converged = d < cfg.tol
            if converged:
                break
    diagnostics["applies"] = {"picard": ups.applies}
    diagnostics["copied_nodes"] = ups.copied
    diagnostics["residual_history"] = residuals
    return HJBSolution(
        iterate=g,
        residual=residuals[-1],
        contraction_estimates=ratios,
        iterations=len(residuals),
        eta_weight=0.0,
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
