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
reads the gradient slices 0..i only.  Each Picard iterate is one sweep
over the time nodes.  At each s-node of the time quadrature, the
interpolation of the gradient at mesh + each Gaussian offset is one BLAS
gemm of stored Kronecker coefficients against the windows of the
edge-padded gradient slice.  On a radial control grid H_min is a concave
piecewise-linear function of r = max_k |p_k|,
alpha - sum_h beta_h max(r, rho_h), so the step writes the hinge sum in
three (heat) or four (delay) array passes, and the node's f and gradient
quadrature sums of it are one gemm.  Everything of that step that does
not depend on the iterate is built once: the window views, scratch and
output slices of each s-node at assembly (:func:`window_chunks`), the
hinge form and the pass plan of H_min with the Hamiltonian
(:class:`Hamiltonian`).  A node whose input slices no longer change
beyond four ulps is copied from the previous iterate instead of
recomputed; the result stays within rounding of exact applies
(:class:`UpsilonOperator`).

Residuals are measured in the sup norm (:func:`sup_distance`).  The paper
proves contraction in the equivalent exp(-eta t)-weighted norm; a weight
changes what a residual reads, not the fixed point, so the solver does not
use it and only the test suite measures in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    NoContraction,
    OutOfGrid,
)
from .ou import ProjectedModel, ProjectedTerminalCost
from .smoothing import blowup_grid, fit_blowup, smoothing_matrix
from .spectral import MAX_HERMITE_DIM, build_quadrature, gauss_jacobi, psd_roots

# Bytes of window values per chunk of :func:`window_chunks`.  Shipped heat
# solves (2-core x86_64) took 2.84-2.91 s from 512 KiB to 4 MiB or unchunked,
# while peak RSS rose with the budget from 63 to 75 MB; at 1 MiB the
# 21-point grids' windows fit one chunk.
WINDOW_CHUNK_BYTES = 1024 * 1024

# Largest Picard sweep working set a solve may ask for; a larger one would
# exhaust memory in the middle of the solve instead of failing at its start.
# The shipped configs need 19 MB (heat) and 18 MB (delay); n_proj: 3 at the
# solver defaults 1.99 GB from the sizes alone (1.67 GB of it hinge sums).
_SWEEP_BUDGET_BYTES = 1 << 30

# First positive time node as a share of the horizon (:func:`make_time_grid`).
T_MIN_FACTOR = 1e-4


class _Plan(NamedTuple):
    """The passes of :func:`h_min_batch`."""

    lead: int       # the first control with a nonzero coordinate (n_u: none)
    # per control j from ``lead`` on, in index order: (j, ell1(u_j), the
    # nonzero (k, u_jk) of control j)
    passes: tuple
    # (j, ell1(u_j)) of the least all-zero control ahead of ``lead``, or None
    const: tuple | None


class _Hinge(NamedTuple):
    """H_min = alpha - scale * :func:`hinge_batch` (see :class:`Hamiltonian`)."""

    alpha: float
    scale: float        # beta of the first hinge; -1 without a hinge form
    span: tuple | None  # components k0 <= k < k1 whose |p_k| are read, or None
    ks: tuple           # the components K, as k - k0
    hinges: tuple       # (rho_h, beta_h) by increasing rho_h; () if not radial


@dataclass(frozen=True)
class Hamiltonian:
    """Finite control grid U = {u_j} with running costs ell1(u_j).

    ``plan`` holds what :func:`h_min_batch` executes, built here once (a
    :class:`_Plan`): each control's values are ell1(u_j) + sum of u_jk p_k
    over its nonzero u_jk, in k order.

    ``hinge`` is the form the Picard sweep takes H_min in, built here once.
    The +- pairs (``pair_role``) with equal ell1 and equal |u| form a
    group.  The grid is *radial* when every control is all-zero or in a +-
    pair, there is a pair, and every group has the same components K.
    Then H_min(p) = phi(r), r = max_{k in K} |p_k|, and
    phi(r) = min(c_0, min_g(c_g - a_g r)) (c_0 the least all-zero cost, if
    any; group g of cost c_g and |u| = a_g) is concave and piecewise linear
    on r >= 0: phi(r) = alpha - sum_h beta_h max(r, rho_h), with the
    breakpoints rho_h of its lower envelope, the slope drops beta_h > 0 (a
    first hinge at rho = 0 when phi falls from r = 0) and alpha the cost of
    its steepest line.  Heat's grid gives alpha = 0.05 and one hinge
    (0.05, 1); delay's gives alpha = 0.05 and (0.025, 1/2), (0.075, 1/2).
    A grid that is not radial has no hinges, alpha = 0 and scale = -1, so
    that H_min = alpha - scale * :func:`hinge_batch` holds for every grid.
    """

    control_points: np.ndarray   # (n_u, m)
    running_cost: np.ndarray     # (n_u,)
    # per control, 1 for the lower and 2 for the upper index of a +- pair
    # (u and -u with one nonzero coordinate and equal running cost, each
    # control in at most one pair, lowest free partner first), else 0
    pair_role: tuple = field(init=False, repr=False, compare=False)
    plan: tuple = field(init=False, repr=False, compare=False)
    hinge: _Hinge = field(init=False, repr=False, compare=False)

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
        lead = next((j for j, tj in enumerate(terms) if tj), len(terms))
        least = int(np.argmin(c[:lead])) if lead else None
        object.__setattr__(self, "plan", _Plan(
            lead, tuple((j, float(c[j]), terms[j]) for j in range(lead, len(terms))),
            None if least is None else (least, float(c[least]))))
        object.__setattr__(self, "hinge", _hinge(terms, c, role))

    @property
    def control_dim(self) -> int:
        return self.control_points.shape[1]


def _groups(terms: tuple, cost: np.ndarray, role) -> dict:
    """(ell1, |u|): components of the groups of +- pairs of ``role`` (see
    ``Hamiltonian.pair_role``)."""
    groups = {}
    for j, tj in enumerate(terms):
        if role[j] == 1:
            (k, uk), = tj
            ks = groups.setdefault((float(cost[j]), abs(uk)), [])
            if k not in ks:
                ks.append(k)
    return groups


def _hinge(terms: tuple, cost: np.ndarray, role) -> _Hinge:
    """The :class:`_Hinge` of controls ``terms`` (their nonzero (k, u_jk))
    and running costs ``cost`` with the +- pairs of ``role``: the lower
    envelope of the lines c - a r, walked from r = 0 on."""
    groups = _groups(terms, cost, role)
    comps = {tuple(sorted(ks)) for ks in groups.values()}
    if len(comps) != 1 or any(tj and not r for tj, r in zip(terms, role)):
        return _Hinge(0.0, -1.0, None, (), ())
    ks, = comps
    lines = list(groups)
    zero = [float(cj) for tj, cj in zip(terms, cost) if not tj]
    if zero:
        lines.append((min(zero), 0.0))
    # at r = 0 the least cost, of those the steepest line, is the minimum;
    # each next line is the steeper one that crosses it first (the steepest
    # of a tie), each crossing no earlier than the last
    c, a = min(lines, key=lambda line: (line[0], -line[1]))
    hinges = [(0.0, a)] if a > 0.0 else []
    while steeper := [(cj, aj) for cj, aj in lines if aj > a]:
        cj, aj = min(steeper, key=lambda line: ((line[0] - c) / (line[1] - a), -line[1]))
        rho = max((cj - c) / (aj - a), hinges[-1][0] if hinges else 0.0)
        hinges.append((rho, aj - a))
        c, a = cj, aj
    return _Hinge(c, hinges[0][1], (ks[0], ks[-1] + 1),
                  tuple(k - ks[0] for k in ks), tuple(hinges))


def h_min_batch(ham: Hamiltonian, p: np.ndarray, argmin: bool = False, out=None):
    """Minimized Hamiltonian min_j <p, u_j> + ell1(u_j) over a batch of gradients.

    ``p`` has shape (m, ...): gradient components along the first axis.
    The routine executes ``ham.plan`` (see :class:`Hamiltonian`): every
    control takes its own pass, in index order, and the passes keep a
    running minimum in one reused scratch row, so no array of all (point,
    control) values is formed; leading all-zero controls, which are
    constants, enter last as one scalar.  A first u_jk of +-1 adds or
    subtracts p_k without the multiply, which is exact.  ``out``, if
    given, is a C-contiguous array of p.shape[1:] values that receives the
    minimum.  With ``argmin`` the index of the minimizer is returned as
    well; ties break to the lowest index (determinism).
    """
    p2 = p.reshape(ham.control_dim, -1)
    if out is None:
        best = np.empty(p2.shape[1])
    elif out.flags.c_contiguous and out.size == p2.shape[1]:
        best = out.reshape(-1)
    else:
        raise ValueError("out must be C-contiguous with one value per gradient")
    lead, passes, const = ham.plan
    vals = np.empty(best.size)
    idx = np.full(best.shape, lead, dtype=np.intp) if argmin else None
    row = best                      # the first pass starts the minimum
    for j, cost, terms in passes:
        if terms:
            (k, uk), *rest = terms
            if uk == 1.0:
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
        if j != lead:
            if argmin:
                np.putmask(idx, row < best, j)
            np.minimum(best, row, out=best)
        row = vals
    if const:
        # all-zero controls ahead of the lead (the rest control of the heat
        # grids) are constants: the least of them, lowest index first,
        # joins last and wins its ties, as every other control has a
        # higher index
        j, cost = const
        if not passes:
            best.fill(np.inf)       # no control has a nonzero coordinate
        if argmin:
            np.putmask(idx, best >= cost, j)
        np.minimum(best, cost, out=best)
    shape = p.shape[1:]
    return (best.reshape(shape), idx.reshape(shape)) if argmin else best.reshape(shape)


def hinge_batch(ham: Hamiltonian, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The hinge sum X = sum_h beta_h max(r, rho_h) over a batch of
    gradients, divided by ``scale``: H_min = alpha - scale * result
    (``ham.hinge``, see :class:`Hamiltonian`).  On a grid without hinges
    the result is :func:`h_min_batch`'s.

    ``p`` has shape (m, *B) and ``out`` shape B, C-contiguous.  The rows of
    ``p`` in the hinge's span are overwritten with |p_k|, so that no scratch
    is needed: r = max_k |p_k| is formed in the first row of K, and as
    rho_h increases, max(r, rho_h) replaces r in place.  Heat's grid takes
    three passes (|p| over both rows, the max over K, the max with rho) and
    delay's four (|p|, two maxima with rho, one sum).
    """
    _, scale, span, ks, hinges = ham.hinge
    if not hinges:
        return h_min_batch(ham, p, out=out)
    absp = p[span[0]:span[1]]
    np.abs(absp, out=absp)
    r = absp[ks[0]]
    for k in ks[1:]:
        np.maximum(r, absp[k], out=r)
    np.maximum(r, hinges[0][0], out=out)
    for rho, beta in hinges[1:]:
        np.maximum(r, rho, out=r)
        if beta == scale:
            out += r
        else:
            out += (beta / scale) * r
    return out


@dataclass(frozen=True)
class SolverConfig:
    """Grids, tolerances and quadrature settings of the Picard solver."""

    horizon: float = 1.0
    gamma: float | None = None        # None: take it from the blow-up fit
    tol: float = 1e-4
    max_iter: int = 30
    n_time: int = 40
    space_points: int = 41
    box_halfwidth: float | None = None
    quad_order: int = 6
    time_quad_order: int = 7

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")
        if self.box_halfwidth is not None and not 0 < self.box_halfwidth < math.inf:
            raise ValueError(
                f"box_halfwidth must be finite and > 0, got {self.box_halfwidth}")
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

def _sweep_bytes(cfg: SolverConfig, proj_dim: int, control_dim: int,
                 pad: int = 1, window: int = 0, coef: int = 0) -> int:
    """Bytes of the Picard sweep working set: the operator's buffers (a
    node's hinge sums, one s-node's gradients, the padded slices, the
    largest window chunk), the ``coef`` stored coefficients and the
    iterate a sweep computes.
    The defaults leave out the windows, which only the assembly knows."""
    n, m = cfg.space_points, control_dim
    n_s, n_q, n_pts = 2 * cfg.time_quad_order, cfg.quad_order**proj_dim, n**proj_dim
    node = (n_s + m) * n_q * n_pts + n_s * m * (n + 2 * pad) ** proj_dim
    chunk = _chunk_values(m * window * n ** (proj_dim - 1), n) if window else 0
    iterate = n_pts * (cfg.n_time + 1 + m * cfg.n_time)
    return 8 * (node + chunk + coef + iterate)


def _check_problem_size(cfg: SolverConfig, proj_dim: int, control_dim: int, *windows):
    """Raise :class:`ConfigError` for a projected dimension N above the
    tensor Gauss-Hermite rule's MAX_HERMITE_DIM, or for a Picard sweep over
    _SWEEP_BUDGET_BYTES (:func:`_sweep_bytes`).  :func:`picard_solve`
    checks the sizes alone before it builds anything; the assembly checks
    again at every time node, with the windows so far, before it builds the
    node's window coefficients."""
    if proj_dim > MAX_HERMITE_DIM:
        raise ConfigError(
            f"the projected dimension N = {proj_dim} is above "
            f"{MAX_HERMITE_DIM}, the most the tensor Gauss-Hermite rule takes"
        )
    need = _sweep_bytes(cfg, proj_dim, control_dim, *windows)
    if need > _SWEEP_BUDGET_BYTES:
        raise ConfigError(
            f"the solver would need about {need / 1e9:.3g} GB per Picard sweep "
            f"(N = {proj_dim}, space_points = {cfg.space_points}, "
            f"quad_order = {cfg.quad_order}, time_quad_order = {cfg.time_quad_order}, "
            f"n_time = {cfg.n_time}); the budget is "
            f"{_SWEEP_BUDGET_BYTES / 1e9:.3g} GB"
        )


def make_time_grid(cfg: SolverConfig) -> np.ndarray:
    """{0} plus n_time geometric nodes from T_MIN_FACTOR * T up to T."""
    t_min = T_MIN_FACTOR * cfg.horizon
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

    ``shifts`` has shape (*B, N).  On a uniform axis of n nodes with step
    h, moving every node j by the same c lands at j + k + a with
    k = floor(c / h) and a = c / h - k in [0, 1), for all j alike; k is
    clamped to [-n, n], beyond which every node lands outside the box on
    the same side.  Returns one pair (k, a) of (*B,) arrays per axis.
    """
    out = []
    for d, ax in enumerate(axes):
        pos = shifts[..., d] / (ax[1] - ax[0])
        k = np.floor(pos)
        out.append((np.clip(k, -ax.size, ax.size).astype(np.intp), pos - k))
    return tuple(out)


def window_bounds(stencil) -> tuple[list, list]:
    """Per batch row s of :func:`shift_stencil` data of batch shape
    (S, n_q), the origin lo = min_q k and the width max_q k - lo + 2 of the
    row's window on each axis, as lists of ints: node j of shift (k, a)
    reads nodes clip(j + k) and clip(j + k + 1), which lie in the window
    at mesh + lo."""
    lo = np.stack([k.min(axis=1) for k, _ in stencil], axis=1)
    width = np.stack([k.max(axis=1) for k, _ in stencil], axis=1) - lo + 2
    return lo.tolist(), width.tolist()


def window_coefficients(stencil, lo, width) -> tuple[np.ndarray, ...]:
    """Per batch row s of :func:`window_bounds`, the (n_q, prod(width[s]))
    coefficients of its shifts: row q is the Kronecker product over the
    axes, in C order of the window, of shift q's rows that hold 1 - a at
    k - lo and a at k - lo + 1."""
    coef = []
    for s, (lo_s, width_s) in enumerate(zip(lo, width)):
        c = np.ones((stencil[0][0].shape[1], 1))
        for (k, a), o, w in zip(stencil, lo_s, width_s):
            row = np.zeros((k.shape[1], w))
            q, at = np.arange(k.shape[1]), k[s] - o
            row[q, at], row[q, at + 1] = 1.0 - a[s], a[s]
            c = (c[:, :, None] * row[:, None, :]).reshape(k.shape[1], -1)
        coef.append(c)
    return tuple(coef)


def window_view(padded: np.ndarray, pad: int, lo, width) -> np.ndarray:
    """Strided view W[c, r, j] = padded[c, pad + lo + r + j], shape
    (m, *width, *grid), of a C-contiguous (m, *(grid + 2 pad)) array, one
    index per axis in r < ``width`` and j < grid; needs -pad <= lo and
    lo + width - 1 <= pad."""
    st = padded.strides
    grid = tuple(size - 2 * pad for size in padded.shape[1:])
    offset = sum((pad + o) * s for o, s in zip(lo, st[1:]))
    return np.ndarray(padded.shape[:1] + tuple(width) + grid, padded.dtype,
                      buffer=padded, offset=offset, strides=st + st[1:])


def pad_edges(padded: np.ndarray, pad: int, n_dim: int) -> np.ndarray:
    """Fill the ``pad`` outer cells per side of the last ``n_dim`` axes with
    the edge values inside them, axis by axis (so the corners too), as
    ``np.pad(mode="edge")`` does: clamped interpolation reads the result."""
    for d in range(padded.ndim - n_dim, padded.ndim):
        size, at = padded.shape[d] - 2 * pad, (slice(None),) * d
        padded[at + (slice(0, pad),)] = padded[at + (slice(pad, pad + 1),)]
        padded[at + (slice(pad + size, None),)] = padded[at + (slice(pad + size - 1, pad + size),)]
    return padded


def _chunk_values(row_values: int, n_rows: int) -> int:
    """Largest :func:`interp_windows` chunk, in values, for windows of at
    most ``row_values`` values per mesh row."""
    return max(row_values, min(n_rows * row_values, WINDOW_CHUNK_BYTES // 8))


def window_chunks(windows: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> tuple:
    """The chunks that :func:`interp_windows` runs for ``windows`` (a
    :func:`window_view`, shape (m, *width, *grid)) into ``out``
    (m, n_q, P): per chunk of mesh rows, at most WINDOW_CHUNK_BYTES (at
    least one row), the part of ``windows``, its C-contiguous copy at the
    start of the flat ``scratch``, that copy as (m, prod(width), chunk)
    matrices and the chunk's columns of ``out``."""
    n_dim = (windows.ndim - 1) // 2
    m, grid = windows.shape[0], windows.shape[1 + n_dim:]
    n_win, rest = math.prod(windows.shape[1:1 + n_dim]), math.prod(grid[1:])
    rows = max(1, min(grid[0], WINDOW_CHUNK_BYTES // (8 * m * n_win * rest)))
    chunks = []
    for r0 in range(0, grid[0], rows):
        r1 = min(r0 + rows, grid[0])
        part = windows[(slice(None),) * (1 + n_dim) + (slice(r0, r1),)]
        buf = scratch[:part.size].reshape(part.shape)
        chunks.append((part, buf, buf.reshape(m, n_win, -1),
                       out[:, :, r0 * rest:r1 * rest]))
    return tuple(chunks)


def interp_windows(coef: np.ndarray, chunks: tuple):
    """Multilinear interpolation at every mesh point plus each shift of one
    :func:`window_bounds` row: ``coef`` @ windows into the output of the
    row's :func:`window_chunks`, each chunk copied into its C-contiguous
    scratch and multiplied by one BLAS gemm per component.  The chunks are
    views built once, so a call does no set-up."""
    for part, buf, mat, out in chunks:
        np.copyto(buf, part)
        np.matmul(coef, mat, out=out)


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
    s-nodes times n_q expectation nodes.  With H_min = alpha - scale * X
    (``Hamiltonian.hinge``), a sum w . H_min is alpha sum(w) - scale w . X:
    ``offset`` holds the first part, so that the sweep's one gemm of X
    against ``weights`` gives both sums.
    """

    i0: np.ndarray         # (S,) bracketing gradient-slice indices
    i1: np.ndarray
    w0: np.ndarray         # (S, 1, ...) s^{-gamma} times the time-interpolation
    w1: np.ndarray         # weights, shaped to broadcast over (S, m, *grid)
    lo: list               # per s-node, the window origin per axis (window_bounds)
    width: list            # per s-node, the window width per axis
    coef: tuple            # per s-node, the (n_q, prod(width)) coefficients
    # (S * n_q, 1 + m): time-quadrature times expectation weights, then the
    # same times the gradient weights
    weights: np.ndarray
    # (1 + m,): ell0's integral plus alpha times the column sums of
    # ``weights`` for f, alpha times them for the gradient
    offset: np.ndarray


class UpsilonOperator:
    """Precomputed Picard map on fixed grids.

    Everything that does not depend on the iterate (semigroup terms,
    covariance square roots, quadrature offsets, gradient weights, window
    coefficients and the views of each s-node's step) is assembled once;
    ``sweep`` then only blends, interpolates, evaluates the Hamiltonian's
    hinge sum and sums.

    ``sweep`` relies on three facts: the space grid is a uniform tensor
    grid, each Gaussian quadrature offset is one constant shift for every
    mesh point, and interpolation clamps at the box edge.  The values at
    mesh + offset of one s-node's n_q offsets are then one product: their
    (n_q, prod(width)) Kronecker coefficients times the windows, spanning
    all the offsets' nodes, of the gradient slice edge-padded by ``pad``
    cells per side, the largest |k| + 1 (:func:`shift_stencil`,
    :func:`window_bounds`, :func:`window_coefficients`, :func:`pad_edges`).

    A sweep runs the time nodes in order.  A node that it computes blends
    its slices into one padded (S, m, *(n + 2 pad)) array, s-node first,
    so that each s-node's slab is contiguous and its :func:`window_view` a
    plain strided view.  Per s-node, :func:`interp_windows` gives the
    (m, n_q, P) interpolated gradients, whose hinge sums X / scale
    (:func:`hinge_batch`; :func:`h_min_batch` values on a grid that is not
    radial) go straight into that s-node's rows of one (S * n_q, P) array.
    One gemm of that array against the node's (S * n_q, 1 + m) weights
    gives the f and gradient sums; the node's ``offset`` adds alpha's
    share.  The assembly builds, per time node and s-node, the views this
    step runs on: the :func:`window_chunks` of the s-node's window into the
    padded array and its rows of hinge sums.  A sweep builds no view and
    does no chunk arithmetic; it copies, multiplies and takes maxima.

    Settled nodes: an iterate's settled count is the length of the leading
    run of time nodes i whose gradient slice differs from that of the
    iterate it was computed from by at most four ulps, 4 ``np.spacing`` of
    its largest |fbar| over slices 0..i (the slices node i reads).  Below
    the count of its input, a sweep copies the input's ``f[i + 1]`` and
    ``fbar[i]``: no blend, interpolation or Hamiltonian.  Four ulps, not
    one: early slices that have reached their floating-point fixed point
    can still cycle between a few values a couple of ulps apart (rounding
    of the blend and the quadrature sums), and one ulp would recompute
    such nodes at every iterate.  Inputs unchanged to four ulps give an
    output unchanged to rounding, so copies keep the iterates within
    rounding of exact applies (at most 2.2e-16 on the shipped and
    benchmark configs).  A copied slice equals its source, so a count
    never falls from one iterate to the next.  ``apply`` is a sweep with
    nothing settled, the exact map.

    Memory: the operator stores the window coefficients of every node
    (7.7 MB heat, 8.0 MB delay on the shipped 41-point grids) and the
    views of every step.  It also owns the sweep's buffers: the padded
    array, one s-node's gradients, the hinge array and one window chunk of
    at most WINDOW_CHUNK_BYTES or one mesh row.  Sweeps on one operator
    therefore share them and are not re-entrant: run one at a time.  A
    sweep allocates only its iterate (:func:`_sweep_bytes` counts all).
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
        # pad cells per side of the sweep's padded gradient slices (the
        # largest |k| + 1), the largest window and the coefficient count
        self.pad, self.window, self._coef_values, self.clamped_mass = 1, 0, 0, 0.0
        self.conv = [self._time_quadrature(i, t_pos, jacobi) for i in range(t_pos.size)]

        # the sweep buffers, sized as _sweep_bytes counts them: the blended
        # gradient slices, per s-node components first, each edge-padded by
        # ``pad`` cells per side so that every window lies inside; one
        # s-node's interpolated gradients (hinge_batch's scratch too); the
        # hinge sums per (s-node, Gauss node); the largest window chunk
        n_s, n_q = 2 * self.cfg.time_quad_order, self.rule.nodes.shape[0]
        m, pad, shape, npts = self.ham.control_dim, self.pad, self.space_shape, self.mesh.shape[0]
        self._padded = np.empty((n_s, m) + tuple(size + 2 * pad for size in shape))
        self._inner = self._padded[(slice(None),) * 2
                                   + tuple(slice(pad, pad + size) for size in shape)]
        self._block = np.empty((m, n_q, npts))
        self._hvals = np.empty((n_s * n_q, npts))
        scratch = np.empty(_chunk_values(m * self.window * npts // shape[0], shape[0]))
        # per time node and s-node: its coefficients, the window_chunks of
        # its window into its padded slab, and its rows of hinge sums
        self._steps = [
            tuple((coef,
                   window_chunks(window_view(slab, pad, lo, width), self._block, scratch),
                   self._hvals[s * n_q:(s + 1) * n_q])
                  for s, (slab, lo, width, coef)
                  in enumerate(zip(self._padded, cv.lo, cv.width, cv.coef)))
            for cv in self.conv
        ]

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
        s_pow = (s_nodes ** (-gamma)).reshape((-1,) + (1,) * (1 + len(self.space_axes)))
        theta = theta.reshape(s_pow.shape)
        qw = np.outer(s_weights, self.rule.weights)
        stencil = shift_stencil(self.space_axes, np.stack(offs[1:]))
        self.clamped_mass = max(self.clamped_mass,
                                clamped_share(stencil, qw.ravel(), self.space_shape))
        lo, width = window_bounds(stencil)
        sizes = np.prod(width, axis=1)
        self.pad = max(self.pad, *(int(max(-k.min(), k.max() + 1)) for k, _ in stencil))
        self.window = max(self.window, int(sizes.max()))
        self._coef_values += nodes.shape[0] * int(sizes.sum())
        # the working set with this node's windows, before its coefficients
        _check_problem_size(self.cfg, self.model.proj_dim, self.ham.control_dim,
                            self.pad, self.window, self._coef_values)
        weights = np.concatenate((qw[..., None], qw[..., None] * np.stack(gvecs[1:])),
                                 axis=-1).reshape(qw.size, -1)
        offset = self.ham.hinge.alpha * weights.sum(axis=0)
        offset[0] += self.ell0_cum[i]
        return _Convolution(
            i0=i0, i1=i1, w0=s_pow * (1.0 - theta), w1=s_pow * theta,
            lo=lo, width=width, coef=window_coefficients(stencil, lo, width),
            weights=weights, offset=offset,
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
        """Upsilon(g), exactly: a sweep with nothing settled."""
        return self.sweep(g, 0)[0]

    def sweep(self, g: ValueIterate, settled: int) -> tuple[ValueIterate, int]:
        """Upsilon(g), time node by time node, copying the first
        ``settled`` nodes from ``g`` (see the class docstring), and the
        settled count of the result.

        ``settled`` is the settled count of ``g`` against the iterate it
        was computed from: the count the sweep that computed ``g``
        returned, or 0, which makes every node compute."""
        _check_grids(g, self)
        t_pos = self.time_grid[1:]
        n_t = t_pos.size
        npts = self.mesh.shape[0]
        m = self.ham.control_dim
        f_new = np.empty((n_t + 1, npts))
        f_new[0] = self.phi(self.mesh)
        fbar_new = np.empty((n_t, npts, m))
        f_src = g.f_values.reshape(n_t + 1, npts)
        fbar_src = g.fbar_values.reshape(n_t, npts, m)
        fbar = g.fbar_values
        # the settled count of the new iterate, and its largest |fbar|
        # over the slices of that count
        count, top = 0, 0.0
        ham, hvals, block = self.ham, self._hvals, self._block
        scale = ham.hinge.scale
        for i, t in enumerate(t_pos):
            cv = self.conv[i]
            if i < settled:
                # the input's slices 0..i have settled: its own node i is
                # this node's value to rounding
                f_new[i + 1] = f_src[i + 1]
                fbar_new[i] = fbar_src[i]
                self.copied += 1
            else:
                # interpolation is linear in the array: blend the two
                # bracketing time slices (times s^{-gamma}) components
                # first into the padded array, then interpolate per s-node
                np.multiply(cv.w0, np.moveaxis(fbar[cv.i0], -1, 1), out=self._inner)
                self._inner += cv.w1 * np.moveaxis(fbar[cv.i1], -1, 1)
                pad_edges(self._padded, self.pad, len(self.space_shape))
                for coef, chunks, rows in self._steps[i]:
                    interp_windows(coef, chunks)
                    hinge_batch(ham, block, rows)
                # both quadrature sums of H_min = alpha - scale * hvals
                # in one gemm; alpha's share is the node's offset
                sums = hvals.T @ cv.weights
                sums *= scale
                f_new[i + 1] = self.s_f[i] + cv.offset[0] - sums[:, 0]
                fbar_new[i] = t**self.gamma * (self.s_grad[i] + cv.offset[1:] - sums[:, 1:])
            if count == i:
                # the leading run of settled slices grows while slice i
                # moves by at most four ulps of its slices 0..i
                top = max(top, float(np.abs(fbar_new[i]).max()))
                if np.abs(fbar_new[i] - fbar_src[i]).max() <= 4 * np.spacing(top):
                    count = i + 1
        return self._pack(f_new, fbar_new), count


# ---------------------------------------------------------------------------
# sup norm, Picard loop

def sup_distance(g1: ValueIterate, g2: ValueIterate) -> float:
    """Distance sup|f1 - f2| + sup|fbar1 - fbar2| of two iterates on the
    same grids, the norm of the Picard stopping test.

    The t^gamma factor of the gradient part is already embedded in the
    stored fbar arrays.
    """
    _check_grids(g1, g2)
    if g1.fbar_values.shape != g2.fbar_values.shape:
        raise GridMismatch("gradient value shapes differ")
    df = np.abs(g1.f_values - g2.f_values).max()
    dbar = np.abs(g1.fbar_values - g2.fbar_values).max()
    return float(df + dbar)


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
    raises :class:`ConfigError` before anything is built.

    ``gamma`` defaults to the fitted blow-up exponent of the smoothing
    operator (slightly padded); any exponent at least that large also works.

    The stopping test and the growth rule (:class:`NoContraction` after
    three consecutive residual increases) use the sup norm of
    :func:`sup_distance`, so converged means a sup residual below ``tol``
    and the solution's ``eta_weight`` is always 0 (no exp(-eta t) weight;
    see the module docstring).

    ``initial`` names the start: ``"semigroup"``
    (:meth:`UpsilonOperator.initial_iterate`) or ``"zero"``
    (:meth:`UpsilonOperator.zero_iterate`).

    Each iterate is one :meth:`UpsilonOperator.sweep` that starts from the
    settled count the previous one returned (0 at the start), so
    ``diagnostics["applies"]["picard"]`` equals ``iterations``;
    ``diagnostics["copied_nodes"]`` counts the node-iterates copied from a
    settled source.
    """
    if initial not in ("semigroup", "zero"):
        raise ValueError(f"initial must be 'semigroup' or 'zero', got {initial!r}")
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
    while len(residuals) < cfg.max_iter:
        g_next, settled = ups.sweep(g, settled)
        d = sup_distance(g_next, g)
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
        if d < cfg.tol:
            break
    diagnostics["applies"] = {"picard": len(residuals)}
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
