"""Picard fixed-point solver for the mild HJB equation.

The backward HJB equation is rewritten forward (w(t, x) = v(T - t, x)) as the
integral identity

    w(t, x) = R_t[phi](x) + int_0^t ell0(T - s) ds
              + int_0^t R_{t-s}[H_min(grad_C w(s, .))](x) ds,

whose right-hand side is the map Upsilon below.  ell0 is a function of
calendar time: its term is int_{T-t}^T ell0(s) ds, what the simulation
charges from T - t (:meth:`CostSpec.ell0_integral`).  Every iterate is stored in
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
reads the gradient slices 0..i only.  Each Picard iterate is one
:meth:`UpsilonOperator.apply`, a sweep over the time nodes, which copies
the nodes whose inputs have settled (:func:`settled_count`).  Every read
of an iterate between its nodes, in time and in space, at scattered points
or at mesh + each Gaussian offset, takes the taps of one kernel,
:func:`linear_taps`.  On a radial control grid H_min is a concave
piecewise-linear function of r = max_k |p_k|, alpha - sum_h beta_h
max(r, rho_h), built once with the Hamiltonian (:class:`Hamiltonian`).

Residuals are measured in the sup norm (:func:`sup_distance`).  The paper
proves contraction in the equivalent exp(-eta t)-weighted norm; a weight
changes what a residual reads, not the fixed point, so the solver does not
use it and only the test suite measures in it.
"""

from __future__ import annotations

import itertools
import math
import mmap
import os
import signal
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    GridMismatch,
    OutOfGrid,
    SmoothingViolated,
)
from .ou import ProjectedModel
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


class _Hinge(NamedTuple):
    """H_min = alpha - scale * :func:`hinge_batch` (see :class:`Hamiltonian`)."""

    alpha: float
    scale: float        # beta of the first hinge; -1 without a hinge form
    ks: tuple           # the components K whose |p_k| are read
    hinges: tuple       # (rho_h, beta_h) by increasing rho_h; () if not radial


@dataclass(frozen=True)
class Hamiltonian:
    """Finite control grid U = {u_j} with running costs ell1(u_j).

    ``terms`` holds each control's nonzero (k, u_jk) in k order, the
    values that :func:`h_min_batch` sums.

    ``hinge`` is the form the Picard sweep takes H_min in, built here once.
    The controls with one nonzero coordinate u_jk form groups of equal ell1
    and equal |u_jk|, each a set of (k, sign of u_jk).  The grid is
    *radial* when every control is all-zero or in a group, there is a
    group, and every group is the set K x {+, -} of the same components K.
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
    terms: tuple = field(init=False, repr=False, compare=False)
    hinge: _Hinge = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.control_points, dtype=float))
        c = np.asarray(self.running_cost, dtype=float)
        if u.shape[0] == 0:
            raise DimensionMismatch("control grid must be nonempty")
        if c.shape != (u.shape[0],):
            raise DimensionMismatch("running_cost must match control grid length")
        if not (np.isfinite(u).all() and np.isfinite(c).all()):
            raise ValueError("control points and running costs must be finite")
        object.__setattr__(self, "control_points", u)
        object.__setattr__(self, "running_cost", c)
        terms = tuple(
            tuple((k, float(uk)) for k, uk in enumerate(row) if uk != 0.0) for row in u
        )
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "hinge", _hinge(terms, c.tolist()))

    @property
    def control_dim(self) -> int:
        return self.control_points.shape[1]


def _hinge(terms: tuple, cost: list) -> _Hinge:
    """The :class:`_Hinge` of controls ``terms`` (their nonzero (k, u_jk))
    and running costs ``cost``: the lower envelope of the lines c - a r,
    walked from r = 0 on."""
    groups = {}
    for tj, cj in zip(terms, cost):
        if len(tj) > 1:
            return _Hinge(0.0, -1.0, (), ())
        if tj:
            (k, uk), = tj
            groups.setdefault((cj, abs(uk)), set()).add((k, uk > 0.0))
    # radial: the groups are one set K x {+, -}, K nonempty
    sets = {frozenset(g) for g in groups.values()}
    ks = sorted({k for g in sets for k, _ in g})
    if sets != {frozenset(itertools.product(ks, (False, True)))}:
        return _Hinge(0.0, -1.0, (), ())
    lines = list(groups)
    zero = [cj for tj, cj in zip(terms, cost) if not tj]
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
    return _Hinge(c, hinges[0][1], tuple(ks), tuple(hinges))


def h_min_batch(ham: Hamiltonian, p: np.ndarray, argmin: bool = False, out=None):
    """Minimized Hamiltonian min_j <p, u_j> + ell1(u_j) over a batch of gradients.

    ``p`` has shape (m, ...): gradient components along the first axis.
    Every control takes its own pass, in index order: ell1(u_j) plus its
    ``ham.terms`` in k order, into one reused scratch row that joins a
    running minimum, so no array of all (point, control) values is formed.
    An all-zero control is a constant: control 0 fills the minimum and a
    later one joins it as a scalar.  A first u_jk of +-1 adds or subtracts
    p_k without the multiply, which is exact.  ``out``, if given, is a
    C-contiguous array of p.shape[1:] values that receives the minimum.
    With ``argmin`` the index of the minimizer is returned as well; ties
    break to the lowest index (determinism).
    """
    p2 = p.reshape(ham.control_dim, -1)
    if out is None:
        best = np.empty(p2.shape[1])
    elif out.flags.c_contiguous and out.size == p2.shape[1]:
        best = out.reshape(-1)
    else:
        raise ValueError("out must be C-contiguous with one value per gradient")
    vals = np.empty(best.size)
    idx = np.zeros(best.shape, dtype=np.intp) if argmin else None
    row = best                      # control 0 starts the minimum
    for j, (cost, terms) in enumerate(zip(ham.running_cost.tolist(), ham.terms)):
        if not terms:
            row = cost              # an all-zero control: a constant
            if not j:
                best.fill(cost)
        else:
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
        if j:
            if argmin:
                np.putmask(idx, row < best, j)
            np.minimum(best, row, out=best)
        row = vals
    shape = p.shape[1:]
    return (best.reshape(shape), idx.reshape(shape)) if argmin else best.reshape(shape)


def hinge_batch(ham: Hamiltonian, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The hinge sum X = sum_h beta_h max(r, rho_h) over a batch of
    gradients, divided by ``scale``: H_min = alpha - scale * result
    (``ham.hinge``, see :class:`Hamiltonian`).  On a grid without hinges
    the result is :func:`h_min_batch`'s.

    ``p`` has shape (m, *B) and ``out`` shape B, C-contiguous.  ``p`` is
    overwritten with |p|, so that no scratch is needed: r = max_k |p_k| is
    formed in the row of the first component of K, and as rho_h increases,
    max(r, rho_h) replaces r in place.  Heat's grid takes three passes (|p|
    over both rows, the max over K, the max with rho) and delay's four
    (|p|, two maxima with rho, one sum).
    """
    _, scale, ks, hinges = ham.hinge
    if not hinges:
        return h_min_batch(ham, p, out=out)
    np.abs(p, out=p)
    r = p[ks[0]]
    for k in ks[1:]:
        np.maximum(r, p[k], out=r)
    np.maximum(r, hinges[0][0], out=out)
    for rho, beta in hinges[1:]:
        np.maximum(r, rho, out=r)
        if beta == scale:
            out += r
        else:
            out += (beta / scale) * r
    return out


@dataclass(frozen=True)
class CostSpec:
    """The cost J(t, x; u) = E[int_t^T (ell0(s) + ell1(u(s))) ds + phi(X(T))],
    the one record of the problem that the solver and the simulation read:
    time cost, control grid with running costs ell1, terminal cost, horizon.

    ``phi`` is any callable that maps an (..., N) float array of projected
    points to the (...) float array of their costs; the :mod:`costs`
    builders return such functions."""

    ell0: object                  # vectorized callable of calendar time
    ham: Hamiltonian
    phi: object                   # vectorized callable, (..., N) -> (...)
    horizon: float = 1.0

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")

    def ell0_integral(self, a, b: float):
        """int_a^b ell0(s) ds by the 2001-point trapezoid rule, for a
        number ``a`` or each entry of an array of them (one ell0 call)."""
        s = np.linspace(a, b, 2001, axis=-1)
        return np.trapezoid(np.asarray(self.ell0(s), dtype=float), s)


@dataclass(frozen=True)
class SolverConfig:
    """Grids, tolerances and quadrature settings of the Picard solver."""

    gamma: float | None = None        # None: take it from the blow-up fit
    tol: float = 1e-4
    max_iter: int = 30
    n_time: int = 40
    space_points: int = 41
    box_halfwidth: float | None = None
    quad_order: int = 6
    time_quad_order: int = 7

    def __post_init__(self):
        if self.box_halfwidth is not None and not 0 < self.box_halfwidth < math.inf:
            raise ValueError(
                f"box_halfwidth must be finite and > 0, got {self.box_halfwidth}")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")
        for name, least, why in (
                ("space_points", 2, " (two nodes per axis bracket every point)"),
                ("n_time", 1, ""), ("max_iter", 1, ""),
                ("quad_order", 2, " (one Gauss-Hermite node sits at the mean, "
                                  "where every gradient weight is zero)"),
                ("time_quad_order", 1, "")):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}{why}")


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
    """The last iterate of a solve, converged or not, plus its diagnostics;
    ``diagnostics["stop"]`` says why the solve stopped."""

    iterate: ValueIterate
    residual: float
    contraction_estimates: list[float]
    iterations: int
    eta_weight: float       # always 0.0: solves stop in the sup norm
    gamma: float
    phi: object             # the terminal cost, read by eval_value at t = T
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
    once more with every node's windows, before it builds any window
    coefficient."""
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


def make_time_grid(cfg: SolverConfig, horizon: float) -> np.ndarray:
    """{0} plus n_time geometric nodes from T_MIN_FACTOR * T up to T."""
    pos = np.geomspace(T_MIN_FACTOR * horizon, horizon, cfg.n_time)
    pos[-1] = horizon
    return np.concatenate(([0.0], pos))


def check_horizon_cov(model: ProjectedModel, horizon: float) -> None:
    """Raise :class:`ConfigError` unless proj_cov(horizon), which bounds
    every covariance a solve or a simulation reads, is finite; numpy's
    overflow warnings are off for the query."""
    with np.errstate(over="ignore", invalid="ignore"):
        cov = model.proj_cov(horizon)
    if not np.isfinite(cov).all():
        raise ConfigError(
            f"the projected covariance proj_cov(T) at the horizon T = {horizon:g} "
            "is not finite: the model's exponential leaves the float range")


def make_space_axes(model: ProjectedModel, cfg: SolverConfig,
                    horizon: float) -> tuple[np.ndarray, ...]:
    if cfg.box_halfwidth is not None:
        w = cfg.box_halfwidth
    else:
        w = 6.0 * np.sqrt(np.diag(model.proj_cov(horizon)).max())
    ax = np.linspace(-w, w, cfg.space_points)
    return tuple(ax.copy() for _ in range(model.proj_dim))


def linear_taps(a):
    """The interpolation kernel of every lookup in space and time, at the
    fraction ``a`` (a number or an array) of a cell: its taps' node offsets
    from the cell's first node, increasing, and their weights."""
    return (0, 1), (1.0 - a, a)


def locate_cells(axes, pts: np.ndarray) -> tuple[np.ndarray, list]:
    """The mesh cell of each scattered point, clamped at the box.

    ``pts`` has shape (N, B), one row per coordinate.  Returns the flat
    mesh index of each point's cell's first node (the node of least index
    on every axis) and, per axis, the point's fraction of its cell, in
    [0, 1].  A point outside the box lands on the nearest boundary face;
    the last cell of an axis also serves its last node.  Needs at least two
    nodes per axis.  :func:`interp_space` reads its taps from here, and so
    does every caller that must agree with it on a point's cell.
    """
    base = 0
    fracs = [None] * len(axes)
    stride = 1
    for d in reversed(range(len(axes))):
        ax, n = axes[d], len(axes[d])
        c = (pts[d] - ax[0]) / (ax[1] - ax[0])
        # ufuncs, not np.clip: its wrapper costs more than the work on a block
        np.minimum(np.maximum(c, 0.0, out=c), n - 1.0, out=c)
        i = np.minimum(c.astype(np.intp), n - 2)   # c >= 0: the cast floors
        fracs[d] = np.subtract(c, i, out=c)
        base = base + i * stride
        stride *= n
    return base, fracs


def interp_space(axes, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Interpolation by :func:`linear_taps` at scattered points, clamped at the box.

    ``values`` has shape (*lead, *grid_shape) and ``pts`` shape (N, B), one
    row per coordinate; the result has shape (*lead, B).  A point outside
    the box takes the value at the nearest boundary point (as
    ``mode="nearest"`` of ``scipy.ndimage.map_coordinates``), which
    preserves sup-norm bounds of the iterates.  Cells and fractions come
    from :func:`locate_cells`, and corner weights are formed once; every
    leading component is then gathered from a (components, mesh) table
    with 1-D ``take``.  Needs at least two nodes per axis.
    """
    n_dim = len(axes)
    grid = values.shape[values.ndim - n_dim:]
    lead = values.shape[:values.ndim - n_dim]
    table = values.reshape((-1, int(np.prod(grid))))
    base, fracs = locate_cells(axes, pts)
    first = 0                     # flat offset of the first tap from base
    corners = [(0, None)]         # (flat offset from the first tap, weight) per corner
    stride = 1
    for d in reversed(range(n_dim)):
        offsets, w = linear_taps(fracs.pop())
        first += offsets[0] * stride
        corners = [
            (off + (o - offsets[0]) * stride, wo if wt is None else wt * wo)
            for off, wt in corners
            for o, wo in zip(offsets, w)
        ]
        del w   # freed before the gather: kept alive, a block's 128 KiB weights slow it
        stride *= grid[d]
    if first:
        base = base + first
    # one base index for all taps: the linear taps stay inside the mesh
    # (the cells end one node before the last), so mode="clip" never clips
    # (a wider kernel's outer taps at an edge cell would); unlike the
    # default it lets take fill buf
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
    (S, n_q), the origin lo and the width of the row's window on each axis,
    as lists of ints: node j of shift (k, a) reads nodes clip(j + k + o)
    at the :func:`linear_taps` offsets o, so the window at mesh + lo spans
    lo = min_q k + the first offset to max_q k + the last."""
    first, *_, last = linear_taps(0.0)[0]
    lo = np.stack([k.min(axis=1) for k, _ in stencil], axis=1) + first
    width = np.stack([k.max(axis=1) for k, _ in stencil], axis=1) + last - lo + 1
    return lo.tolist(), width.tolist()


def window_coefficients(stencil, lo, width) -> tuple[np.ndarray, ...]:
    """Per batch row s of :func:`window_bounds`, the (n_q, prod(width[s]))
    coefficients of its shifts: row q is the Kronecker product over the
    axes, in C order of the window, of shift q's rows that hold the
    :func:`linear_taps` weights at k - lo plus their offsets."""
    coef = []
    for s, (lo_s, width_s) in enumerate(zip(lo, width)):
        c = np.ones((stencil[0][0].shape[1], 1))
        for (k, a), o, w in zip(stencil, lo_s, width_s):
            row = np.zeros((k.shape[1], w))
            q, at = np.arange(k.shape[1]), k[s] - o
            for off, weight in zip(*linear_taps(a[s])):
                row[q, at + off] = weight
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
    ``a`` and ``b`` (iterates or an operator) agree within ``allclose``.
    Sides that hold the same grid objects, as every iterate of one operator
    does, agree without a comparison."""
    ta, tb = a.time_grid, b.time_grid
    if ta is tb and len(a.space_axes) == len(b.space_axes) and all(
            x is y for x, y in zip(a.space_axes, b.space_axes)):
        return
    if ta.shape != tb.shape or not np.allclose(ta, tb):
        raise GridMismatch("time grids differ")
    for x, y in zip(a.space_axes, b.space_axes):
        if x.shape != y.shape or not np.allclose(x, y):
            raise GridMismatch("space grids differ")


def time_taps(t_axis: np.ndarray, s) -> tuple:
    """Interpolation at the times ``s`` (a number or an array) on the
    increasing axis ``t_axis``: each :func:`linear_taps` tap's slice indices
    and weights, of the shape of ``s``.  Times and indices are clamped to
    the axis: the last cell serves its end, one node takes total weight 1."""
    n = t_axis.size
    s = np.minimum(np.maximum(s, t_axis[0]), t_axis[-1])
    i = np.maximum(np.searchsorted(t_axis, s) - 1, 0)
    h = t_axis[np.minimum(i + 1, n - 1)] - t_axis[i]    # 0 on a one-node axis
    offsets, w = linear_taps(np.divide(s - t_axis[i], h, out=np.zeros(np.shape(s)), where=h > 0))
    return tuple((np.minimum(np.maximum(i + o, 0), n - 1), wo) for o, wo in zip(offsets, w))


def blend(taps, slices: np.ndarray, out=None) -> np.ndarray:
    """sum_k w_k slices[i_k] over the (i_k, w_k) ``taps``, into ``out`` if
    given: the first tap's product fills it and each next one is added."""
    (i, w), *rest = taps
    out = np.multiply(w, slices[i], out=out)
    for i, w in rest:
        out += w * slices[i]
    return out


# ---------------------------------------------------------------------------
# the Picard map

class _Node(NamedTuple):
    """Iterate-independent data of Upsilon at one time node t.

    The batch axes are (s-node, Gauss node): S = 2 * time_quad_order
    s-nodes times n_q expectation nodes.  With H_min = alpha - scale * X
    (``Hamiltonian.hinge``), a sum w . H_min is alpha sum(w) - scale w . X:
    ``offset`` holds the first part, so that the node's one gemm of X
    against ``weights`` gives both sums.
    """

    t: float
    s_f: np.ndarray        # (P,) R_t[phi] plus ell0's integral
    s_grad: np.ndarray     # (P, m) control gradient of R_t[phi]
    # per :func:`time_taps` tap: (S,) gradient-slice indices, all in 0..i,
    # and s^{-gamma} times its weights, (S, 1, ...) to broadcast over (S, m, *grid)
    taps: tuple
    # (S * n_q, 1 + m): time-quadrature times expectation weights, then the
    # same times the gradient weights
    weights: np.ndarray
    # (1 + m,): alpha times the column sums of ``weights``, for f and for
    # the gradient
    offset: np.ndarray
    # per s-node: its (n_q, prod(width)) window coefficients, the
    # window_chunks of its window into its padded slab and its rows of
    # hinge sums
    steps: tuple = ()


class UpsilonOperator:
    """Precomputed Picard map on fixed grids.

    Everything that does not depend on the iterate is assembled once, into
    one :class:`_Node` record per time node (``nodes``): semigroup terms,
    time taps and quadrature weights, window coefficients and the views of
    each s-node's step.  A node then only blends, interpolates, evaluates
    the Hamiltonian's hinge sum and sums.

    The nodes rely on three facts: the space grid is a uniform tensor
    grid, each Gaussian quadrature offset is one constant shift for every
    mesh point, and interpolation clamps at the box edge.  The values at
    mesh + offset of one s-node's n_q offsets are then one BLAS gemm: their
    (n_q, prod(width)) coefficients, Kronecker products of :func:`linear_taps`
    rows, times the windows, spanning all the offsets' taps, of the
    gradient slice edge-padded by ``pad`` cells per side, as far as the
    windows reach past the mesh (:func:`shift_stencil`,
    :func:`window_bounds`, :func:`window_coefficients`, :func:`pad_edges`).

    ``_node`` computes one time node.  It blends the node's time taps
    (:func:`blend`) into one padded (S, m, *(n + 2 pad)) array, s-node
    first, so that each s-node's slab is contiguous and its
    :func:`window_view` a plain strided view.
    Per s-node, :func:`interp_windows` gives the (m, n_q, P) interpolated
    gradients, whose hinge sums X / scale (:func:`hinge_batch`;
    :func:`h_min_batch` values on a grid that is not radial) go straight
    into that s-node's rows of one (S * n_q, P) array.  One gemm of that
    array against the node's (S * n_q, 1 + m) weights gives the f and
    gradient sums; the node's ``offset`` adds alpha's share.

    Memory: the operator stores the window coefficients of every node
    (7.7 MB heat, 8.0 MB delay on the shipped 41-point grids) and the
    views of every step.  It also owns the sweep's buffers: the padded
    array, one s-node's gradients, the hinge array and one window chunk of
    at most WINDOW_CHUNK_BYTES or one mesh row.  Sweeps on one operator
    therefore share them and are not re-entrant: run one at a time.  A
    sweep allocates only its iterate (:func:`_sweep_bytes` counts all).
    In :func:`picard_solve` a forked :class:`_NodeWorker` computes every
    other node of each apply.  It holds the operator copy-on-write: its
    pages stay shared until it writes, to its own copies of the sweep
    buffers, and the caller gains only the worker's shared iterate buffers.
    The worker serves one apply at a time, so applies stay not re-entrant.
    """

    def __init__(self, model: ProjectedModel, cost: CostSpec, cfg: SolverConfig,
                 gamma: float):
        if cost.ham.control_dim != model.control_dim:
            raise DimensionMismatch("Hamiltonian control dim must match the model")
        self.model = model
        self.cost = cost
        self.cfg = cfg
        self.gamma = float(gamma)
        self.time_grid = make_time_grid(cfg, cost.horizon)
        self.space_axes = make_space_axes(model, cfg, cost.horizon)
        self.space_shape = tuple(len(a) for a in self.space_axes)
        mesh = np.meshgrid(*self.space_axes, indexing="ij")
        self.mesh = np.stack([g.ravel() for g in mesh], axis=-1)   # (P, N)
        self.rule = build_quadrature(model.proj_dim, cfg.quad_order)
        self._precompute()
        self._worker = None     # the _NodeWorker of a picard_solve, while it runs

    # -- assembly ----------------------------------------------------------
    def _precompute(self):
        t_pos, T = self.time_grid[1:], self.cost.horizon
        jacobi = gauss_jacobi(self.cfg.time_quad_order, self.gamma / (1.0 - self.gamma))
        ell0 = self.cost.ell0_integral(T - t_pos, T)
        nodes, stencils, shares = zip(*(self._time_quadrature(t_pos[:i + 1], jacobi, e)
                                        for i, e in enumerate(ell0)))
        self.clamped_mass = max(shares)
        # the pad of the gradient slices, as far as the windows reach past
        # the mesh; the working set with every window, before any coefficient
        bounds = [window_bounds(st) for st in stencils]
        self.pad = max(max(-o, o + w - 1) for lo, width in bounds
                       for lo_s, width_s in zip(lo, width) for o, w in zip(lo_s, width_s))
        sizes = np.concatenate([np.prod(width, axis=1) for _, width in bounds])
        n_s, n_q = 2 * self.cfg.time_quad_order, self.rule.nodes.shape[0]
        m, pad, shape, npts = self.model.control_dim, self.pad, self.space_shape, self.mesh.shape[0]
        _check_problem_size(self.cfg, self.model.proj_dim, m, pad,
                            int(sizes.max()), n_q * int(sizes.sum()))

        # the sweep buffers, sized as _sweep_bytes counts them: the blended
        # gradient slices, per s-node components first, each edge-padded by
        # ``pad`` cells per side so that every window lies inside; one
        # s-node's interpolated gradients (hinge_batch's scratch too); the
        # hinge sums per (s-node, Gauss node); the largest window chunk
        self._padded = np.empty((n_s, m) + tuple(size + 2 * pad for size in shape))
        self._inner = self._padded[(slice(None),) * 2
                                   + tuple(slice(pad, pad + size) for size in shape)]
        self._block = np.empty((m, n_q, npts))
        self._hvals = np.empty((n_s * n_q, npts))
        scratch = np.empty(_chunk_values(m * int(sizes.max()) * npts // shape[0], shape[0]))
        self.nodes = [
            node._replace(steps=tuple(
                (coef,
                 window_chunks(window_view(slab, pad, lo_s, width_s), self._block, scratch),
                 self._hvals[s * n_q:(s + 1) * n_q])
                for s, (slab, lo_s, width_s, coef)
                in enumerate(zip(self._padded, lo, width, window_coefficients(st, lo, width)))))
            for node, st, (lo, width) in zip(nodes, stencils, bounds)
        ]

    def _time_quadrature(self, t_axis: np.ndarray, jacobi, ell0: float) -> tuple:
        """Iterate-independent data of the time node t = ``t_axis[-1]``, of
        ``t_axis`` the positive nodes whose gradient slices it reads, and
        ``ell0``, ell0's integral up to t: its semigroup terms and the
        convolution's two-sided Gauss-Jacobi quadrature of int_0^t . ds (see
        the module doc); ``jacobi`` holds the nodes and weights for
        (1 + x)^p on [-1, 1].  Returns the :class:`_Node` without steps, the
        :func:`shift_stencil` of its quadrature offsets and their
        :func:`clamped_share`.

        The semigroup term is the s = 0 member of the node's stencil: one
        ``pushforward_cov`` query returns proj_cov(t) and the S pushforward
        covariances, one :func:`psd_roots` call decomposes them, and the
        image-inclusion check (:func:`smoothing_matrix`) reads the same
        decomposition."""
        gamma, gauss, t = self.gamma, self.rule.nodes, t_axis[-1]
        p = gamma / (1.0 - gamma)
        x, w = jacobi
        c = 0.5 ** (1.0 - gamma)                 # sigma value mapping to s = t/2
        scale = (c / 2.0) ** (p + 1.0) * t / (1.0 - gamma)
        frac = (c * 0.5 * (1.0 + x)) ** (1.0 / (1.0 - gamma))
        s_nodes = np.concatenate((t * frac, t * (1.0 - frac)))
        s_weights = np.concatenate((scale * w, scale * w))
        b_t = self.model.proj_control(t)
        covs = self.model.pushforward_cov(np.concatenate(([0.0], s_nodes)), t)
        roots, pinvs, projs = psd_roots(covs)
        offs = [gauss @ r.T for r in roots]
        gvecs = [gauss @ smoothing_matrix(t, pinvs[0], projs[0], b_t)]
        gvecs += [gauss @ (pinv @ b_t) for pinv in pinvs[1:]]

        pts = (self.mesh[None, :, :] + offs[0][:, None, :]).reshape(-1, self.model.proj_dim)
        vals = self.cost.phi(pts).reshape(gauss.shape[0], -1)
        s_pow = (s_nodes ** (-gamma)).reshape((-1,) + (1,) * (1 + len(self.space_axes)))
        qw = np.outer(s_weights, self.rule.weights)
        stencil = shift_stencil(self.space_axes, np.stack(offs[1:]))
        weights = np.concatenate((qw[..., None], qw[..., None] * np.stack(gvecs[1:])),
                                 axis=-1).reshape(qw.size, -1)
        node = _Node(
            t=t, s_f=self.rule.weights @ vals + ell0,
            s_grad=np.einsum("q,qp,qk->pk", self.rule.weights, vals, gvecs[0]),
            taps=tuple((i, s_pow * w.reshape(s_pow.shape)) for i, w in time_taps(t_axis, s_nodes)),
            weights=weights, offset=self.cost.ham.hinge.alpha * weights.sum(axis=0),
        )
        return node, stencil, clamped_share(stencil, qw.ravel(), self.space_shape)

    # -- iterates ----------------------------------------------------------
    def initial_iterate(self) -> ValueIterate:
        """Semigroup-only iterate: the fixed point of the trivial Hamiltonian."""
        f = np.stack([self.cost.phi(self.mesh), *(node.s_f for node in self.nodes)])
        fbar = (self.time_grid[1:]**self.gamma)[:, None, None] * np.stack(
            [node.s_grad for node in self.nodes])
        return self._pack(f, fbar)

    def _pack(self, f_flat: np.ndarray, fbar_flat: np.ndarray) -> ValueIterate:
        shape = self.space_shape
        return ValueIterate(
            time_grid=self.time_grid,
            space_axes=self.space_axes,
            f_values=f_flat.reshape((-1,) + shape),
            fbar_values=fbar_flat.reshape((-1,) + shape + (self.model.control_dim,)),
            gamma=self.gamma,
        )

    # -- the map -----------------------------------------------------------
    def apply(self, g: ValueIterate, settled: int = 0) -> ValueIterate:
        """Upsilon(g), time node by time node, with the first ``settled``
        nodes copied from ``g``: the :func:`settled_count` of ``g`` against
        the iterate it was computed from, or 0, the exact map.  A value
        beyond the float range raises FloatingPointError, not a warning.
        With a :class:`_NodeWorker` attached, the worker computes every
        other node from settled + 1 on; an error in the caller's nodes
        leaves the worker's part uncollected, and :func:`picard_solve` then
        ends the worker."""
        _check_grids(g, self)
        n_t, npts, m = self.time_grid.size - 1, self.mesh.shape[0], self.model.control_dim
        f = np.empty((n_t + 1, npts))
        f[0] = self.cost.phi(self.mesh)
        fbar = np.empty((n_t, npts, m))
        f[1:settled + 1] = g.f_values.reshape(n_t + 1, npts)[1:settled + 1]
        fbar[:settled] = g.fbar_values.reshape(n_t, npts, m)[:settled]
        worker = self._worker if n_t - settled > 1 else None
        with np.errstate(over="ignore", invalid="ignore"):
            if worker is not None:
                worker.post(g.fbar_values, settled)
            for i in range(settled, n_t, 1 if worker is None else 2):
                f[i + 1], fbar[i] = self._node(i, g.fbar_values)
            if worker is not None:
                worker.collect(f, fbar, settled)
        if not (np.isfinite(f).all() and np.isfinite(fbar).all()):
            raise FloatingPointError("Upsilon(g) leaves the float range")
        return self._pack(f, fbar)

    def _node(self, i: int, fbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f, shape (P,), and fbar, shape (P, m), of Upsilon at time node i
        from the gradient slices ``fbar`` (n_t, *grid, m); it reads slices
        0..i only."""
        node = self.nodes[i]
        # interpolation is linear in the array: blend the time slices (times
        # s^{-gamma}) components first into the padded array, then
        # interpolate per s-node
        blend(node.taps, np.moveaxis(fbar, -1, 1), out=self._inner)
        pad_edges(self._padded, self.pad, len(self.space_shape))
        for coef, chunks, rows in node.steps:
            interp_windows(coef, chunks)
            hinge_batch(self.cost.ham, self._block, rows)
        # both quadrature sums of H_min = alpha - scale * hvals in one
        # gemm; alpha's share is the node's offset
        sums = self._hvals.T @ node.weights
        sums *= self.cost.ham.hinge.scale
        return (node.s_f + node.offset[0] - sums[:, 0],
                node.t**self.gamma * (node.s_grad + node.offset[1:] - sums[:, 1:]))


def _fork_allowed() -> bool:
    """Whether :func:`picard_solve` forks a :class:`_NodeWorker`: the
    process may run on at least two CPUs (``os.sched_getaffinity``) and has
    one thread (``Threads: 1`` in /proc/self/status).  One thread rules out
    both a fork that copies a lock some other thread holds and a
    multithreaded BLAS, whose threads fight the worker for the cores (on a
    2-core x86_64 host a mini heat solve took 0.32 s forked with two
    OpenBLAS threads, 0.18 s serial)."""
    try:
        cpus = len(os.sched_getaffinity(0))
        with open("/proc/self/status") as fh:
            threads = [line.split() for line in fh if line.startswith("Threads:")]
    except (AttributeError, OSError):     # not Linux
        return False
    return cpus >= 2 and threads == [["Threads:", "1"]]


class _NodeWorker:
    """A forked process that computes every other unsettled time node of
    each :meth:`UpsilonOperator.apply` of the operator ``ups``: the nodes
    settled + 1, settled + 3, ... while the caller computes settled,
    settled + 2, ....  Each node runs the same ``_node`` on the same
    gradient slices, so an apply's output is the serial one bit for bit.

    The worker inherits the assembled operator copy-on-write and writes
    only its own copies of the sweep buffers.  The gradient slices and the
    settled count go in, and the worker's f rows and gradient slices come
    out, through one anonymous shared ``mmap`` mapped before the fork.  Per
    apply the caller writes one byte to the command pipe (:meth:`post`) and
    the worker answers with one byte when its nodes are written
    (:meth:`collect`).  The worker exits at EOF on the command pipe, which
    the caller's :meth:`close` or death brings about, and on any error,
    which the caller reads as EOF on the answer pipe.
    """

    def __init__(self, ups: UpsilonOperator):
        n_t, npts, m = ups.time_grid.size - 1, ups.mesh.shape[0], ups.model.control_dim
        sizes = [n_t * npts * m, (n_t + 1) * npts]
        mem = mmap.mmap(-1, 8 * (1 + sum(sizes) + n_t * npts * m))
        self._settled = np.frombuffer(mem, np.int64, 1)
        fbar_in, f, fbar = np.split(np.frombuffer(mem, float, offset=8), np.cumsum(sizes))
        self._fbar_in = fbar_in.reshape((n_t,) + ups.space_shape + (m,))
        self._f, self._fbar = f.reshape(n_t + 1, npts), fbar.reshape(n_t, npts, m)
        cmd, self._cmd = os.pipe()
        self._answer, answer = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (cmd, self._cmd, self._answer, answer):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self._cmd)
                os.close(self._answer)
                with np.errstate(over="ignore", invalid="ignore"):
                    while os.read(cmd, 1):
                        for i in range(int(self._settled[0]) + 1, n_t, 2):
                            self._f[i + 1], self._fbar[i] = ups._node(i, self._fbar_in)
                        os.write(answer, b"\0")
                code = 0
            finally:
                os._exit(code)
        os.close(cmd)
        os.close(answer)

    def post(self, fbar: np.ndarray, settled: int):
        """Start the worker's nodes of an apply from the gradient slices
        ``fbar`` with the first ``settled`` nodes copied."""
        self._fbar_in[...] = fbar
        self._settled[0] = settled
        os.write(self._cmd, b"\0")

    def collect(self, f: np.ndarray, fbar: np.ndarray, settled: int):
        """Wait for the worker's nodes of the posted apply and copy them
        into the apply's (n_t + 1, P) ``f`` and (n_t, P, m) ``fbar``."""
        if not os.read(self._answer, 1):
            raise RuntimeError(f"the Picard node worker (pid {self.pid}) ended during an apply")
        f[settled + 2::2] = self._f[settled + 2::2]
        fbar[settled + 1::2] = self._fbar[settled + 1::2]

    def close(self):
        """End the worker and reap it."""
        os.close(self._cmd)
        os.close(self._answer)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


# ---------------------------------------------------------------------------
# sup norm, Picard loop

def sup_distance(g1: ValueIterate, g2: ValueIterate) -> float:
    """Distance sup|f1 - f2| + sup|fbar1 - fbar2| of two iterates on the
    same grids, the norm of the Picard stopping test.

    The t^gamma factor of the gradient part is already embedded in the
    stored fbar arrays.  A distance beyond the float range raises
    FloatingPointError.
    """
    _check_grids(g1, g2)
    if g1.fbar_values.shape != g2.fbar_values.shape:
        raise GridMismatch("gradient value shapes differ")
    with np.errstate(over="raise"):
        df = np.abs(g1.f_values - g2.f_values).max()
        dbar = np.abs(g1.fbar_values - g2.fbar_values).max()
        return float(df + dbar)


def settled_count(g_next: ValueIterate, g: ValueIterate) -> int:
    """The settled count of ``g_next``, computed from ``g``: the length of
    the leading run of time nodes i whose gradient slice differs from
    ``g``'s by at most four ulps, 4 ``np.spacing`` of its largest |fbar|
    over slices 0..i (the slices node i reads).

    Below the count of its input, :meth:`UpsilonOperator.apply` copies the
    input's nodes.  Four ulps, not one: early slices that have reached their
    floating-point fixed point can still cycle between a few values a
    couple of ulps apart (rounding of the blend and the quadrature sums),
    and one ulp would recompute such nodes at every iterate.  Inputs
    unchanged to four ulps give an output unchanged to rounding, so copies
    keep the iterates within rounding of exact applies (at most 2.2e-16 on
    the shipped and benchmark configs).  A copied slice equals its source,
    so a count never falls from one iterate to the next."""
    n_t = g.fbar_values.shape[0]
    new = g_next.fbar_values.reshape(n_t, -1)
    top = np.maximum.accumulate(np.abs(new).max(axis=1))
    moved = np.abs(new - g.fbar_values.reshape(n_t, -1)).max(axis=1)
    # the first node that moved more, or n_t
    return int(np.append(moved <= 4 * np.spacing(top), False).argmin())


def picard_solve(model: ProjectedModel, cost: CostSpec, cfg: SolverConfig) -> HJBSolution:
    """Iterate the Picard map of ``cost`` on ``model`` to the mild-solution
    fixed point on [0, ``cost.horizon``].

    A problem the solver cannot take (see :func:`_check_problem_size`) or
    a model whose covariance overflows (:func:`check_horizon_cov`) raises
    :class:`ConfigError` before anything is built.

    ``gamma`` defaults to the fitted blow-up exponent of the smoothing
    operator (slightly padded); any exponent at least that large also works.
    A fitted exponent outside (0, 1) (:attr:`BlowupFit.in_range`) raises
    :class:`SmoothingViolated`.

    The solve returns its last finite iterate, with no iterate past the
    stop, and ``diagnostics["stop"]``: ``"tol"`` (a residual of at most
    ``tol``), ``"growth"`` (three consecutive residual increases),
    ``"overflow"`` (the next iterate or its residual left the float range;
    it is not counted, and with none counted the residual is inf) or
    ``"max_iter"``.  Residuals are sup norms (:func:`sup_distance`), so
    converged means a sup residual of at most ``tol``, the rule ``pshjb
    solve`` and ``simulate`` read a solve by, and the solution's
    ``eta_weight`` is always 0 (no exp(-eta t) weight; see the module
    docstring).

    The solve starts from :meth:`UpsilonOperator.initial_iterate`, the
    semigroup-only iterate.  Each iterate is one
    :meth:`UpsilonOperator.apply` that copies the nodes below the
    :func:`settled_count` of the previous one (none at the start);
    ``diagnostics["copied_nodes"]`` sums the counts so copied.

    A process with one thread and at least two CPUs (:func:`_fork_allowed`)
    forks one :class:`_NodeWorker` after assembly, which computes every
    other unsettled node of each apply in the operator's copy-on-write
    memory; the output is the serial one bit for bit, and the worker is
    reaped before the solve returns or raises.
    """
    _check_problem_size(cfg, model.proj_dim, model.control_dim)
    check_horizon_cov(model, cost.horizon)
    diagnostics: dict = {}
    gamma = cfg.gamma
    if gamma is None:
        fit = fit_blowup(model, blowup_grid(cost.horizon))
        gamma = float(np.clip(fit.gamma + 0.02, 0.05, 0.95))
        diagnostics["fitted_gamma"] = fit.gamma
        if not fit.in_range:
            raise SmoothingViolated(
                f"fitted blow-up exponent {fit.gamma:.3f} outside (0, 1); "
                "the contraction machinery does not apply to this model"
            )

    ups = UpsilonOperator(model, cost, cfg, gamma=gamma)
    diagnostics["clamped_mass"] = ups.clamped_mass
    if ups.time_grid.size > 2 and _fork_allowed():
        try:
            ups._worker = _NodeWorker(ups)
        except OSError:     # no process to spare: the serial sweep
            pass
    try:
        g = ups.initial_iterate()
        residuals, ratios = [], []
        bad_streak = settled = copied = 0
        stop = "max_iter"
        while len(residuals) < cfg.max_iter:
            try:
                g_next = ups.apply(g, settled)
                d = sup_distance(g_next, g)
            except FloatingPointError:
                stop = "overflow"
                break
            copied += settled
            settled = settled_count(g_next, g)
            if residuals:
                ratio = d / residuals[-1] if residuals[-1] > 0 else 0.0
                ratios.append(ratio)
                bad_streak = bad_streak + 1 if ratio > 1.0 else 0
            residuals.append(d)
            g = g_next
            if d <= cfg.tol or bad_streak >= 3:
                stop = "tol" if d <= cfg.tol else "growth"
                break
    finally:
        if ups._worker is not None:
            ups._worker.close()
            ups._worker = None
    diagnostics.update(stop=stop, copied_nodes=copied, residual_history=residuals)
    return HJBSolution(
        iterate=g,
        residual=residuals[-1] if residuals else math.inf,
        contraction_estimates=ratios,
        iterations=len(residuals),
        eta_weight=0.0,
        gamma=gamma,
        phi=cost.phi,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# evaluation of the solved backward value function

def check_in_box(axes, y: np.ndarray):
    """Raise :class:`OutOfGrid` unless the point ``y`` lies in the box of ``axes``."""
    for d, a in enumerate(axes):
        pad = 1e-9 * (a[-1] - a[0])
        if y[d] < a[0] - pad or y[d] > a[-1] + pad:
            raise OutOfGrid(
                f"projected point component {d} = {y[d]:.4g} outside "
                f"[{a[0]:.4g}, {a[-1]:.4g}]"
            )


def interp_f(iterate: ValueIterate, tau: float, pts: np.ndarray) -> np.ndarray:
    """Interpolate f at backward time tau over projected points ``pts``
    of shape (N, B); returns shape (B,).  Interpolation is linear in the
    values, so the time slices are blended before the space lookup."""
    f = blend(time_taps(iterate.time_grid, tau), iterate.f_values)
    return interp_space(iterate.space_axes, f, pts)


def interp_fbar(iterate: ValueIterate, tau: float, pts: np.ndarray) -> np.ndarray:
    """Interpolate the stored gradient representative at backward time tau
    over projected points ``pts`` of shape (N, B); returns shape (m, B)."""
    fbar = blend(time_taps(iterate.time_grid[1:], tau), iterate.fbar_values)
    return interp_space(iterate.space_axes, np.moveaxis(fbar, -1, 0), pts)


def eval_value(sol: HJBSolution, model: ProjectedModel, t: float, x) -> float:
    """Backward value v(t, x) = f(T - t, P e^{(T-t)A} x) by interpolation.

    At t = T the terminal cost is evaluated exactly at the projected state.
    """
    T = sol.iterate.horizon
    if not 0.0 <= t <= T:
        raise OutOfGrid(f"t={t} outside [0, {T}]")
    tau = T - t
    y = np.asarray(model.proj_semigroup_apply(tau, x), dtype=float)
    if tau == 0.0:
        return float(sol.phi(y))
    check_in_box(sol.iterate.space_axes, y)
    return float(interp_f(sol.iterate, tau, y[:, None])[0])
