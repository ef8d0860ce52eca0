"""Builders for the small set of bounded cost primitives.

Terminal costs must be bounded with a declared sup bound (the smoothing
estimates use it), so the builtin family consists of saturating shapes:
constants, tanh of affine functionals, Gaussian bumps, and smoothed
indicators.  All returned callables are vectorized over (..., N) inputs.
"""

from __future__ import annotations

import numpy as np

from .hjb import Hamiltonian
from .ou import ProjectedTerminalCost


def constant_cost(value: float = 0.0) -> ProjectedTerminalCost:
    return ProjectedTerminalCost(
        lambda y: np.full(np.asarray(y).shape[:-1], float(value)), abs(float(value))
    )


def tanh_cost(
    direction: tuple[float, ...] = (1.0,), offset: float = 0.0, scale: float = 1.0
) -> ProjectedTerminalCost:
    """scale * tanh(<direction, y> + offset); bound |scale|."""
    a = np.asarray(direction, dtype=float)
    return ProjectedTerminalCost(
        lambda y: scale * np.tanh(np.asarray(y) @ a + offset), abs(scale)
    )


def gauss_bump_cost(
    center: tuple[float, ...] = (0.0,), width: float = 1.0, scale: float = 1.0
) -> ProjectedTerminalCost:
    """scale * exp(-|y - center|^2 / width^2); bound |scale|."""
    c = np.asarray(center, dtype=float)
    return ProjectedTerminalCost(
        lambda y: scale
        * np.exp(-np.sum((np.asarray(y) - c) ** 2, axis=-1) / width**2),
        abs(scale),
    )


def smooth_indicator_cost(
    direction: tuple[float, ...] = (1.0,), threshold: float = 0.0,
    sharpness: float = 10.0, scale: float = 1.0,
) -> ProjectedTerminalCost:
    """Sigmoid step scale / (1 + e^{-sharpness (<a, y> - threshold)})."""
    a = np.asarray(direction, dtype=float)

    def fn(y):
        z = sharpness * (np.asarray(y) @ a - threshold)
        return scale / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

    return ProjectedTerminalCost(fn, abs(scale))


def constant_ell0(value: float = 0.0):
    return lambda s: np.full(np.shape(s), float(value))


def table_ell0(times: tuple[float, ...], values: tuple[float, ...]):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise ValueError("an ell0 table needs one value per time")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("ell0 table times must be strictly increasing")
    return lambda s: np.interp(np.asarray(s, dtype=float), t, v)


def box_hamiltonian(
    dim: int, lo: float = -1.0, hi: float = 1.0, points_per_dim: int = 3,
    quadratic_weight: float = 0.0,
) -> Hamiltonian:
    """Tensor control grid over a box with running cost quadratic_weight |u|^2."""
    axis = np.linspace(lo, hi, points_per_dim)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return Hamiltonian(pts, quadratic_weight * np.array([u @ u for u in pts]))
