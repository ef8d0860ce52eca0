"""Builders for the small set of bounded cost primitives.

The paper's estimates need a bounded terminal cost, so the builtin family
consists of saturating shapes: constants, tanh of affine functionals,
Gaussian bumps, and smoothed indicators.  Each terminal-cost builder
returns a vectorized function mapping (..., N) float arrays to (...)
float arrays, bounded by |value| or |scale|.
"""

from __future__ import annotations

import numpy as np

from .hjb import Hamiltonian


def constant_cost(value: float = 0.0):
    return lambda y: np.full(np.asarray(y).shape[:-1], float(value))


def tanh_cost(
    direction: tuple[float, ...] = (1.0,), offset: float = 0.0, scale: float = 1.0
):
    """scale * tanh(<direction, y> + offset)."""
    a = np.asarray(direction, dtype=float)
    return lambda y: scale * np.tanh(np.asarray(y) @ a + offset)


def gauss_bump_cost(
    center: tuple[float, ...] = (0.0,), width: float = 1.0, scale: float = 1.0
):
    """scale * exp(-|y - center|^2 / width^2)."""
    c = np.asarray(center, dtype=float)
    return lambda y: scale * np.exp(-np.sum((np.asarray(y) - c) ** 2, axis=-1) / width**2)


def smooth_indicator_cost(
    direction: tuple[float, ...] = (1.0,), threshold: float = 0.0,
    sharpness: float = 10.0, scale: float = 1.0,
):
    """Sigmoid step scale / (1 + e^{-sharpness (<a, y> - threshold)})."""
    a = np.asarray(direction, dtype=float)

    def fn(y):
        z = sharpness * (np.asarray(y) @ a - threshold)
        return scale / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

    return fn


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
