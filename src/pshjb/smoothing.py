"""Smoothing operators Lambda(t) and the blow-up exponent of their norms.

The operator Lambda(t) = (P Q_t P*)^{-1/2} (P e^{tA}) C measures how strongly
the transition semigroup regularizes along control directions: its operator
norm blows up like t^{-gamma} as t -> 0, and gamma in (0, 1) is exactly what
the fixed-point construction of the HJB solution needs.  This module builds
Lambda(t) as its N x m matrix (:func:`lambda_operator`; its norm is
:func:`lambda_norm`) from the pseudo-inverse root and the image projector
of one eigendecomposition of the covariance (:func:`spectral.psd_roots`),
after checking that the control columns lie in that image within
INCLUSION_TOL (:func:`smoothing_matrix`, which the solver's assembly calls
too), and fits the blow-up exponent from a log-log regression; each takes
a time or an array of times, as the model queries do.  The Picard assembly
applies the matrix as the Cameron-Martin weight of the control-directional
gradient of R_t (:mod:`pshjb.hjb`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InclusionViolated, SmoothingViolated
from .ou import ProjectedModel
from .spectral import psd_roots

INCLUSION_TOL = 1e-6


def _outside(projector: np.ndarray, columns) -> np.ndarray:
    """Relative residual of ``columns`` outside the image of ``projector``,
    one per matrix (norms over the last two axes); zero columns give 0."""
    columns = np.asarray(columns, dtype=float)
    denom = np.linalg.norm(columns, axis=(-2, -1))
    res = np.linalg.norm(columns - projector @ columns, axis=(-2, -1))
    return res / np.where(denom == 0.0, 1.0, denom)


def inclusion_residual(cov, columns) -> np.ndarray:
    """Relative residual of ``columns`` outside the numerical image of
    ``cov``, one per matrix of stacks of both."""
    return _outside(psd_roots(cov)[2], columns)


def smoothing_matrix(t, pinv_root: np.ndarray, projector: np.ndarray,
                     ctrl: np.ndarray) -> np.ndarray:
    """Matrix of Lambda(t), or the (*t.shape, N, m) stack for an array of
    times t, from the pseudo-inverse root and image projector of
    proj_cov(t) (:func:`psd_roots`) and ``ctrl = proj_control(t)``, with
    the image-inclusion check.

    Raises :class:`InclusionViolated` at the first time, in the order
    given, whose control columns leave the image of the covariance square
    root beyond INCLUSION_TOL: for such a model the operator is simply not
    well defined, and failing loudly is the point of the check.
    """
    res = np.ravel(_outside(projector, ctrl))
    if (res > INCLUSION_TOL).any():
        j = np.argmax(res > INCLUSION_TOL)
        raise InclusionViolated(f"image-inclusion residual {res[j]:.3e} > "
                                f"{INCLUSION_TOL:g} at t={np.ravel(t)[j]:g}")
    return pinv_root @ ctrl


def lambda_operator(model: ProjectedModel, t) -> np.ndarray:
    """Matrix of the smoothing operator Lambda(t) (:func:`smoothing_matrix`)
    from one ``proj_cov``, one ``proj_control`` and one :func:`psd_roots`."""
    if not np.all(np.asarray(t) > 0.0):
        raise ValueError("need t > 0")
    _, pinv_root, projector = psd_roots(model.proj_cov(t))
    return smoothing_matrix(t, pinv_root, projector, model.proj_control(t))


def lambda_norm(model: ProjectedModel, t):
    """Operator norm of Lambda(t): the largest singular value of its matrix."""
    return np.linalg.norm(lambda_operator(model, t), 2, axis=(-2, -1))


@dataclass(frozen=True)
class BlowupFit:
    """Least-squares fit of log||Lambda(t)|| against log t."""

    times: np.ndarray
    norms: np.ndarray
    slope: float
    intercept: float
    residual: float

    @property
    def gamma(self) -> float:
        """Blow-up exponent: ||Lambda(t)|| ~ t^slope means gamma = -slope."""
        return -self.slope

    @property
    def in_range(self) -> bool:
        """gamma in (0, 1), the blow-up hypothesis that the fixed-point
        construction needs: ``solve``, ``simulate`` and ``lambda`` exit 3
        and ``check`` fails without it."""
        return 0.0 < self.gamma < 1.0


def blowup_grid(horizon: float) -> np.ndarray:
    """Times of the blow-up fit behind a solve's ``gamma``, ``lambda`` and
    ``check``: 20 log-spaced points from 1e-4 to 0.1 times the horizon."""
    return np.geomspace(1e-4 * horizon, 0.1 * horizon, 20)


def fit_blowup(model: ProjectedModel, t_grid) -> BlowupFit:
    """Fit the blow-up exponent of ||Lambda(t)|| over a time grid.

    The power law is asymptotic as t -> 0, so the largest 10% of the grid is
    excluded from the regression, and so is every point within 10% of one
    of the model's ``control_discontinuities`` (delay-atom activations),
    where the norm jumps.  Requires at least 10 logarithmically spaced
    points; fewer than 5 left after the exclusions (many atoms among the
    fit times) raise :class:`SmoothingViolated`.
    """
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    if t_grid.size < 10:
        raise ValueError("need at least 10 grid points for a blow-up fit")
    norms = lambda_norm(model, t_grid)

    keep = np.ones(t_grid.size, dtype=bool)
    keep[-(t_grid.size // 10):] = False          # the grid is sorted
    for d in model.control_discontinuities:
        keep &= ~((t_grid >= 0.9 * d) & (t_grid <= 1.1 * d))
    if keep.sum() < 5:
        raise SmoothingViolated(
            f"{keep.sum()} fit times left after excluding the control "
            "discontinuities, 5 needed to fit the blow-up exponent; "
            "pin solver.gamma to solve without a fit"
        )

    x = np.log(t_grid[keep])
    y = np.log(norms[keep])
    coeffs, res, *_ = np.polyfit(x, y, 1, full=True)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    residual = float(np.sqrt(res[0] / keep.sum())) if res.size else 0.0
    return BlowupFit(
        times=t_grid, norms=norms, slope=slope, intercept=intercept, residual=residual
    )
