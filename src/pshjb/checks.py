"""Reduced-size invariant suite behind the ``check`` CLI subcommand.

Three invariants of the configured model (image inclusion, blow-up
exponent, continuity of ||Lambda(t)||), each a named callable of the run
returning (ok, detail) that reads the model only through the
``ProjectedModel`` queries and :mod:`pshjb.smoothing`, one stacked query
per time grid.  Every grid scales with the horizon T.  The run is the one
every command builds, so a model that the build refuses never reaches the
suite.  The suite runs everything, collects a machine-readable report, and
the CLI writes it, then exits nonzero naming every failing invariant.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .errors import PshjbError
from .smoothing import (
    INCLUSION_TOL,
    blowup_grid,
    fit_blowup,
    inclusion_residual,
    lambda_norm,
)


def _check_inclusion(run: RunConfig):
    t = np.geomspace(1e-3 * run.cost.horizon, run.cost.horizon, 8)
    worst = inclusion_residual(run.model.proj_cov(t), run.model.proj_control(t)).max()
    return worst <= INCLUSION_TOL, f"max inclusion residual {worst:.2e}"


def _check_blowup_exponent(run: RunConfig):
    fit = fit_blowup(run.model, blowup_grid(run.cost.horizon))
    return fit.in_range, f"fitted gamma {fit.gamma:.3f}"


def _check_lambda_norm_continuity(run: RunConfig):
    """Relative steps of ||Lambda(t)|| on a log grid from 1e-3 T to T / 2.
    A step above the limit is bisected in log t three times: a jump keeps
    its size under refinement, a steep continuous stretch (crossing
    singular values) shrinks with it."""
    def step(a, b, na, nb, depth=3):
        rel = abs(nb - na) / na
        if rel < 0.10 or depth == 0:
            return rel
        mid = np.sqrt(a * b)
        nm = lambda_norm(run.model, mid)
        return max(step(a, mid, na, nm, depth - 1), step(mid, b, nm, nb, depth - 1))

    grid = np.geomspace(1e-3, 0.5, 40) * run.cost.horizon
    norms = lambda_norm(run.model, grid)
    worst = max(
        (step(a, b, na, nb)
         for a, b, na, nb in zip(grid, grid[1:], norms, norms[1:])
         if not any(a <= d <= b for d in run.model.control_discontinuities)),
        default=0.0,
    )
    return worst < 0.10, f"max relative step {worst:.3f}, steps above 0.10 bisected"


INVARIANTS = [
    ("control_image_inclusion", _check_inclusion),
    ("blowup_exponent_in_range", _check_blowup_exponent),
    ("lambda_norm_continuity", _check_lambda_norm_continuity),
]


def run_invariant_suite(run: RunConfig) -> dict:
    """Run every invariant at reduced sizes; returns a JSON-ready report."""
    results = []
    for name, fn in INVARIANTS:
        try:
            ok, detail = fn(run)
        except PshjbError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "ok": bool(ok), "detail": str(detail)})
    failing = [r["name"] for r in results if not r["ok"]]
    return {"ok": not failing, "failing": failing, "invariants": results}
