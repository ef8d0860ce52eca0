"""Reduced-size invariant suite behind the ``check`` CLI subcommand.

Each invariant is a named callable of the configured run returning
(ok, detail); library internals are left to the unit tests.  The suite runs
everything, collects a machine-readable report, and the CLI writes it,
then exits nonzero naming every failing invariant.
"""

from __future__ import annotations

import numpy as np

from .config import RunConfig
from .delay import gramian, kalman_rank
from .errors import PshjbError
from .smoothing import (
    INCLUSION_TOL,
    blowup_grid,
    fit_blowup,
    inclusion_residual,
    lambda_norm,
)


def _check_inclusion(run: RunConfig):
    worst = 0.0
    for t in np.geomspace(1e-3, run.cost.horizon, 8):
        worst = max(
            worst, inclusion_residual(run.model.proj_cov(t), run.model.proj_control(t))
        )
    return worst <= INCLUSION_TOL, f"max inclusion residual {worst:.2e}"


def _check_blowup_exponent(run: RunConfig):
    fit = fit_blowup(run.model, blowup_grid(run.cost.horizon))
    return fit.in_range, f"fitted gamma {fit.gamma:.3f}"


def _check_lambda_norm_continuity(run: RunConfig):
    """Relative steps of ||Lambda(t)|| on a log grid.  A step above the limit
    is bisected in log t three times: a jump keeps its size under refinement,
    a steep continuous stretch (crossing singular values) shrinks with it."""
    def step(a, b, depth=3):
        na, nb = (lambda_norm(run.model, t) for t in (a, b))
        rel = abs(nb - na) / na
        if rel < 0.10 or depth == 0:
            return rel
        mid = np.sqrt(a * b)
        return max(step(a, mid, depth - 1), step(mid, b, depth - 1))

    grid = np.geomspace(1e-3, 0.5, 40)
    worst = max(
        (step(a, b) for a, b in zip(grid[:-1], grid[1:])
         if not any(a <= d <= b for d in run.model.control_discontinuities)),
        default=0.0,
    )
    return worst < 0.10, f"max relative step {worst:.3f}, steps above 0.10 bisected"


def _check_gramian_monotone(run: RunConfig):
    if run.model_kind != "delay":
        return True, "not a delay model (skipped)"
    cfg = run.model.cfg
    prev = gramian(cfg, 0.05)
    for t in (0.1, 0.3, 0.7):
        cur = gramian(cfg, t)
        if np.linalg.eigvalsh(cur - prev).min() < -1e-10:
            return False, f"gramian not monotone at t={t}"
        prev = cur
    return True, "gramian differences PSD"


def _check_kalman_vs_gramian(run: RunConfig):
    if run.model_kind != "delay":
        return True, "not a delay model (skipped)"
    cfg = run.model.cfg
    rank = kalman_rank(cfg)
    sv = np.linalg.svd(gramian(cfg, 1.0), compute_uv=False)
    grank = int(np.count_nonzero(sv > 1e-8 * max(sv[0], 1e-300)))
    ok = rank == grank == cfg.n
    detail = f"kalman rank {rank}, gramian rank {grank}, n {cfg.n}"
    if rank < cfg.n:
        return False, "rank-deficient configuration: " + detail
    return ok, detail


INVARIANTS = [
    ("control_image_inclusion", _check_inclusion),
    ("blowup_exponent_in_range", _check_blowup_exponent),
    ("lambda_norm_continuity", _check_lambda_norm_continuity),
    ("gramian_monotone", _check_gramian_monotone),
    ("kalman_rank_full", _check_kalman_vs_gramian),
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
