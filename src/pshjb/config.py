"""YAML run-configuration parsing.

A run config has exactly one model section (``heat`` or ``delay``), a cost
section (ell0 spec, control grid with running costs, terminal cost
expression, horizon), a solver section and simulation/output settings.  See
``configs/`` for shipped examples.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
import yaml

from . import costs as costs_mod
from .delay import DelayConfig, DelayState, build_projected_model as build_delay
from .errors import ConfigError
from .harness import CostSpec
from .heat import HeatConfig, build_projected_model as build_heat
from .hjb import Hamiltonian, SolverConfig
from .ou import ProjectedModel, ProjectedTerminalCost


@dataclass
class RunConfig:
    model: ProjectedModel
    model_kind: str
    cost: CostSpec
    solver: SolverConfig
    x0: object
    t0: float
    n_samples: int
    time_steps: int
    n_random_policies: int
    seed: int


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


def _check_keys(section, allowed, where: str) -> dict:
    """``section``, a mapping of known keys (a misspelt one would be ignored)."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(map(str, set(section) - set(allowed)))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    return section


def _build_model(section: dict, force: bool = False) -> tuple[ProjectedModel, str, object]:
    kind = _require(section, "kind", "model")
    if kind == "heat":
        h = section.get("heat", {})
        cfg = HeatConfig(
            n_modes=int(h.get("n_modes", 256)),
            beta=float(h.get("beta", 0.0)),
            epsilon=float(h.get("epsilon", 0.01)),
            alpha=float(h.get("alpha", 1.0)),
            n_proj=int(h.get("n_proj", 2)),
            projection=h.get("projection", "bumps"),
            spectral_modes=tuple(h.get("spectral_modes", (1,))),
            slow_decay=float(h.get("slow_decay", 0.5)),
        )
        model = build_heat(cfg)
        x0_spec = h.get("x0", {"kind": "modes", "coefficients": [1.0]})
        x0 = _heat_state(x0_spec, cfg.n_modes)
        return model, kind, x0
    if kind == "delay":
        d = section.get("delay", {})
        atoms = tuple(
            (float(a["location"]), np.asarray(a["weight"], dtype=float))
            for a in d.get("atoms", [])
        )
        dens = d.get("density")
        cfg = DelayConfig(
            a0=np.asarray(_require(d, "a0", "model.delay"), dtype=float),
            b0=np.asarray(_require(d, "b0", "model.delay"), dtype=float),
            sigma=np.asarray(_require(d, "sigma", "model.delay"), dtype=float),
            delay=float(_require(d, "delay", "model.delay")),
            b1_atoms=atoms,
            b1_density=None if dens is None else np.asarray(dens, dtype=float),
        )
        model = build_delay(cfg, force=force)
        x0_spec = d.get("x0", {"present": [0.0] * cfg.n})
        x0 = DelayState.zero_past(
            np.asarray(x0_spec.get("present", [0.0] * cfg.n), dtype=float), cfg.delay
        )
        return model, kind, x0
    raise ConfigError(f"unknown model kind {kind!r}")


def _heat_state(spec: dict, n_modes: int) -> np.ndarray:
    kind = spec.get("kind", "modes")
    if kind == "modes":
        coeffs = np.asarray(spec.get("coefficients", [0.0]), dtype=float)
        if coeffs.size > n_modes:
            raise ConfigError("more state coefficients than modes")
        return np.pad(coeffs, (0, n_modes - coeffs.size))
    if kind == "smooth":
        amp = float(spec.get("amplitude", 1.0))
        p = float(spec.get("decay", 2.0))
        k = np.arange(1, n_modes + 1, dtype=float)
        return amp * k ** (-p)
    raise ConfigError(f"unknown heat state kind {kind!r}")


def _build_phi(spec: dict) -> ProjectedTerminalCost:
    kind = _require(spec, "kind", "cost.phi")
    if kind == "constant":
        return costs_mod.constant_cost(float(spec.get("value", 0.0)))
    if kind == "tanh":
        return costs_mod.tanh_cost(
            spec.get("direction", [1.0]),
            float(spec.get("offset", 0.0)),
            float(spec.get("scale", 1.0)),
        )
    if kind == "gauss_bump":
        return costs_mod.gauss_bump_cost(
            spec.get("center", [0.0]),
            float(spec.get("width", 1.0)),
            float(spec.get("scale", 1.0)),
        )
    if kind == "smooth_indicator":
        return costs_mod.smooth_indicator_cost(
            spec.get("direction", [1.0]),
            float(spec.get("threshold", 0.0)),
            float(spec.get("sharpness", 10.0)),
            float(spec.get("scale", 1.0)),
        )
    raise ConfigError(f"unknown terminal cost kind {kind!r}")


def _build_ell0(spec: dict):
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return costs_mod.constant_ell0(float(spec.get("value", 0.0)))
    if kind == "table":
        return costs_mod.table_ell0(spec["times"], spec["values"])
    raise ConfigError(f"unknown ell0 kind {kind!r}")


def _build_cost(section: dict, model: ProjectedModel) -> CostSpec:
    ham_spec = _require(section, "controls", "cost")
    if "points" in ham_spec:
        pts = np.asarray(ham_spec["points"], dtype=float)
        ell1 = np.asarray(ham_spec.get("ell1", np.zeros(len(pts))), dtype=float)
        ham = Hamiltonian(pts, ell1)
    else:
        quad = float(ham_spec.get("quadratic_weight", 0.0))
        ham = costs_mod.box_hamiltonian(
            model.control_dim,
            float(ham_spec.get("lo", -1.0)),
            float(ham_spec.get("hi", 1.0)),
            int(ham_spec.get("points_per_dim", 3)),
            ell1_fn=(lambda u: quad * float(u @ u)) if quad else None,
        )
    if ham.control_dim != model.control_dim:
        raise ConfigError(
            f"control grid dim {ham.control_dim} != model control dim "
            f"{model.control_dim}"
        )
    phi = _build_phi(_require(section, "phi", "cost"))
    ell0 = _build_ell0(section.get("ell0", {"kind": "constant", "value": 0.0}))
    horizon = float(section.get("horizon", 1.0))
    return CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=horizon)


def _build_solver(section: dict, horizon: float) -> SolverConfig:
    # every SolverConfig field but horizon is a key of the same name
    _check_keys(section, {f.name for f in fields(SolverConfig)} - {"horizon"}, "solver")
    try:
        return SolverConfig(
            horizon=horizon,
            gamma=section.get("gamma"),
            tol=float(section.get("tol", 1e-4)),
            max_iter=int(section.get("max_iter", 30)),
            n_time=int(section.get("n_time", 40)),
            t_min_factor=float(section.get("t_min_factor", 1e-4)),
            space_points=int(section.get("space_points", 41)),
            box_halfwidth=section.get("box_halfwidth"),
            quad_order=int(section.get("quad_order", 6)),
            time_quad_order=int(section.get("time_quad_order", 7)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(
    path: str, seed_override: int | None = None, force_model: bool = False
) -> RunConfig:
    """Parse a YAML run config; ``force_model`` skips model-build
    preconditions so diagnostic commands can inspect violating models."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(raw, ("seed", "model", "cost", "solver", "simulate"), "config root")
    seed = int(raw.get("seed", 0)) if seed_override is None else seed_override
    model, kind, x0 = _build_model(_require(raw, "model", "config"), force=force_model)
    cost = _build_cost(_require(raw, "cost", "config"), model)
    solver = _build_solver(raw.get("solver", {}), cost.horizon)
    sim_keys = ("t0", "n_samples", "time_steps", "n_random_policies")
    sim = _check_keys(raw.get("simulate", {}), sim_keys, "simulate")
    t0 = float(sim.get("t0", 0.0))
    n_samples = int(sim.get("n_samples", 10_000))
    time_steps = int(sim.get("time_steps", 20))
    n_random_policies = int(sim.get("n_random_policies", 10))
    if not 0.0 <= t0 < cost.horizon:
        raise ConfigError(
            f"simulate.t0 = {t0} must lie in [0, horizon = {cost.horizon})"
        )
    if n_samples < 1:
        raise ConfigError(f"simulate.n_samples must be >= 1, got {n_samples}")
    if time_steps < 1:
        raise ConfigError(f"simulate.time_steps must be >= 1, got {time_steps}")
    if n_random_policies < 0:
        raise ConfigError(
            f"simulate.n_random_policies must be >= 0, got {n_random_policies}"
        )
    return RunConfig(
        model=model,
        model_kind=kind,
        cost=cost,
        solver=solver,
        x0=x0,
        t0=t0,
        n_samples=n_samples,
        time_steps=time_steps,
        n_random_policies=n_random_policies,
        seed=seed,
    )
