"""YAML run-configuration parsing.

A run config has exactly one model section (``heat`` or ``delay``), a cost
section (ell0 spec, control grid with running costs, terminal cost
expression, horizon), a solver section and simulation/output settings.  See
``configs/`` for shipped examples.
"""

from __future__ import annotations

import inspect
import typing
from dataclasses import dataclass

import numpy as np
import yaml

from . import costs as costs_mod
from .delay import DelayConfig, DelayState, build_projected_model as build_delay
from .errors import ConfigError, DimensionMismatch
from .harness import CostSpec
from .heat import HeatConfig, build_projected_model as build_heat
from .hjb import Hamiltonian, SolverConfig
from .ou import ProjectedModel


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


def _mapping(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping")
    return section


def _check_keys(section, allowed, where: str) -> dict:
    """``section``, a mapping of known keys (a misspelt one would be ignored)."""
    unknown = sorted(map(str, set(_mapping(section, where)) - set(allowed)))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    return section


def _convert(tp, value, where: str):
    """``value`` as the declared type ``tp``: a scalar type, ``X | None`` or
    ``tuple[X, ...]``.  PyYAML reads ``3e-1`` as a string, so a float
    parameter needs the conversion; an int parameter takes an integral
    float such as ``16.0``, but ``int`` would truncate 4.7 to 4."""
    args = typing.get_args(tp)
    try:
        if type(None) in args:
            return None if value is None else _convert(args[0], value, where)
        if typing.get_origin(tp) is tuple:
            return tuple(_convert(args[0], v, where) for v in value)
        if tp is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return tp(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read {where} = {value!r} as {tp.__name__}") from exc


def _read(target, section, where: str, **given):
    """``target`` called with the keys of ``section`` and the ``given``
    arguments, which are not keys.

    This is the one reader of a section that feeds one dataclass or
    builder, so its keys, their types and their defaults are those of the
    target's signature: a key that ``target`` does not take is a config
    error, each value is converted to the type its parameter declares, a
    parameter without a key takes its default, and a ValueError from
    ``target`` is a config error.
    """
    params = inspect.signature(target).parameters
    hints = typing.get_type_hints(target)
    _check_keys(section, params.keys() - given.keys(), where)
    for name, param in params.items():
        if name in section:
            given[name] = _convert(hints[name], section[name], f"{where}.{name}")
        elif name not in given and param.default is param.empty:
            raise ConfigError(f"missing key {name!r} in {where}")
    try:
        return target(**given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_kind(builders: dict, spec, where: str, default: str | None = None):
    """:func:`_read` of the builder that the ``kind`` key of ``spec`` names."""
    spec = dict(_mapping(spec, where))
    kind = spec.pop("kind", default)
    if kind is None:
        raise ConfigError(f"missing key 'kind' in {where}")
    if kind not in builders:
        raise ConfigError(f"unknown kind {kind!r} in {where}")
    return _read(builders[kind], spec, where)


def _build_model(section: dict, force: bool = False) -> tuple[ProjectedModel, str, object]:
    kind = _require(section, "kind", "model")
    if kind not in ("heat", "delay"):
        raise ConfigError(f"unknown model kind {kind!r}")
    _check_keys(section, ("kind", kind), "model")
    if kind == "heat":
        h = dict(_mapping(section.get("heat", {}), "model.heat"))
        x0_spec = h.pop("x0", {"kind": "modes", "coefficients": [1.0]})
        cfg = _read(HeatConfig, h, "model.heat")
        return build_heat(cfg), kind, _heat_state(x0_spec, cfg.n_modes)
    d = _check_keys(
        section.get("delay", {}),
        ("a0", "b0", "sigma", "delay", "atoms", "density", "x0"),
        "model.delay",
    )
    # DelayConfig converts the matrices and checks their shapes
    atoms = []
    for atom in d.get("atoms", []):
        _check_keys(atom, ("location", "weight"), "model.delay.atoms")
        atoms.append((float(_require(atom, "location", "model.delay.atoms")),
                      _require(atom, "weight", "model.delay.atoms")))
    cfg = DelayConfig(
        a0=_require(d, "a0", "model.delay"),
        b0=_require(d, "b0", "model.delay"),
        sigma=_require(d, "sigma", "model.delay"),
        delay=float(_require(d, "delay", "model.delay")),
        b1_atoms=tuple(atoms),
        b1_density=d.get("density"),
    )
    model = build_delay(cfg, force=force)
    x0_spec = _check_keys(d.get("x0", {}), ("present",), "model.delay.x0")
    x0 = DelayState.zero_past(
        np.asarray(x0_spec.get("present", [0.0] * cfg.n), dtype=float), cfg.delay
    )
    return model, kind, x0


def _heat_state(spec: dict, n_modes: int) -> np.ndarray:
    kind = _mapping(spec, "model.heat.x0").get("kind", "modes")
    if kind == "modes":
        _check_keys(spec, ("kind", "coefficients"), "model.heat.x0")
        coeffs = np.asarray(spec.get("coefficients", [0.0]), dtype=float)
        if coeffs.size > n_modes:
            raise ConfigError("more state coefficients than modes")
        return np.pad(coeffs, (0, n_modes - coeffs.size))
    if kind == "smooth":
        _check_keys(spec, ("kind", "amplitude", "decay"), "model.heat.x0")
        amp = float(spec.get("amplitude", 1.0))
        p = float(spec.get("decay", 2.0))
        k = np.arange(1, n_modes + 1, dtype=float)
        return amp * k ** (-p)
    raise ConfigError(f"unknown heat state kind {kind!r}")


def _build_cost(section: dict, model: ProjectedModel) -> CostSpec:
    _check_keys(section, ("horizon", "ell0", "controls", "phi"), "cost")
    ham_spec = _require(section, "controls", "cost")
    if "points" in _mapping(ham_spec, "cost.controls"):
        pts = _check_keys(ham_spec, ("points", "ell1"), "cost.controls")["points"]
        try:
            ham = Hamiltonian(pts, ham_spec.get("ell1", np.zeros(len(pts))))
        except DimensionMismatch as exc:
            raise ConfigError(f"cost.controls (points, ell1): {exc}") from exc
    else:
        ham = _read(costs_mod.box_hamiltonian, ham_spec, "cost.controls",
                    dim=model.control_dim)
    if ham.control_dim != model.control_dim:
        raise ConfigError(
            f"control grid dim {ham.control_dim} != model control dim "
            f"{model.control_dim}"
        )
    phi = _read_kind(
        {"constant": costs_mod.constant_cost, "tanh": costs_mod.tanh_cost,
         "gauss_bump": costs_mod.gauss_bump_cost,
         "smooth_indicator": costs_mod.smooth_indicator_cost},
        _require(section, "phi", "cost"), "cost.phi",
    )
    try:  # a direction or center of another length fails here, not in the solve
        phi(np.zeros(model.proj_dim))
    except ValueError as exc:
        raise ConfigError(
            f"cost.phi does not take points of the projected dimension "
            f"N = {model.proj_dim}: {exc}"
        ) from exc
    ell0 = _read_kind(
        {"constant": costs_mod.constant_ell0, "table": costs_mod.table_ell0},
        section.get("ell0", {}), "cost.ell0", default="constant",
    )
    horizon = _convert(float, section.get("horizon", SolverConfig.horizon), "cost.horizon")
    return CostSpec(ell0=ell0, ham=ham, phi=phi, horizon=horizon)


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
    seed = seed_override
    if seed is None:
        seed = _convert(int, raw.get("seed", 0), "seed")
    model, kind, x0 = _build_model(_require(raw, "model", "config"), force=force_model)
    cost = _build_cost(_require(raw, "cost", "config"), model)
    solver = _read(SolverConfig, raw.get("solver", {}), "solver", horizon=cost.horizon)
    sim_keys = ("t0", "n_samples", "time_steps", "n_random_policies")
    sim = _check_keys(raw.get("simulate", {}), sim_keys, "simulate")
    t0 = _convert(float, sim.get("t0", 0.0), "simulate.t0")
    n_samples = _convert(int, sim.get("n_samples", 10_000), "simulate.n_samples")
    time_steps = _convert(int, sim.get("time_steps", 20), "simulate.time_steps")
    n_random_policies = _convert(
        int, sim.get("n_random_policies", 10), "simulate.n_random_policies"
    )
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
