"""YAML run-configuration parsing.

A run config has exactly one model section (``heat`` or ``delay``), a cost
section (ell0 spec, control grid with running costs, terminal cost
expression, horizon), a solver section and simulation/output settings.  See
``configs/`` for shipped examples.

Every section is read by :func:`_read` against the signature of the one
dataclass or builder it feeds, so each YAML value becomes a typed value in
:func:`_convert` and nowhere else.
"""

from __future__ import annotations

import functools
import inspect
import typing
from dataclasses import dataclass

import numpy as np
import yaml

from . import costs as costs_mod
from .delay import DelayConfig, build_projected_model as build_delay
from .errors import ConfigError, DimensionMismatch
from .heat import HeatConfig, HeatProjectedModel
from .hjb import CostSpec, Hamiltonian, SolverConfig
from .ou import ProjectedModel


@dataclass
class RunConfig:
    model: ProjectedModel
    cost: CostSpec
    solver: SolverConfig
    x0: np.ndarray
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
    """``value`` as the declared type ``tp``: a scalar type, ``X | None``,
    ``tuple[X, ...]``, ``np.ndarray`` (an array of floats) or a NamedTuple
    (a mapping of its fields, read by :func:`_read`).  PyYAML reads ``3e-1``
    as a string, so a float parameter needs the conversion; an int
    parameter takes an integral float such as ``16.0``, but ``int`` would
    truncate 4.7 to 4.  A float and every entry of an array must be finite:
    YAML's ``.nan`` and ``.inf`` would fail mid-solve."""
    if hasattr(tp, "_fields"):
        return _read(tp, value, where)
    args = typing.get_args(tp)
    try:
        if type(None) in args:
            return None if value is None else _convert(args[0], value, where)
        if typing.get_origin(tp) is tuple:
            if isinstance(value, str):      # not a sequence of its letters
                raise TypeError(value)
            return tuple(_convert(args[0], v, where) for v in value)
        if isinstance(value, bool):     # YAML's yes, no, on and off are no numbers
            raise TypeError(value)
        if tp is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        result = np.asarray(value, dtype=float) if tp is np.ndarray else tp(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot read {where} = {value!r} as {tp.__name__}") from exc
    if tp in (float, np.ndarray) and not np.isfinite(result).all():
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return result


@functools.cache
def _signature(target) -> tuple:
    """The parameters and type hints of ``target``, evaluated once per target."""
    return inspect.signature(target).parameters, typing.get_type_hints(target)


def _read(target, section, where: str, **given):
    """``target`` called with the keys of ``section`` and the ``given``
    arguments, which are not keys.

    This is the one reader of a section that feeds one dataclass or
    builder, so its keys, their types and their defaults are those of the
    target's signature: a key that ``target`` does not take is a config
    error, each value is converted to the type its parameter declares, a
    parameter without a key takes its default, and a ValueError or
    DimensionMismatch from ``target`` is a config error.
    """
    params, hints = _signature(target)
    _check_keys(section, params.keys() - given.keys(), where)
    for name, param in params.items():
        if name in section:
            given[name] = _convert(hints[name], section[name], f"{where}.{name}")
        elif name not in given and param.default is param.empty:
            raise ConfigError(f"missing key {name!r} in {where}")
    try:
        return target(**given)
    except (DimensionMismatch, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_kind(builders: dict, spec, where: str, default: str | None = None, **given):
    """:func:`_read` of the builder that the ``kind`` key of ``spec`` names."""
    spec = dict(_mapping(spec, where))
    kind = spec.pop("kind", default)
    if kind is None:
        raise ConfigError(f"missing key 'kind' in {where}")
    if not isinstance(kind, str) or kind not in builders:
        raise ConfigError(f"unknown kind {kind!r} in {where}")
    return _read(builders[kind], spec, where, **given)


def _modes_start(n_modes: int, coefficients: np.ndarray = np.zeros(0)) -> np.ndarray:
    """The heat start with leading mode coefficients ``coefficients``."""
    if coefficients.ndim != 1 or coefficients.size > n_modes:
        raise ValueError(
            f"coefficients must be a flat list of at most n_modes = {n_modes} numbers")
    return np.pad(coefficients, (0, n_modes - coefficients.size))


def _smooth_start(n_modes: int, amplitude: float = 1.0, decay: float = 2.0) -> np.ndarray:
    """The heat start amplitude * k^-decay in mode k."""
    return amplitude * np.arange(1, n_modes + 1, dtype=float) ** (-decay)


def _delay_start(model: ProjectedModel, present: np.ndarray | None = None) -> np.ndarray:
    """The delay start: the present state, zero if not given."""
    if present is None:
        return np.zeros(model.proj_dim)
    if present.shape != (model.proj_dim,):
        raise ValueError(f"present must be a vector of length n = {model.proj_dim}")
    return present


def _build_model(section, horizon: float) -> tuple[ProjectedModel, np.ndarray]:
    kind = _require(_mapping(section, "model"), "kind", "model")
    if kind not in ("heat", "delay"):
        raise ConfigError(f"unknown model kind {kind!r}")
    _check_keys(section, ("kind", kind), "model")
    where = f"model.{kind}"
    spec = dict(_mapping(section.get(kind, {}), where))
    if kind == "heat":
        x0 = spec.pop("x0", {"coefficients": [1.0]})
        cfg = _read(HeatConfig, spec, where)
        return HeatProjectedModel(cfg), _read_kind(
            {"modes": _modes_start, "smooth": _smooth_start}, x0, f"{where}.x0",
            default="modes", n_modes=cfg.n_modes)
    x0 = spec.pop("x0", {})
    model = build_delay(_read(DelayConfig, spec, where), horizon)
    return model, _read(_delay_start, x0, f"{where}.x0", model=model)


def _points_grid(points: np.ndarray, ell1: np.ndarray | None = None) -> Hamiltonian:
    """The control grid ``points`` with running costs ``ell1``, zero if not given."""
    if ell1 is None:
        ell1 = np.zeros(points.shape[:1])
    elif ell1.shape != points.shape[:1]:
        raise ValueError("ell1 needs one running cost per point")
    return Hamiltonian(points, ell1)


def _build_cost(section, model: ProjectedModel) -> CostSpec:
    section = dict(_mapping(section, "cost"))
    controls = _mapping(_require(section, "controls", "cost"), "cost.controls")
    if "points" in controls:
        ham = _read(_points_grid, controls, "cost.controls")
    else:
        ham = _read(costs_mod.box_hamiltonian, controls, "cost.controls",
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
        section.pop("ell0", {}), "cost.ell0", default="constant",
    )
    del section["controls"], section["phi"]      # the rest is read against CostSpec
    return _read(CostSpec, section, "cost", ell0=ell0, ham=ham, phi=phi)


def _horizon(section) -> float:
    """The horizon of the cost section, read before the model: a
    rank-deficient delay build probes image inclusion up to it.  The checks
    and messages are those of :class:`CostSpec`, which reads it again."""
    value = _mapping(section, "cost").get("horizon", CostSpec.horizon)
    horizon = _convert(float, value, "cost.horizon")
    if not horizon > 0:
        raise ConfigError(f"cost: horizon must be finite and > 0, got {horizon}")
    return horizon


def _simulate(horizon: float, t0: float = 0.0, n_samples: int = 10_000,
              time_steps: int = 20, n_random_policies: int = 10) -> dict:
    """The settings of the ``simulate`` section, as :class:`RunConfig` fields."""
    if not 0.0 <= t0 < horizon:
        raise ValueError(f"t0 = {t0} must lie in [0, horizon = {horizon})")
    if n_samples < 2:
        # one sample has standard error 0: the dominance check would compare
        # the value with a single draw
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if time_steps < 1:
        raise ValueError(f"time_steps must be >= 1, got {time_steps}")
    if n_random_policies < 0:
        raise ValueError(f"n_random_policies must be >= 0, got {n_random_policies}")
    return {"t0": t0, "n_samples": n_samples, "time_steps": time_steps,
            "n_random_policies": n_random_policies}


def load_config(path: str, seed_override: int | None = None) -> RunConfig:
    """Parse a YAML run config and build its model, one build for every
    command (a delay build may raise :class:`RankDeficient`)."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(raw, ("seed", "model", "cost", "solver", "simulate"), "config root")
    seed = seed_override
    if seed is None:
        seed = _convert(int, raw.get("seed", 0), "seed")
    if seed < 0:        # numpy's generators take no negative seed
        raise ConfigError(f"seed must be >= 0, got {seed}")
    cost_section = _require(raw, "cost", "config")
    model, x0 = _build_model(_require(raw, "model", "config"), _horizon(cost_section))
    cost = _build_cost(cost_section, model)
    solver = _read(SolverConfig, raw.get("solver", {}), "solver")
    sim = _read(_simulate, raw.get("simulate", {}), "simulate", horizon=cost.horizon)
    return RunConfig(model=model, cost=cost, solver=solver, x0=x0, seed=seed, **sim)
