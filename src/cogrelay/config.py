"""Configuration schema: documented keys, defaults, strict parsing.

A run configuration is a nested JSON document.  Every key has a default, so
an empty document is a complete run; unknown keys are rejected by their
dotted path.  A key names the field of the library object its section
resolves to, plus an optional unit suffix: ``_db`` values convert from dB,
``_ms`` from milliseconds, and ``_hz`` are already linear.  They convert
once at resolution time; everything downstream is linear.  Every key feeds
the output of at least one command, so a run never carries a setting it
ignores.  The fully resolved document (defaults filled in, exactly as the
run used it) is echoed into every output file together with its SHA-256
hash, which is what makes reruns byte-comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from .model import ChannelParams, QueueParams, SensingTiming, db_to_linear
from .mdp import (ActionGrids, CostModel, MdpGrids, ModelParams, PowerPolicy,
                  StateGrids, truncated_exponential_levels)
from .sensing import SensingConfig
from .sim import SimConfig
from .solver import SolverConfig

__all__ = [
    "ConfigError",
    "DEFAULT_CONFIG",
    "load_config",
    "resolve_config",
    "ResolvedConfig",
    "config_hash",
]


class ConfigError(ValueError):
    """A configuration document that cannot be accepted as-is."""


_TENTH_GRID = tuple(round(i * 0.1, 1) for i in range(10))

DEFAULT_CONFIG: dict[str, dict[str, Any]] = {
    "channel": {
        "gamma_s_db": 10.0,     # mean SNR of the secondary link
        "gamma_p_db": 7.0,      # mean SNR of the primary link
        "gamma_sp_db": 30.0,    # mean SNR, secondary Tx -> primary Rx
        "gamma_ps_db": 54.0,    # mean INR, primary Tx -> secondary Rx
        "beta_s": 1.0e-3,       # full-power outage cut-off
        "beta_sp": None,        # constrained cut-off; default: equal to beta_s
        "beta_p": 2.2,          # primary-link outage cut-off
    },
    "queues": {
        "lambda_s": 0.5,
        "mu_s_max": 0.8,
        "lambda_p": 0.2,
        "mu_p_max": 1.0,
        "lambda_ps": 0.15,
        "mu_ps_max": 0.5,
    },
    "timing": {
        "tau_ms": 0.3,
        "t_frame_ms": 1.0,
    },
    "sensing": {
        "gamma_se_db": -15.0,   # sensed SNR at the detector
        "f_s_hz": 1.0e6,        # sampling rate: tau * f_s detector samples
    },
    "power": {
        "p_av_db": 5.0,         # average power budget
        "mean_g_sp": 6000.0,    # mean gain toward the primary receiver
        "p_ref_db": None,       # reference power for cut-offs; default p_av
    },
    "state_grids": {
        "rho_p_levels": list(_TENTH_GRID),
        "rho_s_levels": list(_TENTH_GRID),
        "n_power_levels": 4,
        "p_s_levels": None,       # linear watts; default: quantised exponential
        "p_s_stationary": None,   # default: equiprobable cells
    },
    "action_grids": {
        "pd_levels": [round(i * 0.1, 1) for i in range(11)],
        "ic_levels_db": [float(db) for db in range(-15, 6)],
    },
    "costs": {
        "s_const": 2.0,
        "c_const": 2.0,
    },
    "solver": {
        "epsilon": 1.0e-6,
        "max_iters": 2000,
        "discount": 0.98,
        "mode": "joint",                  # joint | fixed_ic | fixed_pd
        "pinned_pd": None,                # required for fixed_pd
        "pinned_ic_db": None,             # required for fixed_ic
        "reward_uses_chosen_action": False,
    },
    "sim": {
        "n_slots": 1_000_000,
        "seed": 20250801,
        "pd": 0.8,
        "pf": None,             # default: energy-detector false alarm at pd
        "pi1": None,            # default: rho_p of the queues
    },
    "sweep": {
        "variable": "pd",       # pd | ic | pav
        "grid": None,           # swept values; for pd sweeps (probabilities)
        "grid_db": None,        # swept values in dB; for ic and pav sweeps
        "ic_db": [-15.0, -5.0, 5.0],    # fixed co-variable of pd sweeps
        "pd": [0.1, 0.9],               # fixed co-variable of ic sweeps
        "rho_p": [0.1, 0.9],            # reported utilisation rows
    },
}


# Slots that also take null, with the kind of value their constructor reads
# otherwise.  Every other slot takes the kind of its default.
_NULLABLE: dict[str, type] = {
    "channel.beta_sp": float,
    "power.p_ref_db": float,
    "state_grids.p_s_levels": list,
    "state_grids.p_s_stationary": list,
    "solver.pinned_pd": float,
    "solver.pinned_ic_db": float,
    "sim.pf": float,
    "sim.pi1": float,
    "sweep.grid": list,
    "sweep.grid_db": list,
}

# Closed bounds of the slots that have them, checked where the document is
# read.  1e9 slots take a minute at 1.6e7/s.  MAX_MODEL_SIZE caps the
# (rho_p, rho_s, P_s, action) cells of every model: 128 power levels on the
# default grids, a 213 MB kernel and a `solve` peak near 0.5 GB.
_BOUNDS: dict[str, tuple[float, float]] = {
    "state_grids.n_power_levels": (1, math.inf),
    "costs.s_const": (0, math.inf),
    "costs.c_const": (0, math.inf),
    "sim.n_slots": (1, 10**9),
}
MAX_MODEL_SIZE = 10 * 10 * 128 * 231

_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string", list: "a list of numbers"}


def _check_leaf(value: Any, kind: type, here: str) -> None:
    """Reject a value that is not of the slot's kind: a float slot takes
    any finite number, an int slot an integral one, a list slot a list of
    finite numbers.  NaN, +-Infinity (or an integer too large for a float)
    and booleans outside boolean slots get their own messages (JSON parsing
    lets all of them through as numbers).  A value in a slot whose key ends
    in ``_db`` must convert to a finite, nonzero linear value, and a slot in
    `_BOUNDS` must lie within its bounds."""
    if isinstance(value, bool) and kind is not bool:
        raise ConfigError(
            f"config key {here} must not be a boolean, got {json.dumps(value)}")
    if (isinstance(value, float) and not math.isfinite(value)) or (
            kind is float and isinstance(value, int) and abs(value) > sys.float_info.max):
        raise ConfigError(f"config key {here} must be finite, got {json.dumps(value)}")
    if kind is list and isinstance(value, list):
        for i, item in enumerate(value):
            _check_leaf(item, float, f"{here}[{i}]")
        return
    if kind in (int, float):
        ok = isinstance(value, int) or (
            isinstance(value, float) and (kind is float or value.is_integer()))
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"config key {here} must be {_KIND_NAMES[kind]}, "
                          f"got {json.dumps(value, default=repr)}")
    if here.partition("[")[0].endswith("_db"):
        try:
            linear = db_to_linear(value)
        except OverflowError:
            raise ConfigError(f"config key {here} is too large a dB value, "
                              f"got {json.dumps(value)}") from None
        if linear == 0.0:
            raise ConfigError(f"config key {here} is too small a dB value, "
                              f"got {json.dumps(value)}")
    if here in _BOUNDS and not _BOUNDS[here][0] <= value <= _BOUNDS[here][1]:
        raise ConfigError(f"config key {here} must lie within {list(_BOUNDS[here])}, "
                          f"got {json.dumps(value)}")


def _merge(defaults: Mapping[str, Any], given: Mapping[str, Any], path: str) -> dict[str, Any]:
    merged: dict[str, Any] = {}
    for key, value in given.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here}")
        base = defaults[key]
        if isinstance(base, Mapping):
            if not isinstance(value, Mapping):
                raise ConfigError(f"config key {here} must be a section, got {type(value).__name__}")
            merged[key] = _merge(base, value, here)
        else:
            if value is not None or here not in _NULLABLE:
                _check_leaf(value, _NULLABLE.get(here, type(base)), here)
            merged[key] = value
    for key, base in defaults.items():
        if key not in merged:
            merged[key] = dict(_merge(base, {}, f"{path}.{key}" if path else key)) \
                if isinstance(base, Mapping) else base
    return merged


def load_config(source: str | Path | Mapping[str, Any] | None) -> dict[str, Any]:
    """Merge a document (path, mapping, or None) over the defaults, strictly."""
    if source is None:
        given: Mapping[str, Any] = {}
    elif isinstance(source, Mapping):
        given = source
    else:
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ConfigError(f"config file {source} cannot be read: {exc}") from exc
        try:
            given = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {source} is not valid JSON: {exc}") from exc
        if not isinstance(given, Mapping):
            raise ConfigError(f"config file {source} must contain a JSON object")
    return _merge(DEFAULT_CONFIG, given, "")


def config_hash(resolved: Mapping[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of a resolved document."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# A key names its library field plus an optional unit suffix, which says how
# the configured value converts to the field's linear one.  The empty
# suffix, which every key ends in, comes last.
_UNITS = {"_db": db_to_linear, "_ms": lambda v: v * 1e-3, "_hz": lambda v: v,
          "": lambda v: v}


@dataclass
class ResolvedConfig:
    """A parsed document plus constructors for every runtime object."""

    raw: dict[str, Any]

    @property
    def sha256(self) -> str:
        return config_hash(self.raw)

    def _fields(self, section: str, keys: Sequence[str] | None = None) -> dict[str, Any]:
        """The library fields that a section's keys (all, or those named) set.

        A key is its field's name plus an optional `_UNITS` suffix, and its
        value takes the kind its slot is checked against: an int slot gives
        an int, a float slot a float, a list slot a tuple of converted
        floats, and null stays null."""
        fields: dict[str, Any] = {}
        for key in keys or self.raw[section]:
            value = self.raw[section][key]
            suffix = next(end for end in _UNITS if key.endswith(end))
            name, unit = key[:len(key) - len(suffix)], _UNITS[suffix]
            kind = _NULLABLE.get(f"{section}.{key}", type(DEFAULT_CONFIG[section][key]))
            if value is not None:
                value = tuple(unit(float(v)) for v in value) if kind is list else unit(kind(value))
            fields[name] = value
        return fields

    def channel(self) -> ChannelParams:
        c = self._fields("channel")
        if c["beta_sp"] is None:
            c["beta_sp"] = c["beta_s"]
        return ChannelParams(**c)

    def queues(self) -> QueueParams:
        return QueueParams(**self._fields("queues"))

    def timing(self) -> SensingTiming:
        return SensingTiming(**self._fields("timing"))

    def sensing(self) -> SensingConfig:
        return SensingConfig(**self._fields("sensing"), tau=self.timing().tau)

    def power(self) -> PowerPolicy:
        return PowerPolicy(**self._fields("power"))

    def at_budget(self, p_av_db: float) -> ResolvedConfig:
        """This configuration at power budget p_av_db, with the reference
        power held at the configured one, so the cut-offs keep their meaning."""
        power = self.raw["power"]
        p_ref_db = power["p_av_db"] if power["p_ref_db"] is None else power["p_ref_db"]
        return ResolvedConfig(raw={**self.raw, "power": {
            **power, "p_av_db": p_av_db, "p_ref_db": p_ref_db}})

    def model_params(self) -> ModelParams:
        return ModelParams(channel=self.channel(), queues=self.queues(),
                           timing=self.timing(), sensing=self.sensing(),
                           power=self.power())

    def state_grids(self) -> StateGrids:
        g = self._fields("state_grids")
        n_power_levels = g.pop("n_power_levels")
        if g["p_s_levels"] is None:
            if g["p_s_stationary"] is not None:
                raise ConfigError("state_grids.p_s_stationary needs state_grids.p_s_levels: "
                                  "the default power levels carry their own equiprobable law")
            budget = self.power().p_av
            g["p_s_levels"], g["p_s_stationary"] = truncated_exponential_levels(
                budget, budget, n_power_levels)
        else:
            if n_power_levels != DEFAULT_CONFIG["state_grids"]["n_power_levels"]:
                raise ConfigError("state_grids.n_power_levels is not read when "
                                  "state_grids.p_s_levels is given: the explicit levels "
                                  "set their own number")
            if g["p_s_stationary"] is None:
                g["p_s_stationary"] = tuple(1.0 / len(g["p_s_levels"]) for _ in g["p_s_levels"])
        return StateGrids(**g)

    def action_grids(self) -> ActionGrids:
        return ActionGrids(**self._fields("action_grids"))

    def check_model_size(self, n_actions: int, actions: str) -> None:
        """Reject a model of more than MAX_MODEL_SIZE cells with n_actions actions."""
        g = self.raw["state_grids"]
        n_ps = int(g["n_power_levels"]) if g["p_s_levels"] is None else len(g["p_s_levels"])
        size = len(g["rho_p_levels"]) * len(g["rho_s_levels"]) * n_ps * n_actions
        if size > MAX_MODEL_SIZE:
            raise ConfigError(f"state_grids.rho_p_levels x rho_s_levels x n_power_levels (or "
                              f"p_s_levels) x {actions} = {size} cells, over the cap {MAX_MODEL_SIZE}")

    def grids(self) -> MdpGrids:
        actions = self.action_grids()
        self.check_model_size(actions.n_actions, "action_grids")
        return MdpGrids(states=self.state_grids(), actions=actions)

    def costs(self) -> CostModel:
        return CostModel(**self._fields("costs"))

    def solver_config(self) -> SolverConfig:
        return SolverConfig(**self._fields("solver", ("epsilon", "max_iters", "discount")))

    def solver_mode(self) -> tuple[str, int | None]:
        """Mode plus the pinned grid index it applies to, resolved strictly."""
        s = self._fields("solver", ("mode", "pinned_pd", "pinned_ic_db"))
        mode = s["mode"]
        if mode == "joint":
            return "joint", None
        if mode == "fixed_pd":
            if s["pinned_pd"] is None:
                raise ConfigError("solver.pinned_pd is required for mode fixed_pd")
            return "fixed_pd", _grid_index(
                s["pinned_pd"], self.action_grids().pd_levels, "solver.pinned_pd")
        if mode == "fixed_ic":
            if s["pinned_ic"] is None:
                raise ConfigError("solver.pinned_ic_db is required for mode fixed_ic")
            return "fixed_ic", _grid_index(
                s["pinned_ic"], self.action_grids().ic_levels, "solver.pinned_ic_db")
        raise ConfigError(f"solver.mode must be joint, fixed_ic or fixed_pd, got {mode!r}")

    def reward_uses_chosen_action(self) -> bool:
        return bool(self.raw["solver"]["reward_uses_chosen_action"])

    def sim_config(self, params: ModelParams) -> SimConfig:
        """The simulation settings on `params`, the model this configuration
        resolves to (`model_params()`), which the caller already holds."""
        return SimConfig(**self._fields("sim"), params=params)

    def sweep_spec(self) -> SweepSpec:
        w = self.raw["sweep"]
        variable = w["variable"]
        if variable not in _SWEEP_KEYS:
            raise ConfigError(f"sweep.variable must be pd, ic or pav, got {variable!r}")
        for key, default in DEFAULT_CONFIG["sweep"].items():
            if key not in _SWEEP_KEYS[variable] and w[key] != default:
                raise ConfigError(f"sweep.{key} is not read by {variable} sweeps, so it must "
                                  f"keep its default {json.dumps(default)}")
        if variable == "pd":
            grid = w["grid"] if w["grid"] is not None else self.raw["action_grids"]["pd_levels"]
        else:
            grid = w["grid_db"]
            if grid is None:
                grid = (self.raw["action_grids"]["ic_levels_db"] if variable == "ic"
                        else range(-10, 11, 2))
        fixed = self._fields("sweep", ("ic_db", "pd", "rho_p"))
        return SweepSpec(variable=variable, grid=tuple(float(v) for v in grid),
                         ic_fixed=fixed["ic"], pd_fixed=fixed["pd"], rho_p=fixed["rho_p"])


# the sweep keys each variable reads; the others must keep their defaults
_SWEEP_KEYS = {"pd": ("variable", "grid", "ic_db", "rho_p"),
               "ic": ("variable", "grid_db", "pd", "rho_p"),
               "pav": ("variable", "grid_db")}


@dataclass(frozen=True)
class SweepSpec:
    """A resolved sweep: the swept grid, in the configured units (pd sweeps
    probabilities, ic and pav sweeps dB), and the fixed co-variables
    (linear units)."""

    variable: str
    grid: tuple[float, ...]
    ic_fixed: tuple[float, ...]
    pd_fixed: tuple[float, ...]
    rho_p: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.grid:
            raise ConfigError("sweep grid must be non-empty")
        co = {"pd": ("ic_db", self.ic_fixed), "ic": ("pd", self.pd_fixed)}
        if self.variable in co:     # pav reads none of the co-variable lists
            for key, values in (co[self.variable], ("rho_p", self.rho_p)):
                if not values:
                    raise ConfigError(f"sweep.{key} must be non-empty for {self.variable} sweeps")
        if self.variable == "pd" and not all(0.0 <= v <= 1.0 for v in self.grid):
            raise ConfigError("pd sweep values must lie in [0, 1]")
        if self.variable == "ic" and not all(0.0 <= v <= 1.0 for v in self.pd_fixed):
            raise ConfigError("sweep.pd must lie in [0, 1] for ic sweeps")


def _grid_index(value: float, levels: tuple[float, ...], name: str) -> int:
    for i, lvl in enumerate(levels):
        if math.isclose(lvl, value, rel_tol=1e-9, abs_tol=1e-12):
            return i
    raise ConfigError(f"{name}={value} is not on the configured grid {levels}")


def nearest_index(value: float, levels: Sequence[float]) -> int:
    """Index of the level nearest value; of equally near levels, the first."""
    distances = [abs(float(level) - value) for level in levels]
    return distances.index(min(distances))


def resolve_config(source: str | Path | Mapping[str, Any] | None) -> ResolvedConfig:
    return ResolvedConfig(raw=load_config(source))
