"""Configuration schema: documented keys, defaults, strict parsing.

A run configuration is a nested JSON document.  Every key has a default, so
an empty document is a complete run; unknown keys are rejected by their
dotted path.  Power-like quantities are written in dB under keys suffixed
``_db`` and converted once at resolution time; everything downstream is
linear.  Every key feeds the output of at least one command, so a run
never carries a setting it ignores.  The fully resolved document (defaults
filled in, exactly as the run used it) is echoed into every output file
together with its SHA-256 hash, which is what makes reruns byte-comparable.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping

import numpy as np

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
# read.  A default-grid solve peaks near 13 MB of RSS per power level (1.66
# MB of it the kernel): 1.6 GB at 128, a fifth of an 8 GB host.  1e9 slots
# take a minute at 1.6e7/s.
_BOUNDS: dict[str, tuple[float, float]] = {
    "state_grids.n_power_levels": (1, 128),
    "costs.s_const": (0, math.inf),
    "costs.c_const": (0, math.inf),
    "sim.n_slots": (1, 10**9),
}

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


def _maybe_db(value: float | None) -> float | None:
    if value is None:
        return None
    return db_to_linear(float(value))


@dataclass
class ResolvedConfig:
    """A parsed document plus constructors for every runtime object."""

    raw: dict[str, Any]

    @property
    def sha256(self) -> str:
        return config_hash(self.raw)

    def channel(self) -> ChannelParams:
        c = self.raw["channel"]
        beta_s = float(c["beta_s"])
        beta_sp = beta_s if c["beta_sp"] is None else float(c["beta_sp"])
        return ChannelParams(
            gamma_s=db_to_linear(c["gamma_s_db"]),
            gamma_p=db_to_linear(c["gamma_p_db"]),
            gamma_sp=db_to_linear(c["gamma_sp_db"]),
            gamma_ps=db_to_linear(c["gamma_ps_db"]),
            beta_s=beta_s, beta_sp=beta_sp, beta_p=float(c["beta_p"]),
        )

    def queues(self) -> QueueParams:
        q = self.raw["queues"]
        return QueueParams(
            lambda_s=float(q["lambda_s"]), mu_s_max=float(q["mu_s_max"]),
            lambda_p=float(q["lambda_p"]), mu_p_max=float(q["mu_p_max"]),
            lambda_ps=float(q["lambda_ps"]), mu_ps_max=float(q["mu_ps_max"]),
        )

    def timing(self) -> SensingTiming:
        t = self.raw["timing"]
        return SensingTiming(tau=float(t["tau_ms"]) * 1e-3,
                             t_frame=float(t["t_frame_ms"]) * 1e-3)

    def sensing(self) -> SensingConfig:
        s = self.raw["sensing"]
        return SensingConfig(
            gamma_se=db_to_linear(s["gamma_se_db"]),
            tau=self.timing().tau,
            f_s=float(s["f_s_hz"]),
        )

    def power(self, p_av: float | None = None) -> PowerPolicy:
        """The configured policy, or one at budget p_av that keeps the
        configured reference power, so the cut-offs keep their meaning."""
        p = self.raw["power"]
        power = PowerPolicy(p_av=db_to_linear(p["p_av_db"]), mean_g_sp=float(p["mean_g_sp"]),
                            p_ref=_maybe_db(p["p_ref_db"]))
        return power if p_av is None else replace(power, p_av=p_av, p_ref=power.reference_power)

    def model_params(self, p_av: float | None = None) -> ModelParams:
        return ModelParams(channel=self.channel(), queues=self.queues(),
                           timing=self.timing(), sensing=self.sensing(),
                           power=self.power(p_av))

    def state_grids(self, p_av: float | None = None) -> StateGrids:
        g = self.raw["state_grids"]
        budget = self.power(p_av).p_av
        if g["p_s_levels"] is not None:
            levels = tuple(float(v) for v in g["p_s_levels"])
            if g["p_s_stationary"] is not None:
                probs = tuple(float(v) for v in g["p_s_stationary"])
            else:
                probs = tuple(1.0 / len(levels) for _ in levels)
        else:
            levels, probs = truncated_exponential_levels(
                budget, budget, int(g["n_power_levels"]))
        return StateGrids(
            rho_p_levels=tuple(float(v) for v in g["rho_p_levels"]),
            rho_s_levels=tuple(float(v) for v in g["rho_s_levels"]),
            p_s_levels=levels, p_s_stationary=probs,
        )

    def action_grids(self) -> ActionGrids:
        a = self.raw["action_grids"]
        return ActionGrids(
            pd_levels=tuple(float(v) for v in a["pd_levels"]),
            ic_levels=tuple(db_to_linear(v) for v in a["ic_levels_db"]),
        )

    def grids(self, p_av: float | None = None) -> MdpGrids:
        return MdpGrids(states=self.state_grids(p_av), actions=self.action_grids())

    def costs(self) -> CostModel:
        c = self.raw["costs"]
        return CostModel(s_const=float(c["s_const"]), c_const=float(c["c_const"]))

    def solver_config(self) -> SolverConfig:
        s = self.raw["solver"]
        return SolverConfig(epsilon=float(s["epsilon"]),
                            max_iters=int(s["max_iters"]),
                            discount=float(s["discount"]))

    def solver_mode(self) -> tuple[str, int | None]:
        """Mode plus the pinned grid index it applies to, resolved strictly."""
        s = self.raw["solver"]
        mode = s["mode"]
        if mode == "joint":
            return "joint", None
        if mode == "fixed_pd":
            if s["pinned_pd"] is None:
                raise ConfigError("solver.pinned_pd is required for mode fixed_pd")
            return "fixed_pd", _grid_index(
                float(s["pinned_pd"]), self.action_grids().pd_levels, "solver.pinned_pd")
        if mode == "fixed_ic":
            if s["pinned_ic_db"] is None:
                raise ConfigError("solver.pinned_ic_db is required for mode fixed_ic")
            return "fixed_ic", _grid_index(
                db_to_linear(s["pinned_ic_db"]), self.action_grids().ic_levels,
                "solver.pinned_ic_db")
        raise ConfigError(f"solver.mode must be joint, fixed_ic or fixed_pd, got {mode!r}")

    def reward_uses_chosen_action(self) -> bool:
        return bool(self.raw["solver"]["reward_uses_chosen_action"])

    def sim_config(self, params: ModelParams) -> SimConfig:
        """The simulation settings on `params`, the model this configuration
        resolves to (`model_params()`), which the caller already holds."""
        s = self.raw["sim"]
        return SimConfig(
            n_slots=int(s["n_slots"]),
            seed=int(s["seed"]),
            params=params,
            pd=float(s["pd"]),
            pf=None if s["pf"] is None else float(s["pf"]),
            pi1=None if s["pi1"] is None else float(s["pi1"]),
        )

    def sweep_spec(self) -> "SweepSpec":
        w = self.raw["sweep"]
        variable = w["variable"]
        if variable not in ("pd", "ic", "pav"):
            raise ConfigError(f"sweep.variable must be pd, ic or pav, got {variable!r}")
        if variable == "pd":
            grid = w["grid"] if w["grid"] is not None else list(self.raw["action_grids"]["pd_levels"])
            grid = [float(v) for v in grid]
        else:
            source = w["grid_db"]
            if source is None:
                source = (self.raw["action_grids"]["ic_levels_db"] if variable == "ic"
                          else [float(db) for db in range(-10, 11, 2)])
            grid = [db_to_linear(v) for v in source]
        return SweepSpec(
            variable=variable,
            grid=tuple(grid),
            ic_fixed=tuple(db_to_linear(v) for v in w["ic_db"]),
            pd_fixed=tuple(float(v) for v in w["pd"]),
            rho_p=tuple(float(v) for v in w["rho_p"]),
        )


@dataclass(frozen=True)
class SweepSpec:
    """A resolved sweep: the swept grid (linear units) and fixed co-variables."""

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
        if self.variable in ("ic", "pav") and not all(v > 0.0 for v in self.grid):
            raise ConfigError(f"{self.variable} sweep values must be positive")


def _grid_index(value: float, levels: tuple[float, ...], name: str) -> int:
    for i, lvl in enumerate(levels):
        if math.isclose(lvl, value, rel_tol=1e-9, abs_tol=1e-12):
            return i
    raise ConfigError(f"{name}={value} is not on the configured grid {levels}")


def nearest_index(value: float, levels: tuple[float, ...] | np.ndarray) -> int:
    arr = np.asarray(levels, dtype=float)
    return int(np.argmin(np.abs(arr - value)))


def resolve_config(source: str | Path | Mapping[str, Any] | None) -> ResolvedConfig:
    return ResolvedConfig(raw=load_config(source))
