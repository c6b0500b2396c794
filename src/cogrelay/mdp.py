"""Finite controlled Markov model of the sensing/relaying slot dynamics.

State is the augmented tuple (rho_p, rho_s, P_s; Pd', Ic'): the two queue
utilisations, the secondary power state, and the action applied in the
previous slot.  Actions are (Pd, Ic) pairs on finite grids.  Both are flat
integers: a state indexes `MdpGrids.shape` in C order, and an action its
last two axes, pd index * n_ic + ic index.  The PU activity pi_1 is
identified with the rho_p state level.

Slot dynamics are a product of independent factors:
  * the four-way sensing outcome drawn from the (pi_1, Pd, Pf) distribution,
  * one-step birth-death moves of rho_p and rho_s whose service
    probabilities are the per-outcome analytical throughputs,
  * an i.i.d. redraw of the power state from its stationary law,
  * the deterministic copy of the applied action into the next state.

Declared-idle transmissions use the cut-off beta_s and declared-busy
(constrained) ones the cut-off beta_sp, as in `model.py`'s closed forms.
Transmit power shapes every cut-off: a transmission radiated at power P_tx
sees an effective cut-off beta * (p_ref / P_tx), and the interference the
secondary imposes on the primary link scales with P_tx / p_ref.  Constrained
transmissions therefore both survive worse and protect the primary better
when Ic is tight.  `_outcome_terms` is the one implementation of this slot
physics.  `build_spectrum_mdp` runs it one rho_p level at a time and
writes each level's (rho_p move, rho_s move) law into the kernel in place,
for each process's peak: a process builds one model at a time (one per
power budget in a `pav` sweep) and should hold its kernel, not the
physics and birth-death tables of every level.  The scalar `transition`
reads a row of the model's kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ._lazy import np
from .model import (OUTCOME_ORDER, ChannelParams, QueueParams, SensingTiming,
                    success_probability)
from .sensing import SensingConfig, false_alarm_from_detection

__all__ = [
    "StateGrids",
    "ActionGrids",
    "MdpGrids",
    "CostModel",
    "PowerPolicy",
    "ModelParams",
    "constrained_power",
    "sensing_outcome_distribution",
    "transition",
    "validate",
    "truncated_exponential_levels",
    "SpectrumMDP",
    "build_spectrum_mdp",
]


# ---------------------------------------------------------------------------
# grids and parameter bundles


def _as_grid(values: Sequence[float], name: str, lo: float, hi: float,
             lo_open: bool = False, hi_open: bool = False) -> tuple[float, ...]:
    grid = tuple(float(v) for v in values)
    if not grid:
        raise ValueError(f"{name} must be non-empty")
    for a, b in zip(grid, grid[1:]):
        if not a < b:
            raise ValueError(f"{name} must be strictly increasing, got {grid}")
    lo_ok = grid[0] > lo if lo_open else grid[0] >= lo
    hi_ok = grid[-1] < hi if hi_open else grid[-1] <= hi
    if not (lo_ok and hi_ok):
        raise ValueError(f"{name} must lie within ({lo}, {hi}), got {grid}")
    return grid


@dataclass(frozen=True)
class StateGrids:
    """Quantisation levels of the environment coordinates."""

    rho_p_levels: tuple[float, ...]
    rho_s_levels: tuple[float, ...]
    p_s_levels: tuple[float, ...]
    p_s_stationary: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho_p_levels", _as_grid(self.rho_p_levels, "rho_p_levels", 0.0, 1.0, hi_open=True))
        object.__setattr__(self, "rho_s_levels", _as_grid(self.rho_s_levels, "rho_s_levels", 0.0, 1.0, hi_open=True))
        object.__setattr__(self, "p_s_levels", _as_grid(self.p_s_levels, "p_s_levels", 0.0, math.inf, lo_open=True))
        probs = tuple(float(p) for p in self.p_s_stationary)
        object.__setattr__(self, "p_s_stationary", probs)
        if len(probs) != len(self.p_s_levels):
            raise ValueError("p_s_stationary must match p_s_levels in length")
        if any(p < 0.0 for p in probs):
            raise ValueError("p_s_stationary entries must be non-negative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"p_s_stationary must sum to 1, got {sum(probs)}")


@dataclass(frozen=True)
class ActionGrids:
    """Control grids: detection probabilities and interference caps (watts)."""

    pd_levels: tuple[float, ...]
    ic_levels: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pd_levels", _as_grid(self.pd_levels, "pd_levels", 0.0, 1.0))
        object.__setattr__(self, "ic_levels", _as_grid(self.ic_levels, "ic_levels", 0.0, math.inf, lo_open=True, hi_open=True))

    @property
    def n_actions(self) -> int:
        return len(self.pd_levels) * len(self.ic_levels)


@dataclass(frozen=True)
class MdpGrids:
    states: StateGrids
    actions: ActionGrids

    @property
    def shape(self) -> tuple[int, int, int, int, int]:
        s, a = self.states, self.actions
        return (len(s.rho_p_levels), len(s.rho_s_levels), len(s.p_s_levels),
                len(a.pd_levels), len(a.ic_levels))

    @property
    def n_states(self) -> int:
        n = 1
        for dim in self.shape:
            n *= dim
        return n


@dataclass(frozen=True)
class CostModel:
    """Linear per-slot control costs: s_const * Pd and c_const * Ps(1)."""

    s_const: float = 2.0
    c_const: float = 2.0

    def __post_init__(self) -> None:
        if self.s_const < 0.0 or self.c_const < 0.0:
            raise ValueError("cost constants must be non-negative")


@dataclass(frozen=True)
class PowerPolicy:
    """Average power budget and the mean gain toward the primary receiver.

    p_ref is the radiated power at which the configured cut-offs and the
    configured interference penalty hold exactly; it defaults to p_av.
    """

    p_av: float
    mean_g_sp: float = 1.0
    p_ref: float | None = None

    def __post_init__(self) -> None:
        if self.p_av <= 0.0:
            raise ValueError(f"p_av must be positive, got {self.p_av}")
        if self.mean_g_sp <= 0.0:
            raise ValueError(f"mean_g_sp must be positive, got {self.mean_g_sp}")
        if self.p_ref is not None and self.p_ref <= 0.0:
            raise ValueError(f"p_ref must be positive, got {self.p_ref}")

    @property
    def reference_power(self) -> float:
        return self.p_av if self.p_ref is None else self.p_ref


@dataclass(frozen=True)
class ModelParams:
    """All physical and queueing constants needed by the slot model."""

    channel: ChannelParams
    queues: QueueParams
    timing: SensingTiming
    sensing: SensingConfig
    power: PowerPolicy


# ---------------------------------------------------------------------------
# elementary operations


def constrained_power(pp: PowerPolicy, ic: float) -> float:
    """Transmit power allowed when the channel is declared busy.

    The interference cap ic (watts at the primary receiver) divided by the
    mean secondary-to-primary gain bounds the radiated power; the average
    budget p_av caps it from above.
    """
    if ic <= 0.0:
        raise ValueError(f"ic must be positive, got {ic}")
    return min(pp.p_av, ic / pp.mean_g_sp)


# outcome attribute tables in the canonical order of sensing_outcome_distribution
_OUTCOME_BUSY = tuple(o.primary_busy for o in OUTCOME_ORDER)
_OUTCOME_DECLARED_BUSY = tuple(o.declared_busy for o in OUTCOME_ORDER)


def sensing_outcome_distribution(pi1, pd, pf) -> np.ndarray:
    """Probabilities of the four sensing outcomes.

    Order: [false alarm, no false alarm, missed detection, detection],
    i.e. pi_0*Pf, pi_0*(1-Pf), pi_1*(1-Pd), pi_1*Pd.  Arguments are
    probabilities, as scalars or as arrays whose last axis has length 1;
    the outcome axis broadcasts along that last axis.
    """
    for name, val in (("pi1", pi1), ("pd", pd), ("pf", pf)):
        if not np.logical_and(0.0 <= val, val <= 1.0).all():
            raise ValueError(f"{name} must be a probability in [0, 1], got {val}")
    p_declared = np.where(_OUTCOME_BUSY, pd, pf)
    return (np.where(_OUTCOME_BUSY, pi1, 1.0 - pi1)
            * np.where(_OUTCOME_DECLARED_BUSY, p_declared, 1.0 - p_declared))


def _outcome_terms(pi1, rho_s, p_s, pf, pd, ps1,
                   params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slot physics: per-outcome probabilities and queue service probabilities.

    Returns (outcome distribution, rho_p service probs, rho_s service probs)
    for a slot that starts at utilisations (pi1, rho_s) and power state p_s,
    senses with detection and false-alarm probabilities (pd, pf), and
    radiates ps1 when it declares the channel busy.  Arguments are scalars
    or arrays whose last axis has length 1, and the outcome axis broadcasts
    along that last axis, so one call serves a single slot or a whole grid.
    """
    ch, pw = params.channel, params.power
    dist = sensing_outcome_distribution(pi1, pd, pf)

    # declared-idle outcomes radiate the power state against the cut-off
    # beta_s, declared-busy ones the constrained power against beta_sp
    p_ref = pw.reference_power
    p_tx = np.where(_OUTCOME_DECLARED_BUSY, ps1, p_s)
    beta = np.where(_OUTCOME_DECLARED_BUSY, ch.beta_sp, ch.beta_s) * (p_ref / p_tx)
    interf = 1.0 + ch.gamma_ps * np.array(_OUTCOME_BUSY)
    su_succ = np.exp(-beta * interf / ch.gamma_s)
    sp_succ = np.exp(-beta * interf / ch.gamma_sp)
    # Interference-constrained transmissions sit far below the power states
    # by construction, so only full-power slots degrade the primary link.
    p_seen = np.where(_OUTCOME_DECLARED_BUSY, 0.0, p_s)
    pu_direct = np.exp(-ch.beta_p * (1.0 + ch.gamma_sp * p_seen / p_ref) / ch.gamma_p)

    no_outage = success_probability(ch.beta_p, ch.gamma_p)
    srv_s = params.timing.data_fraction * dist * su_succ * rho_s * no_outage
    srv_p = pu_direct * pi1 + dist * sp_succ * params.queues.rho_ps * (1.0 - no_outage)
    return dist, srv_p, srv_s


def _birth_death(srv, lam: float, at_bottom, at_top) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(down, stay, up) probabilities of one quantised queue step.

    An arrival without service moves the level up, a service without arrival
    moves it down; moves off the grid (down from the bottom level, up from
    the top one) fold into staying.  Broadcasts over its arguments.
    """
    down = np.where(at_bottom, 0.0, srv * (1.0 - lam))
    up = np.where(at_top, 0.0, lam * (1.0 - srv))
    return down, 1.0 - down - up, up


def transition(mdp: SpectrumMDP, state: int, action: int) -> tuple[np.ndarray, np.ndarray]:
    """One-step distribution over next states of `mdp` under `action`.

    `state` is a flat index over `mdp.grids.shape` and `action` a flat action
    index, pd index * n_ic + ic index; either out of range is a ValueError.
    Returns (next_states, probabilities): the flat next-state indices and
    their probabilities, zero-probability branches dropped.  The row is a
    gather from the model's kernel times the stationary power redraw; the
    applied action becomes the next state's previous-action field.
    """
    grids = mdp.grids
    rp, rs, ps, _, _ = np.unravel_index(state, grids.shape)
    pd_i, ic_i = np.unravel_index(action, grids.shape[3:])
    probs = (mdp.kernel[:, :, rp, rs, ps, action, None]
             * np.array(grids.states.p_s_stationary))
    mp, ms, ps_next = np.nonzero(probs)
    next_states = np.ravel_multi_index(
        (rp + mp - 1, rs + ms - 1, ps_next, pd_i, ic_i), grids.shape)
    return next_states, probs[mp, ms, ps_next]


# ---------------------------------------------------------------------------
# validation


def validate(params: ModelParams, grids: MdpGrids) -> list[str]:
    """Check the operating constraints; list the violations instead of raising.

    Covers the constraints that the argument constructors let through:
    strict queue stability (constraint 1; `QueueParams` admits lambda ==
    mu) and power levels above the budget (constraint 2).  The
    constructors reject the rest: `QueueParams` an arrival rate outside
    [0, 1], `StateGrids` a power level <= 0, and `ActionGrids` a pd level
    outside [0, 1] (constraint 3) and a cap <= 0, infinite or NaN
    (constraint 4).  Each violation reads "[constraint <n> (<name>)]
    <message>".
    """
    found: list[str] = []
    q = params.queues
    for lam_name, mu_name in (("lambda_s", "mu_s_max"), ("lambda_p", "mu_p_max"),
                              ("lambda_ps", "mu_ps_max")):
        lam, mu = getattr(q, lam_name), getattr(q, mu_name)
        if lam >= mu:
            found.append(f"[constraint 1 (queue stability)] "
                         f"{lam_name}={lam} must be below its service capacity {mu}")
    p_av = params.power.p_av
    for lvl in grids.states.p_s_levels:
        if lvl > p_av:
            found.append(f"[constraint 2 (power range)] "
                         f"power state level {lvl} outside (0, p_av={p_av}]")
    return found


# ---------------------------------------------------------------------------
# power-state quantisation


def truncated_exponential_levels(mean: float, cap: float, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Equiprobable quantised levels of an Exp(mean) law truncated at cap.

    Returns (levels, probabilities): the conditional mean of each of the n
    equal-probability cells, which keeps the levels inside (0, cap].
    """
    if mean <= 0.0 or cap <= 0.0 or n < 1:
        raise ValueError("mean, cap and n must be positive")
    z = 1.0 - math.exp(-cap / mean)
    bounds = [-mean * math.log(1.0 - z * k / n) for k in range(n + 1)]
    levels = []
    for a, b in zip(bounds, bounds[1:]):
        # E[X ; a<X<b] / P(a<X<b) for X ~ Exp(mean)
        num = (a + mean) * math.exp(-a / mean) - (b + mean) * math.exp(-b / mean)
        den = math.exp(-a / mean) - math.exp(-b / mean)
        levels.append(num / den)
    return tuple(levels), tuple(1.0 / n for _ in range(n))


# ---------------------------------------------------------------------------
# compiled model for the solver


@dataclass
class SpectrumMDP:
    """Precompiled tensors of the slot model, indexed on the grid axes.

    Axis letters used in comments: r=rho_p, u=rho_s, v=P_s, a=flat action,
    m=move (-1, 0, +1).  kernel[mp, ms, r, u, v, a] is the probability that
    rho_p moves mp - 1 levels and rho_s ms - 1 levels in one slot; the next
    power level is a stationary redraw, so it and the grids are the whole
    transition law.  Flattened, g_action is the throughput part of the
    per-state reward, read at the previous action.
    """

    grids: MdpGrids
    params: ModelParams
    reward_uses_chosen_action: bool
    action_cost: np.ndarray       # (A,)
    kernel: np.ndarray            # (mp, ms, r, u, v, A) move probabilities
    g_action: np.ndarray          # (r, u, v, A) throughput at a hypothetical action
    reward_vec: np.ndarray        # (S,) throughput - costs at prev action

    @property
    def n_states(self) -> int:
        return self.grids.n_states

    @property
    def n_actions(self) -> int:
        return self.grids.actions.n_actions


def build_spectrum_mdp(grids: MdpGrids, params: ModelParams, costs: CostModel,
                       reward_uses_chosen_action: bool = False) -> SpectrumMDP:
    """Compile the slot model one rho_p level at a time and price it with the costs.

    Per level, one call of the slot physics on (rho_s, P_s, Pd, Ic)-shaped
    inputs gives the outcome law dist[a, x] and the service probabilities
    srv_p[v, a, x] and srv_s[u, v, a, x].  The outcome law weights the
    product of the two queues' birth-death steps, whose edges are the first
    and last level of each grid, and einsum sums it over the outcomes x
    into the level's slice of the kernel.
    """
    sg, ag = grids.states, grids.actions
    n_rp, n_rs, n_ps, n_pd, n_ic = grids.shape
    q = params.queues

    pd = np.array(ag.pd_levels)
    pf = np.array([false_alarm_from_detection(v, params.sensing) for v in pd])
    ps1 = np.array([constrained_power(params.power, v) for v in ag.ic_levels])

    def along(axis: int, values) -> np.ndarray:
        # grid axis `axis` of (u, v, n_pd, n_ic), with the outcome axis last
        return np.reshape(values, (1,) * axis + (-1,) + (1,) * (4 - axis))

    level_inputs = (along(0, sg.rho_s_levels), along(1, sg.p_s_levels),
                    along(2, pf), along(2, pd), along(3, ps1))
    rs = np.arange(n_rs).reshape(-1, 1, 1, 1)
    kernel = np.empty((3, 3, n_rp, n_rs, n_ps, n_pd * n_ic))
    # throughput part of the reward for any (state coords, action) combination;
    # flattened over the prev-action axes it is exactly the per-state g term
    g_action = np.empty(kernel.shape[2:])
    for r, pi1 in enumerate(sg.rho_p_levels):
        dist, srv_p, srv_s = _outcome_terms(pi1, *level_inputs, params)
        # the outcome law depends on the action through pd only
        dist = np.repeat(dist.reshape(n_pd, 4), n_ic, axis=0)       # (A, x)
        srv_p = srv_p.reshape(n_ps, n_pd * n_ic, 4)                 # (v, A, x)
        srv_s = srv_s.reshape(n_rs, n_ps, n_pd * n_ic, 4)           # (u, v, A, x)
        bdp = np.array(_birth_death(srv_p, q.lambda_p, r == 0, r == n_rp - 1))
        bdp *= dist
        for ms, step in enumerate(_birth_death(srv_s, q.lambda_s, rs == 0, rs == n_rs - 1)):
            np.einsum("mvax,uvax->muva", bdp, step, out=kernel[:, ms, r])
        g_action[r] = srv_s.sum(axis=-1)
    action_cost = (costs.s_const * np.repeat(pd, n_ic)
                   + costs.c_const * np.tile(ps1, n_pd))  # (A,)
    return SpectrumMDP(
        grids=grids, params=params,
        reward_uses_chosen_action=reward_uses_chosen_action,
        action_cost=action_cost, kernel=kernel, g_action=g_action,
        reward_vec=(g_action - action_cost).reshape(-1),
    )
