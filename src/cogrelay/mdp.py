"""Finite controlled Markov model of the sensing/relaying slot dynamics.

State is the augmented tuple (rho_p, rho_s, P_s; Pd', Ic'): the two queue
utilisations, the secondary power state, and the action applied in the
previous slot.  Actions are (Pd, Ic) pairs on finite grids.  The PU activity
pi_1 is identified with the rho_p state level.

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
physics; the compiled tensors and the scalar `transition` both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import ChannelParams, QueueParams, SensingTiming, success_probability
from .sensing import SensingConfig, false_alarm_from_detection

__all__ = [
    "StateGrids",
    "ActionGrids",
    "MdpGrids",
    "AugmentedState",
    "ControlAction",
    "CostModel",
    "PowerPolicy",
    "ModelParams",
    "TransitionRow",
    "Violation",
    "ValidationReport",
    "constrained_power",
    "sensing_outcome_distribution",
    "transition",
    "validate",
    "default_state_grids",
    "default_action_grids",
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
        object.__setattr__(self, "ic_levels", _as_grid(self.ic_levels, "ic_levels", 0.0, math.inf, lo_open=True))

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
class AugmentedState:
    """Grid indices of (rho_p, rho_s, P_s; previous Pd, previous Ic)."""

    rho_p_idx: int
    rho_s_idx: int
    p_s_idx: int
    prev_pd_idx: int
    prev_ic_idx: int

    def check(self, grids: MdpGrids) -> None:
        shape = grids.shape
        idx = (self.rho_p_idx, self.rho_s_idx, self.p_s_idx, self.prev_pd_idx, self.prev_ic_idx)
        for i, (k, n) in enumerate(zip(idx, shape)):
            if not 0 <= k < n:
                raise ValueError(f"state index {idx} out of range for grid shape {shape} (axis {i})")

    def flat_index(self, grids: MdpGrids) -> int:
        _, n_rs, n_ps, n_pd, n_ic = grids.shape
        return (((self.rho_p_idx * n_rs + self.rho_s_idx) * n_ps + self.p_s_idx)
                * n_pd + self.prev_pd_idx) * n_ic + self.prev_ic_idx


def state_from_flat(index: int, grids: MdpGrids) -> AugmentedState:
    n_rp, n_rs, n_ps, n_pd, n_ic = grids.shape
    if not 0 <= index < grids.n_states:
        raise ValueError(f"flat state index {index} out of range")
    index, ic = divmod(index, n_ic)
    index, pd = divmod(index, n_pd)
    index, ps = divmod(index, n_ps)
    rp, rs = divmod(index, n_rs)
    return AugmentedState(rp, rs, ps, pd, ic)


@dataclass(frozen=True)
class ControlAction:
    pd_idx: int
    ic_idx: int

    def check(self, grids: MdpGrids) -> None:
        if not 0 <= self.pd_idx < len(grids.actions.pd_levels):
            raise ValueError(f"pd_idx {self.pd_idx} out of range")
        if not 0 <= self.ic_idx < len(grids.actions.ic_levels):
            raise ValueError(f"ic_idx {self.ic_idx} out of range")

    def flat_index(self, grids: MdpGrids) -> int:
        return self.pd_idx * len(grids.actions.ic_levels) + self.ic_idx


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


@dataclass(frozen=True)
class TransitionRow:
    """Sparse one-step distribution: parallel lists of states and probabilities."""

    states: tuple[AugmentedState, ...]
    probabilities: tuple[float, ...]

    def total(self) -> float:
        return sum(self.probabilities)


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


# outcome attribute tables aligned with sensing_outcome_distribution's order
_OUTCOME_BUSY = np.array([False, False, True, True])
_OUTCOME_DECLARED_BUSY = np.array([True, False, False, True])


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
    interf = 1.0 + ch.gamma_ps * _OUTCOME_BUSY
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


def transition(state: AugmentedState, action: ControlAction, grids: MdpGrids,
               params: ModelParams) -> TransitionRow:
    """One-step distribution over next augmented states under `action`.

    The row is the product of the sensing-outcome distribution, the two
    birth-death factors (whose service probabilities are the per-outcome
    analytical throughputs) and the stationary power redraw; the applied
    action becomes the next state's previous-action field.  Zero-probability
    branches are dropped.
    """
    state.check(grids)
    action.check(grids)
    s = grids.states
    rp, rs = state.rho_p_idx, state.rho_s_idx
    pd = grids.actions.pd_levels[action.pd_idx]
    ic = grids.actions.ic_levels[action.ic_idx]
    dist, srv_p, srv_s = _outcome_terms(
        s.rho_p_levels[rp], s.rho_s_levels[rs], s.p_s_levels[state.p_s_idx],
        false_alarm_from_detection(pd, params.sensing), pd,
        constrained_power(params.power, ic), params)
    q = params.queues
    bd_p = _birth_death(srv_p, q.lambda_p, rp == 0, rp == len(s.rho_p_levels) - 1)
    bd_s = _birth_death(srv_s, q.lambda_s, rs == 0, rs == len(s.rho_s_levels) - 1)

    # (rho_p move, rho_s move, next power level), moves -1, 0, +1 in order
    moves = np.einsum("x,mx,nx->mn", dist, np.array(bd_p), np.array(bd_s))
    probs = moves[:, :, None] * np.array(s.p_s_stationary)
    states = tuple(
        AugmentedState(rp + mp - 1, rs + ms - 1, ps, action.pd_idx, action.ic_idx)
        for mp, ms, ps in np.argwhere(probs).tolist())
    return TransitionRow(states=states, probabilities=tuple(probs[probs != 0.0].tolist()))


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    constraint: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "all constraints satisfied"
        return "; ".join(f"[{v.constraint}] {v.message}" for v in self.violations)


def _queue_triples(q: QueueParams | Mapping[str, float]) -> Iterable[tuple[str, float, float]]:
    get = (lambda k: getattr(q, k)) if isinstance(q, QueueParams) else (lambda k: float(q[k]))
    for lam, mu in (("lambda_s", "mu_s_max"), ("lambda_p", "mu_p_max"), ("lambda_ps", "mu_ps_max")):
        yield lam, get(lam), get(mu)


def validate(params: ModelParams | None = None, grids: MdpGrids | None = None,
             q: QueueParams | Mapping[str, float] | None = None) -> ValidationReport:
    """Check the operating constraints; report violations instead of raising.

    Covers queue stability (constraint 1), the power-state range against the
    budget (constraint 2), the detection grid range (constraint 3) and the
    boundedness of the interference grid (constraint 4).  `q` overrides the
    queue parameters inside `params`, and may be a raw mapping so that
    configurations too inconsistent to construct can still be reported on.
    """
    found: list[Violation] = []
    if q is None and params is not None:
        q = params.queues
    if q is not None:
        for lam_name, lam, mu in _queue_triples(q):
            if lam >= mu:
                found.append(Violation(
                    "constraint 1 (queue stability)",
                    f"{lam_name}={lam} must be below its service capacity {mu}"))
            if not 0.0 <= lam <= 1.0:
                found.append(Violation(
                    "constraint 1 (queue stability)",
                    f"{lam_name}={lam} is not a per-slot arrival probability"))
    if grids is not None:
        if params is not None:
            p_av = params.power.p_av
            for lvl in grids.states.p_s_levels:
                if not 0.0 < lvl <= p_av:
                    found.append(Violation(
                        "constraint 2 (power range)",
                        f"power state level {lvl} outside (0, p_av={p_av}]"))
        for pd in grids.actions.pd_levels:
            if not 0.0 <= pd <= 1.0:
                found.append(Violation(
                    "constraint 3 (detection range)",
                    f"pd level {pd} outside [0, 1]"))
        ic = grids.actions.ic_levels
        if any(not math.isfinite(v) or v <= 0.0 for v in ic):
            found.append(Violation(
                "constraint 4 (interference range)",
                f"ic levels must be positive and finite, got {ic}"))
    return ValidationReport(violations=tuple(found))


# ---------------------------------------------------------------------------
# default grids


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


def default_state_grids(p_av: float, n_power_levels: int = 4) -> StateGrids:
    rho = tuple(i / 10.0 for i in range(10))
    levels, probs = truncated_exponential_levels(p_av, p_av, n_power_levels)
    return StateGrids(rho_p_levels=rho, rho_s_levels=rho,
                      p_s_levels=levels, p_s_stationary=probs)


def default_action_grids() -> ActionGrids:
    pd = tuple(i / 10.0 for i in range(11))
    ic = tuple(10.0 ** (db / 10.0) for db in range(-15, 6))
    return ActionGrids(pd_levels=pd, ic_levels=ic)


# ---------------------------------------------------------------------------
# compiled model for the solver


@dataclass
class SpectrumMDP:
    """Precompiled tensors of the slot model, indexed on the grid axes.

    Axis letters used in comments: r=rho_p, u=rho_s, v=P_s, a=flat action,
    x=sensing outcome, m=move (-1, 0, +1).
    """

    grids: MdpGrids
    params: ModelParams
    costs: CostModel
    reward_uses_chosen_action: bool
    pf_of_pd: np.ndarray          # (n_pd,)
    ps1_of_ic: np.ndarray         # (n_ic,)
    action_cost: np.ndarray       # (A,)
    outcome_dist: np.ndarray      # (r, n_pd, x)
    srv_p: np.ndarray             # (r, v, A, x)
    srv_s: np.ndarray             # (r, u, v, A, x)
    g_state: np.ndarray           # (S,) throughput part of the reward at prev action
    g_action: np.ndarray          # (r, u, v, A) throughput at a hypothetical action
    reward_vec: np.ndarray        # (S,) g_state - costs at prev action

    @property
    def n_states(self) -> int:
        return self.grids.n_states

    @property
    def n_actions(self) -> int:
        return self.grids.actions.n_actions


def build_spectrum_mdp(grids: MdpGrids, params: ModelParams, costs: CostModel,
                       reward_uses_chosen_action: bool = False) -> SpectrumMDP:
    """Vectorised construction of every tensor the solver needs.

    One call of the slot physics on (rho_p, rho_s, P_s, Pd, Ic)-shaped
    inputs gives the outcome law and both service probabilities at every
    state block and action.
    """
    sg, ag = grids.states, grids.actions
    n_rp, n_rs, n_ps, n_pd, n_ic = grids.shape

    pd = np.array(ag.pd_levels)
    pf = np.array([false_alarm_from_detection(v, params.sensing) for v in pd])
    ps1 = np.array([constrained_power(params.power, v) for v in ag.ic_levels])

    def along(axis: int, values) -> np.ndarray:
        # grid axis `axis` of (r, u, v, n_pd, n_ic), with the outcome axis last
        return np.reshape(values, (1,) * axis + (-1,) + (1,) * (5 - axis))

    dist, srv_p, srv_s = _outcome_terms(
        along(0, sg.rho_p_levels), along(1, sg.rho_s_levels), along(2, sg.p_s_levels),
        along(3, pf), along(3, pd), along(4, ps1), params)
    dist = dist.reshape(n_rp, n_pd, 4)                          # (r, n_pd, x)
    srv_p = srv_p.reshape(n_rp, n_ps, n_pd * n_ic, 4)           # (r, v, A, x)
    srv_s = srv_s.reshape(n_rp, n_rs, n_ps, n_pd * n_ic, 4)     # (r, u, v, A, x)

    # throughput part of the reward for any (state coords, action) combination;
    # flattened over the prev-action axes it is exactly the per-state g term
    g_action = srv_s.sum(axis=-1)                         # (r, u, v, A)
    g_state = g_action.reshape(-1)

    action_cost = (costs.s_const * np.repeat(pd, n_ic)
                   + costs.c_const * np.tile(ps1, n_pd))  # (A,)
    reward_vec = g_state - np.tile(action_cost, n_rp * n_rs * n_ps)

    return SpectrumMDP(
        grids=grids, params=params, costs=costs,
        reward_uses_chosen_action=reward_uses_chosen_action,
        pf_of_pd=pf, ps1_of_ic=ps1, action_cost=action_cost,
        outcome_dist=dist, srv_p=srv_p, srv_s=srv_s,
        g_state=np.ascontiguousarray(g_state),
        g_action=np.ascontiguousarray(g_action),
        reward_vec=np.ascontiguousarray(reward_vec),
    )
