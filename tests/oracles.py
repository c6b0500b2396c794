"""Reference routes that the tests hold the library against.

The dense solvers work on explicit (A, S, S) transition and (S, A) reward
arrays, which `materialize_dense` builds from the scalar `transition` rows,
so they share no transition operator with `cogrelay.solver`.
`outcome_kernel` states the slot physics one scalar slot at a time, apart
from the broadcasting `cogrelay.mdp._outcome_terms` that the library
compiles, and `reward` prices a single state from it.  `evaluate_policy`
is fixed-point policy evaluation, the iterative twin of the library's exact
`evaluate_policy_exact`.  `tests/conftest.py` wraps `value_iteration_dense`
and `evaluate_policy` with the suite-wide contraction check.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from cogrelay.mdp import (AugmentedState, ControlAction, CostModel, MdpGrids,
                          ModelParams, SpectrumMDP, constrained_power,
                          state_from_flat, transition)
from cogrelay.model import success_probability
from cogrelay.sensing import false_alarm_from_detection
from cogrelay.solver import (PolicyTable, SolverConfig, ValueTable, _base_rewards,
                             _FactoredBackup, _policy_terms)


def outcome_kernel(pi1: float, rho_s: float, p_s: float, pd: float, ic: float,
                   params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-outcome probabilities and queue service probabilities of one slot.

    Returns (outcome distribution, rho_p service probs, rho_s service probs),
    each a 4-vector over the canonical outcome order (FA, NFA, MD, D), for a
    slot that starts at utilisations (pi1, rho_s), power state p_s, and
    applies (pd, ic).  Declared-idle outcomes radiate p_s against beta_s,
    declared-busy ones the constrained power against beta_sp, each cut-off
    scaled by p_ref / p_tx.
    """
    ch, q, pw = params.channel, params.queues, params.power
    pf = false_alarm_from_detection(pd, params.sensing)
    pi0 = 1.0 - pi1
    dist = np.array([pi0 * pf, pi0 * (1.0 - pf), pi1 * (1.0 - pd), pi1 * pd])
    busy = np.array([0.0, 0.0, 1.0, 1.0])
    declared_busy = np.array([True, False, False, True])

    p_ref = pw.reference_power
    p_tx = np.where(declared_busy, constrained_power(pw, ic), p_s)
    beta = np.where(declared_busy, ch.beta_sp, ch.beta_s) * (p_ref / p_tx)
    interf = ch.gamma_ps * busy
    su_succ = np.exp(-beta * (1.0 + interf) / ch.gamma_s)
    sp_succ = np.exp(-beta * (1.0 + interf) / ch.gamma_sp)
    p_seen = np.where(declared_busy, 0.0, p_s)
    pu_direct = np.exp(-ch.beta_p * (1.0 + ch.gamma_sp * p_seen / p_ref) / ch.gamma_p)

    no_outage = success_probability(ch.beta_p, ch.gamma_p)
    frame = params.timing.data_fraction
    srv_s = frame * dist * su_succ * rho_s * no_outage
    srv_p = pu_direct * pi1 + dist * sp_succ * q.rho_ps * (1.0 - no_outage)
    return dist, srv_p, srv_s


def reward(state: AugmentedState, grids: MdpGrids, params: ModelParams,
           costs: CostModel) -> float:
    """Immediate reward of an augmented state.

    Expected secondary throughput of the slot (the outcome-weighted
    closed-form branch values, with the state's rho_s as the backlog
    probability and the stored previous action fixing Pd, Pf and Ic),
    minus the detection cost s*Pd and the interference cost c*Ps(1).
    """
    state.check(grids)
    s, a = grids.states, grids.actions
    pd = a.pd_levels[state.prev_pd_idx]
    ic = a.ic_levels[state.prev_ic_idx]
    _, _, srv_s = outcome_kernel(s.rho_p_levels[state.rho_p_idx],
                                 s.rho_s_levels[state.rho_s_idx],
                                 s.p_s_levels[state.p_s_idx], pd, ic, params)
    return (float(np.sum(srv_s)) - costs.s_const * pd
            - costs.c_const * constrained_power(params.power, ic))


def state_reward(mdp: SpectrumMDP, state: AugmentedState) -> float:
    """The compiled reward vector's entry at an augmented state."""
    return float(mdp.reward_vec[state.flat_index(mdp.grids)])


def evaluate_policy(mdp: SpectrumMDP, policy: PolicyTable | np.ndarray,
                    cfg: SolverConfig,
                    reward: Literal["full", "throughput"] = "full") -> ValueTable:
    """Fixed-point evaluation of a stationary policy.

    With reward="throughput" the control costs are dropped and the slot
    reward is the expected secondary throughput under the policy's action;
    this is what the operating-point sweeps report.
    """
    idx, r_pi = _policy_terms(mdp, policy, reward)
    backup = _FactoredBackup(mdp)
    values = r_pi.copy()
    residuals: list[float] = []
    converged = False
    iterations = 0
    for _ in range(cfg.max_iters):
        new_values = r_pi + cfg.discount * backup.continuation(values)[idx]
        residual = float(np.max(np.abs(new_values - values)))
        residuals.append(residual)
        values = new_values
        iterations += 1
        if residual <= cfg.epsilon:
            converged = True
            break
    return ValueTable(values=values, iterations=iterations,
                      converged=converged, residuals=residuals)


def value_iteration_dense(transitions: np.ndarray, rewards: np.ndarray,
                          cfg: SolverConfig,
                          initial: np.ndarray | None = None) -> tuple[ValueTable, np.ndarray]:
    """Plain value iteration on explicit (A, S, S) / (S, A) arrays.

    Returns the value table and the greedy action per state (first index on
    ties).  Used as the reference route against the factored solver and by
    the enumeration tests.
    """
    p = np.asarray(transitions, dtype=float)
    r = np.asarray(rewards, dtype=float)
    n_actions, n_states, _ = p.shape
    if r.shape != (n_states, n_actions):
        raise ValueError(f"rewards must have shape {(n_states, n_actions)}, got {r.shape}")

    values = r.max(axis=1) if initial is None else np.asarray(initial, dtype=float).copy()
    residuals: list[float] = []
    converged = False
    iterations = 0
    for _ in range(cfg.max_iters):
        q = r + cfg.discount * np.einsum("ast,t->sa", p, values)
        new_values = q.max(axis=1)
        residual = float(np.max(np.abs(new_values - values)))
        residuals.append(residual)
        values = new_values
        iterations += 1
        if residual <= cfg.epsilon:
            converged = True
            break
    q = r + cfg.discount * np.einsum("ast,t->sa", p, values)
    actions = q.argmax(axis=1)
    return ValueTable(values, iterations, converged, residuals), actions


def evaluate_policy_dense(transitions: np.ndarray, rewards: np.ndarray,
                          actions: np.ndarray, discount: float) -> np.ndarray:
    """Exact J_pi by solving the linear system (I - d P_pi) J = r_pi."""
    p = np.asarray(transitions, dtype=float)
    r = np.asarray(rewards, dtype=float)
    a = np.asarray(actions)
    n_states = p.shape[1]
    p_pi = p[a, np.arange(n_states), :]
    r_pi = r[np.arange(n_states), a]
    return np.linalg.solve(np.eye(n_states) - discount * p_pi, r_pi)


def materialize_dense(mdp: SpectrumMDP) -> tuple[np.ndarray, np.ndarray]:
    """Expand a (small) slot model into explicit dense arrays.

    Intended for cross-checks; the row count grows as the product of all
    five grid sizes, so keep the grids tiny.
    """
    n_states, n_actions = mdp.n_states, mdp.n_actions
    n_ic = len(mdp.grids.actions.ic_levels)
    p = np.zeros((n_actions, n_states, n_states))
    for s in range(n_states):
        state = state_from_flat(s, mdp.grids)
        for a in range(n_actions):
            action = ControlAction(a // n_ic, a % n_ic)
            row = transition(state, action, mdp.grids, mdp.params)
            for nxt, prob in zip(row.states, row.probabilities):
                p[a, s, nxt.flat_index(mdp.grids)] += prob
    return p, dense_rewards(mdp)


def dense_rewards(mdp: SpectrumMDP) -> np.ndarray:
    """The (S, A) reward array r(s, a) that the solvers back up."""
    n_states, n_actions = mdp.n_states, mdp.n_actions
    base, g_add = _base_rewards(mdp)
    r = np.broadcast_to(
        base[..., None, :],
        mdp.grids.shape[:3] + (mdp.grids.shape[3] * mdp.grids.shape[4], n_actions),
    ).reshape(n_states, n_actions)
    return r.copy() if g_add is None else r + g_add[:, None]
