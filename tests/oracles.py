"""Dense reference routes for the factored solver.

These work on explicit (A, S, S) transition and (S, A) reward arrays, which
`materialize_dense` builds from the scalar `transition` rows, so they share
no transition operator with `cogrelay.solver`.  `tests/conftest.py` wraps
`value_iteration_dense` with the suite-wide contraction check.
"""

from __future__ import annotations

import numpy as np

from cogrelay.mdp import ControlAction, SpectrumMDP, state_from_flat
from cogrelay.solver import SolverConfig, ValueTable, _base_rewards


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
    r = np.empty((n_states, n_actions))
    base, g_add = _base_rewards(mdp)
    base_flat = np.broadcast_to(
        base[..., None, :],
        mdp.grids.shape[:3] + (mdp.grids.shape[3] * mdp.grids.shape[4], n_actions),
    ).reshape(n_states, n_actions)
    r[:] = base_flat
    if g_add is not None:
        r += g_add[:, None]
    for s in range(n_states):
        state = state_from_flat(s, mdp.grids)
        for a in range(n_actions):
            action = ControlAction(a // n_ic, a % n_ic)
            row = mdp.transition_row(state, action)
            for nxt, prob in zip(row.states, row.probabilities):
                p[a, s, nxt.flat_index(mdp.grids)] += prob
    return p, r
