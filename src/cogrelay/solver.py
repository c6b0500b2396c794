"""Discounted value iteration and policy iteration over the augmented slot model.

`_FactoredBackup` is the one production transition operator.  It exploits
the product structure of the kernel (the continuation value of a state
depends on its previous-action coordinates only through the applied action,
so one backup touches each (rho_p, rho_s, P_s) block once).  It has three
users: value iteration applies it to one value table per step,
`evaluate_policy_exact` to all S unit vectors at once to obtain P_pi, and
policy iteration to improve each policy, evaluating it with one linear
solve on the blocks (`_FactoredBackup.block_matrix`).  The tests hold the
factored route against a dense reference built from the scalar `transition`
rows (`tests/oracles.py`) and against brute-force policy enumeration on
small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .mdp import SpectrumMDP

__all__ = [
    "SolverConfig",
    "ValueTable",
    "PolicyTable",
    "LookupTable",
    "value_iteration",
    "policy_iteration",
    "evaluate_policy",
    "evaluate_policy_exact",
    "extract_lookup_table",
]

Mode = Literal["joint", "fixed_ic", "fixed_pd"]


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the fixed-point iteration."""

    epsilon: float = 1e-6
    max_iters: int = 2000
    discount: float = 0.9

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")


@dataclass
class ValueTable:
    """Converged (or best-so-far) state values and the iteration record."""

    values: np.ndarray
    iterations: int
    converged: bool
    residuals: list[float] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")


@dataclass
class PolicyTable:
    """Greedy action per state, with the action-set restriction it was built under."""

    actions: np.ndarray            # flat action index per state
    mode: Mode = "joint"
    pinned_pd_idx: int | None = None
    pinned_ic_idx: int | None = None

    def pd_idx(self, n_ic: int) -> np.ndarray:
        return self.actions // n_ic

    def ic_idx(self, n_ic: int) -> np.ndarray:
        return self.actions % n_ic


def _allowed_mask(mdp: SpectrumMDP, mode: Mode, pinned: int | None) -> np.ndarray:
    n_pd = len(mdp.grids.actions.pd_levels)
    n_ic = len(mdp.grids.actions.ic_levels)
    mask = np.ones(n_pd * n_ic, dtype=bool)
    if mode == "joint":
        if pinned is not None:
            raise ValueError("joint mode takes no pinned index")
        return mask
    if pinned is None:
        raise ValueError(f"mode {mode!r} requires a pinned grid index")
    if mode == "fixed_ic":
        if not 0 <= pinned < n_ic:
            raise ValueError(f"pinned ic index {pinned} out of range")
        mask &= (np.arange(n_pd * n_ic) % n_ic) == pinned
    elif mode == "fixed_pd":
        if not 0 <= pinned < n_pd:
            raise ValueError(f"pinned pd index {pinned} out of range")
        mask &= (np.arange(n_pd * n_ic) // n_ic) == pinned
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return mask


class _FactoredBackup:
    """Iteration-independent tensors of the factored Bellman operator.

    K[mp, ms, r, u, v, a] aggregates the outcome distribution with both
    birth-death factors for a (rho_p move, rho_s move) pair, so a backup is
    nine shifted tensor contractions against the power-averaged value table.
    """

    def __init__(self, mdp: SpectrumMDP):
        self.mdp = mdp
        n_rp, n_rs, n_ps, n_pd, n_ic = mdp.grids.shape
        self.shape = (n_rp, n_rs, n_ps, n_pd * n_ic)
        lam_p = mdp.params.queues.lambda_p
        lam_s = mdp.params.queues.lambda_s

        # outcome distribution expanded over the flat action axis: (r, A, x)
        dist = np.repeat(mdp.outcome_dist, n_ic, axis=1)

        up_p = lam_p * (1.0 - mdp.srv_p)                  # (r, v, A, x)
        dn_p = mdp.srv_p * (1.0 - lam_p)
        up_s = lam_s * (1.0 - mdp.srv_s)                  # (r, u, v, A, x)
        dn_s = mdp.srv_s * (1.0 - lam_s)

        bdp = np.empty((3,) + mdp.srv_p.shape)
        bdp[0], bdp[2] = dn_p, up_p
        bdp[0][0, ...] = 0.0
        bdp[2][n_rp - 1, ...] = 0.0
        bdp[1] = 1.0 - bdp[0] - bdp[2]

        bds = np.empty((3,) + mdp.srv_s.shape)
        bds[0], bds[2] = dn_s, up_s
        bds[0][:, 0, ...] = 0.0
        bds[2][:, n_rs - 1, ...] = 0.0
        bds[1] = 1.0 - bds[0] - bds[2]

        qbp = dist[None, :, None, :, :] * bdp             # (mp, r, v, A, x)
        self.kernel = np.einsum("mrvax,nruvax->mnruva", qbp, bds)
        self.pstat = np.array(mdp.grids.states.p_s_stationary)

    def continuation(self, values: np.ndarray) -> np.ndarray:
        """E[J(next) | r, u, v, a], shape (r, u, v, A).

        `values` is one table of shape (S,) or k tables side by side,
        shape (S, k); each column is contracted exactly as a lone table
        would be, giving shape (r, u, v, A, k).
        """
        n_rp, n_rs, n_ps, n_a = self.shape
        cols = values.shape[1:]
        j = values.reshape((n_rp, n_rs, n_ps, n_a) + cols)
        w = np.einsum("v,ruva...->rua...", self.pstat, j)
        wp = np.zeros((n_rp + 2, n_rs + 2, n_a) + cols)
        wp[1:-1, 1:-1] = w
        kernel = self.kernel.reshape(self.kernel.shape + (1,) * len(cols))
        cont = np.zeros((n_rp, n_rs, n_ps, n_a) + cols)
        for mp in range(3):
            for ms in range(3):
                shifted = wp[mp:mp + n_rp, ms:ms + n_rs]
                cont += kernel[mp, ms] * shifted[:, :, None]
        return cont

    def block_matrix(self, block_actions: np.ndarray) -> np.ndarray:
        """P(b' | b, a_b) over the blocks, shape (B, B), one action per block.

        The kernel at each block's action weights the nine (rho_p, rho_s)
        moves, and the next power level is a stationary redraw, exactly as
        `continuation` contracts them."""
        n_rp, n_rs, n_ps, n_a = self.shape
        n_blocks = n_rp * n_rs * n_ps
        blocks = np.arange(n_blocks)
        r, u, _ = np.unravel_index(blocks, (n_rp, n_rs, n_ps))
        k = self.kernel.reshape(3, 3, n_blocks, n_a)[:, :, blocks, block_actions]
        moves = np.zeros((n_blocks, n_rp + 2, n_rs + 2))
        for mp in range(3):
            for ms in range(3):
                moves[blocks, r + mp, u + ms] = k[mp, ms]
        return (moves[:, 1:-1, 1:-1, None] * self.pstat).reshape(n_blocks, n_blocks)


def _base_rewards(mdp: SpectrumMDP) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-(block, action) reward term and (for the default convention) the
    per-state throughput that is added after maximisation."""
    if mdp.reward_uses_chosen_action:
        return mdp.g_action - mdp.action_cost, None
    n_rp, n_rs, n_ps, _, _ = mdp.grids.shape
    base = np.broadcast_to(-mdp.action_cost,
                           (n_rp, n_rs, n_ps, mdp.n_actions))
    return base, mdp.g_state


def _lift(block_values: np.ndarray, g_add: np.ndarray | None, n_a: int) -> np.ndarray:
    """Per-state values V(b, prev) = W(b) + g_add(b, prev) from block values W."""
    values = np.repeat(block_values.reshape(-1), n_a)
    return values if g_add is None else values + g_add


def _policy_table(greedy: np.ndarray, n_a: int, mode: Mode,
                  pinned: int | None) -> PolicyTable:
    return PolicyTable(actions=np.repeat(greedy.reshape(-1), n_a), mode=mode,
                       pinned_pd_idx=pinned if mode == "fixed_pd" else None,
                       pinned_ic_idx=pinned if mode == "fixed_ic" else None)


def value_iteration(mdp: SpectrumMDP, cfg: SolverConfig, mode: Mode = "joint",
                    pinned: int | None = None) -> tuple[ValueTable, PolicyTable]:
    """Synchronous value iteration from the per-state reward vector.

    Stops when the sup-norm residual drops to cfg.epsilon; hitting
    cfg.max_iters first, or a non-finite residual, is reported through
    converged=False rather than an exception.  Ties in the maximisation
    resolve to the lexicographically lowest (pd index, ic index) pair.
    """
    backup = _FactoredBackup(mdp)
    mask = _allowed_mask(mdp, mode, pinned)
    base, g_add = _base_rewards(mdp)
    neg = np.where(mask, 0.0, -np.inf)
    n_a = backup.shape[-1]

    values = mdp.reward_vec.copy()
    residuals: list[float] = []
    converged = False
    iterations = 0

    for _ in range(cfg.max_iters):
        q = base + cfg.discount * backup.continuation(values) + neg
        new_values = _lift(q.max(axis=-1), g_add, n_a)
        residual = float(np.max(np.abs(new_values - values)))
        residuals.append(residual)
        values = new_values
        iterations += 1
        if not math.isfinite(residual):
            break
        if residual <= cfg.epsilon:
            converged = True
            break

    q = base + cfg.discount * backup.continuation(values) + neg
    vt = ValueTable(values=values, iterations=iterations,
                    converged=converged, residuals=residuals)
    return vt, _policy_table(q.argmax(axis=-1), n_a, mode, pinned)


def policy_iteration(mdp: SpectrumMDP, cfg: SolverConfig, mode: Mode = "joint",
                     pinned: int | None = None) -> tuple[ValueTable, PolicyTable]:
    """Howard policy iteration on the block values W(b).

    Every value table of the model has the form V(b, prev) = W(b) +
    g_add(b, prev), so a policy is one action per block and its value is
    one linear solve of size B = n_rho_p * n_rho_s * n_P_s.  Improvement is
    value iteration's greedy step, with the same lowest-index tie rule.
    The first policy is greedy with respect to the reward vector; the run
    stops when the greedy policy repeats one already evaluated.  In exact
    arithmetic every change strictly improves the values, so a repeat
    further back than the last policy only comes from rounding between
    actions that tie.  cfg.epsilon is not used; hitting cfg.max_iters
    steps first, or a non-finite residual, is reported through
    converged=False.  Each residual is the sup-norm of T V - V at the
    evaluated policy, so the last one is the distance of the returned
    values from a Bellman fixed point; the returned actions are greedy
    with respect to the returned values.
    """
    backup = _FactoredBackup(mdp)
    mask = _allowed_mask(mdp, mode, pinned)
    base, g_add = _base_rewards(mdp)
    neg = np.where(mask, 0.0, -np.inf)
    n_a = backup.shape[-1]
    d = cfg.discount

    # r_sigma(b) = base(b, sigma(b)) + d * E[g_add(next) | b, sigma(b)]
    step_reward = base if g_add is None else base + d * backup.continuation(g_add)
    step_reward = step_reward.reshape(-1, n_a)
    blocks = np.arange(step_reward.shape[0])
    lhs = np.eye(blocks.size)

    values = mdp.reward_vec.copy()
    greedy = (base + d * backup.continuation(values) + neg).argmax(axis=-1)
    evaluated: set[bytes] = set()
    residuals: list[float] = []
    converged = False
    iterations = 0

    for _ in range(cfg.max_iters):
        sigma = greedy.reshape(-1)
        evaluated.add(sigma.tobytes())
        w = np.linalg.solve(lhs - d * backup.block_matrix(sigma),
                            step_reward[blocks, sigma])
        values = _lift(w, g_add, n_a)
        q = base + d * backup.continuation(values) + neg
        residual = float(np.max(np.abs(q.max(axis=-1).reshape(-1) - w)))
        residuals.append(residual)
        iterations += 1
        greedy = q.argmax(axis=-1)
        if not math.isfinite(residual):
            break
        if greedy.tobytes() in evaluated:
            converged = True
            break

    vt = ValueTable(values=values, iterations=iterations,
                    converged=converged, residuals=residuals)
    return vt, _policy_table(greedy, n_a, mode, pinned)


def _policy_terms(mdp: SpectrumMDP, policy: PolicyTable | np.ndarray,
                  reward: Literal["full", "throughput"]
                  ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Checked (r, u, v, a) index of each state's policy action, and r_pi.

    The index gathers rows of the continuation tensor, where a negative
    action would wrap silently, so the range is checked here."""
    actions = policy.actions if isinstance(policy, PolicyTable) else np.asarray(policy)
    if actions.shape != (mdp.n_states,):
        raise ValueError(f"policy must assign an action to each of {mdp.n_states} states")
    if actions.min() < 0 or actions.max() >= mdp.n_actions:
        raise ValueError("policy contains out-of-range action indices")

    block = np.repeat(np.arange(mdp.n_states // mdp.n_actions), mdp.n_actions)
    idx = np.unravel_index(block, mdp.grids.shape[:3]) + (actions,)
    if reward == "throughput":
        return idx, mdp.g_action[idx]
    if reward != "full":
        raise ValueError(f"unknown reward selector {reward!r}")
    base, g_add = _base_rewards(mdp)
    return idx, base[idx] if g_add is None else base[idx] + g_add


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


@dataclass
class LookupTable:
    """One row per augmented state: levels, greedy action levels, value."""

    columns: tuple[str, ...]
    rows: np.ndarray               # (n_states, len(columns)) float array

    def row_for(self, flat_index: int) -> np.ndarray:
        return self.rows[flat_index]


LOOKUP_COLUMNS = ("rho_p", "rho_s", "p_s", "prev_pd", "prev_ic",
                  "opt_pd", "opt_ic", "value")


def extract_lookup_table(mdp: SpectrumMDP, value_table: ValueTable,
                         policy_table: PolicyTable) -> LookupTable:
    """Flatten values and greedy actions into a per-state operating table."""
    grids = mdp.grids
    n_states = mdp.n_states
    n_ic = len(grids.actions.ic_levels)
    sg, ag = grids.states, grids.actions

    flat = np.arange(n_states)
    rem, ic_i = np.divmod(flat, n_ic)
    rem, pd_i = np.divmod(rem, len(ag.pd_levels))
    rem, ps_i = np.divmod(rem, len(sg.p_s_levels))
    rp_i, rs_i = np.divmod(rem, len(sg.rho_s_levels))

    pd_opt = policy_table.pd_idx(n_ic)
    ic_opt = policy_table.ic_idx(n_ic)

    rows = np.column_stack([
        np.array(sg.rho_p_levels)[rp_i],
        np.array(sg.rho_s_levels)[rs_i],
        np.array(sg.p_s_levels)[ps_i],
        np.array(ag.pd_levels)[pd_i],
        np.array(ag.ic_levels)[ic_i],
        np.array(ag.pd_levels)[pd_opt],
        np.array(ag.ic_levels)[ic_opt],
        value_table.values,
    ])
    return LookupTable(columns=LOOKUP_COLUMNS, rows=rows)


def evaluate_policy_exact(mdp: SpectrumMDP, policy: PolicyTable | np.ndarray,
                          discount: float,
                          reward: Literal["full", "throughput"] = "full") -> np.ndarray:
    """Exact J_pi via a linear solve instead of fixed-point iteration.

    P_pi is the factored backup applied to the S unit vectors at once, so
    this materialises S x S matrices and is only for small grids (the
    operating-point sweeps pin a single action, which keeps S at a few
    hundred).  The payoff is that J carries no iteration-tail error, which
    matters when comparing sweep points that differ by less than a
    value-iteration tolerance.
    """
    idx, r_pi = _policy_terms(mdp, policy, reward)
    n_states = mdp.n_states
    p_pi = _FactoredBackup(mdp).continuation(np.eye(n_states))[idx]
    return np.linalg.solve(np.eye(n_states) - discount * p_pi, r_pi)
