"""Discounted value iteration and policy iteration over the augmented slot model.

The model's kernel K[mp, ms, r, u, v, a] is its whole transition law, up to
the stationary power redraw, and the solvers read it only through
`_continuation`, which contracts it with a value table; as the continuation
value of a state depends on its previous-action coordinates only through
the applied action, one backup touches each (rho_p, rho_s, P_s) block once.
`_BlockBellman` builds the Bellman operator over the blocks, so value
iteration, policy iteration and `evaluate_policy_exact` all work on the B
block values W(b) and lift to the S states once, at the end.  A policy is
one action per block, as the greedy action never depends on the previous
one, and its values follow from one banded solve on the (rho_p, rho_s) cells.

A mode's actions are an ascending index set of flat action columns (all
231 at the defaults, one pd level's 21 or one ic level's 11), and the
backups contract the kernel and step-reward slices of those columns only.
Value iteration shrinks the set as it goes: every 25 sweeps it drops each
column that MacQueen's suboptimal-action test, with Porteus's bounds on
V* from the last two iterates and a span-seminorm margin for every later
iterate, rules out at every block (`_may_still_win` states the test and
its rounding slack).  A dropped column can never reach or tie a
later maximum and each Q entry is the same elementwise arithmetic whatever
other columns are present, so values, residuals and actions are the same
floats as with all columns.  Policy iteration and `evaluate_policy_exact`
back up all the columns.

The tests hold this route against the references in `tests/oracles.py`
(full-column and per-state value iteration, the B x B evaluation solve and
a dense model built from the scalar `transition` rows), against brute-force
policy enumeration on small instances, and the kernel itself against a
scalar statement of the slot physics.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .mdp import SpectrumMDP

__all__ = [
    "SolverConfig",
    "ValueTable",
    "PolicyTable",
    "value_iteration",
    "policy_iteration",
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
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError(f"discount must lie in [0, 1), got {self.discount}")


@dataclass
class ValueTable:
    """Converged (or best-so-far) state values and the residual of each iteration.

    active_actions is the number of action columns the solver still backed
    up when it stopped; the reference routes in the tests leave it None."""

    values: np.ndarray
    converged: bool
    residuals: list[float]
    active_actions: int | None = None

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")


@dataclass
class PolicyTable:
    """Greedy flat action index (pd index * n_ic + ic index) per
    (rho_p, rho_s, P_s) block, shape (B,)."""

    actions: np.ndarray


def _allowed_columns(mdp: SpectrumMDP, mode: Mode, pinned: int | None) -> np.ndarray:
    """The flat action columns (pd index * n_ic + ic index) a mode may use, ascending."""
    n_pd = len(mdp.grids.actions.pd_levels)
    n_ic = len(mdp.grids.actions.ic_levels)
    if mode == "joint":
        if pinned is not None:
            raise ValueError("joint mode takes no pinned index")
        return np.arange(n_pd * n_ic)
    if pinned is None:
        raise ValueError(f"mode {mode!r} requires a pinned grid index")
    if mode == "fixed_ic":
        if not 0 <= pinned < n_ic:
            raise ValueError(f"pinned ic index {pinned} out of range")
        return np.arange(pinned, n_pd * n_ic, n_ic)
    if mode == "fixed_pd":
        if not 0 <= pinned < n_pd:
            raise ValueError(f"pinned pd index {pinned} out of range")
        return np.arange(pinned * n_ic, (pinned + 1) * n_ic)
    raise ValueError(f"unknown mode {mode!r}")


def _continuation(mdp: SpectrumMDP, values: np.ndarray,
                  kernel: np.ndarray | None = None) -> np.ndarray:
    """E[J(next) | r, u, v, a], shape (r, u, v, A): nine shifted tensor
    contractions of the kernel against the power-averaged value table.

    `values` is a per-state table, shape (S,), or a block table W(b),
    shape (B,), which stands for the per-state table that repeats W(b)
    over the previous-action coordinates.  Given `kernel`, a contiguous
    copy of some action columns of `mdp.kernel`, a block table backs up
    over those columns only, and each entry is the same nine multiply-adds
    as with the full kernel.  Power averages w(rho_p, rho_s) side by side,
    shape (n_rho_p, n_rho_s, m), back up the i-th against kernel column i.
    """
    kernel = mdp.kernel if kernel is None else kernel
    n_rp, n_rs, n_ps = mdp.grids.shape[:3]
    if values.ndim == 1:
        per_state = values.size == mdp.n_states
        j = values.reshape(n_rp, n_rs, n_ps, mdp.n_actions if per_state else 1)
        values = np.einsum("v,ruva->rua", np.array(mdp.grids.states.p_s_stationary), j)
    wp = np.zeros((n_rp + 2, n_rs + 2, values.shape[-1]))
    wp[1:-1, 1:-1] = values
    cont = np.zeros(kernel.shape[2:])
    for mp, ms in np.ndindex(3, 3):
        shifted = wp[mp:mp + n_rp, ms:ms + n_rs]
        cont += kernel[mp, ms] * shifted[:, :, None]
    return cont


def _solve_banded(a: np.ndarray, b: np.ndarray, band: int) -> np.ndarray:
    """x with a x = b, for a strictly diagonally dominant `a` whose entries lie
    within `band` of the diagonal: in-place Gaussian elimination without
    pivoting, kept to the band, and back substitution by elementwise products."""
    n = b.size
    for k in range(n):
        below = slice(k + 1, min(k + band + 1, n))
        f = a[below, k] / a[k, k]
        a[below, below] -= f[:, None] * a[k, below]
        b[below] -= f * b[k]
    for k in reversed(range(n)):
        right = slice(k + 1, min(k + band + 1, n))
        b[k] = (b[k] - np.sum(a[k, right] * b[right])) / a[k, k]
    return b


def _base_rewards(mdp: SpectrumMDP) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-(block, action) reward term and (for the default convention) the
    per-state throughput that is added after maximisation."""
    if mdp.reward_uses_chosen_action:
        return mdp.g_action - mdp.action_cost, None
    n_rp, n_rs, n_ps, _, _ = mdp.grids.shape
    base = np.broadcast_to(-mdp.action_cost,
                           (n_rp, n_rs, n_ps, mdp.n_actions))
    return base, mdp.g_action.reshape(-1)


def _lift(block_values: np.ndarray, g_add: np.ndarray | None, n_a: int) -> np.ndarray:
    """Per-state values V(b, prev) = W(b) + g_add(b, prev) from block values W."""
    values = np.repeat(block_values.reshape(-1), n_a)
    return values if g_add is None else values + g_add


class _BlockBellman:
    """The Bellman operator of one model on block tables W(b).

    Every value table the solvers produce has the form V(b, prev) = W(b) +
    g_add(b, prev), so E[V(next) | b, a] = E[W(next) | b, a] +
    E[g_add(next) | b, a], and the second term, with the reward, is one
    step reward fixed for the whole solve.  `q` backs up a block table,
    `q_state` a per-state one (the reward vector both solvers start from
    has no block form), and `evaluate` solves for the block values of one
    action per block.  Both backups cover the ascending action `columns`
    only, and `greedy` maps a column of their result back to its flat
    action index.
    """

    def __init__(self, mdp: SpectrumMDP, discount: float, columns: np.ndarray):
        self.mdp = mdp
        self.base, self.g_add = _base_rewards(mdp)
        self.discount = discount
        self.n_a = mdp.n_actions
        # r(b, a) + d * E[g_add(next) | b, a]
        self.step_reward = (self.base if self.g_add is None else
                            self.base + discount * _continuation(mdp, self.g_add))
        self.restrict(columns)

    def restrict(self, columns: np.ndarray) -> None:
        """Back up only `columns` from here on.  All columns read the full
        tensors; a subset reads contiguous copies of its slices, made here."""
        self.columns = columns
        if columns.size == self.n_a:
            self._kernel, self._step_reward = self.mdp.kernel, self.step_reward
        else:
            self._kernel = np.ascontiguousarray(self.mdp.kernel[..., columns])
            self._step_reward = np.ascontiguousarray(self.step_reward[..., columns])

    def q(self, block_values: np.ndarray) -> np.ndarray:
        """Q(b, a) of a block table over the columns, shape (B, len(columns))."""
        cont = _continuation(self.mdp, block_values, self._kernel)
        return (self._step_reward + self.discount * cont).reshape(-1, self.columns.size)

    def q_state(self, values: np.ndarray) -> np.ndarray:
        """Q(b, a) of a per-state table over the columns, shape (B, len(columns)).

        A per-state table backs up over all actions, since its next-state
        values depend on the action taken; the solvers call this once."""
        q = self.base + self.discount * _continuation(self.mdp, values)
        return q[..., self.columns].reshape(-1, self.columns.size)

    def greedy(self, q: np.ndarray) -> np.ndarray:
        """Flat action index of each block's maximising column, the lowest on ties."""
        return self.columns[q.argmax(axis=-1)]

    def evaluate(self, block_actions: np.ndarray) -> np.ndarray:
        """W_sigma of one action per block.  The next power level is a
        stationary redraw, so W_sigma = r_sigma + d E[w(next)], where w, the
        pstat average of W_sigma, solves (I - d M) w = r_bar on the (rho_p,
        rho_s) cells, M and r_bar averaging the policy's kernel and reward
        over pstat.  M's rows are stochastic, so I - d M is strictly
        diagonally dominant by rows and needs no pivoting."""
        n_rp, n_rs, n_ps = self.mdp.grids.shape[:3]
        n = n_rp * n_rs
        sigma = block_actions.reshape(n_rp, n_rs, n_ps, 1)
        k = np.take_along_axis(self.mdp.kernel, sigma[None, None], axis=-1)
        r_sigma = np.take_along_axis(self.step_reward, sigma, axis=-1)
        pstat = np.array(self.mdp.grids.states.p_s_stationary)[:, None]
        k_bar = (pstat * k).sum(axis=4, keepdims=True)
        # column c of M backs up cell c's indicator; in C order, M's band is n_rho_s + 1
        m = _continuation(self.mdp, np.eye(n).reshape(n_rp, n_rs, n),
                          np.broadcast_to(k_bar, k_bar.shape[:-1] + (n,)))
        a = np.eye(n) - self.discount * m.reshape(n, n)
        w_bar = _solve_banded(a, (pstat * r_sigma).sum(axis=2).reshape(n), n_rs + 1)
        cont = _continuation(self.mdp, w_bar.reshape(n_rp, n_rs, 1), k)
        return (r_sigma + self.discount * cont).reshape(-1)

    def lift(self, block_values: np.ndarray) -> np.ndarray:
        return _lift(block_values, self.g_add, self.n_a)


# value iteration tests the backed-up columns for elimination every this many sweeps
_ELIMINATION_PERIOD = 25


def _may_still_win(q: np.ndarray, new_w: np.ndarray, step: np.ndarray,
                   discount: float, reward_bound: float) -> np.ndarray:
    """Mask of the columns of q = Q(W_k) that MacQueen's test does not rule out.

    `step` is W_k - W_{k-1} and new_w = max_a q.  Porteus's bounds
    W_k + c_lo <= V* <= W_k + c_hi, with c_lo = d/(1-d) min(step) and
    c_hi = d/(1-d) max(step), give sp(V* - W_k) <= span = c_hi - c_lo, where
    sp(x) = max x - min x.  The Bellman operator contracts sp with modulus
    d, so every later iterate has sp(W_j - V*) <= span and
    sp(W_j - W_k) <= 2*span.  A stochastic row pair has
    (P_a - P_a') x <= sp(x), so Q(W_j)(b, a) - Q(W_j)(b, a') exceeds
    q(b, a) - q(b, a') by at most 2*d*span, and Q(V*) by at most d*span.
    A column is dropped only if q(b, a) + 2*d*span + slack < max_a' q(b, a')
    at every block b: it can then never reach or tie any later maximum, nor
    the limit's, so the maxima and their lowest-index argmax stay the same
    floats.  Unlike a sup-norm margin, this one ignores the constant shift
    of the early iterates.

    slack = 2^-40 * (max|r| + d max|W|) / (1 - d) covers rounding.  One Q
    entry is r plus d times about n_ps + 9 products of W entries with
    probabilities, so it is off by at most about (n_ps + 12) * 2^-53 of
    max|r| + d max|W|; the computed iterates inherit that error over
    1 / (1 - d) sweeps, on both sides of the test.  2^-40 is 2^13 such
    roundings, a wide margin at any grid these models use.
    """
    d = discount
    span = d / (1.0 - d) * float(np.max(step) - np.min(step))     # c_hi - c_lo
    slack = 2.0**-40 * (reward_bound + d * float(np.max(np.abs(new_w)))) / (1.0 - d)
    return np.any(q + (2.0 * d * span + slack) >= new_w[:, None], axis=0)


def value_iteration(mdp: SpectrumMDP, cfg: SolverConfig, mode: Mode = "joint",
                    pinned: int | None = None) -> tuple[ValueTable, PolicyTable]:
    """Synchronous value iteration from the per-state reward vector.

    After the first backup every iterate is a block table W, and its
    residual sup |W_{k+1} - W_k| equals that of the lifted tables because
    g_add cancels; the values are lifted once, at the end.  Every
    `_ELIMINATION_PERIOD` sweeps the columns that `_may_still_win` rules
    out at every block stop being backed up, which leaves every float of
    the result as it would be with all the mode's columns.  Stops when the
    sup-norm residual drops to cfg.epsilon; hitting cfg.max_iters first, or
    a non-finite residual, is reported through converged=False rather than
    an exception.  Ties in the maximisation resolve to the
    lexicographically lowest (pd index, ic index) pair.
    """
    bellman = _BlockBellman(mdp, cfg.discount, _allowed_columns(mdp, mode, pinned))
    reward_bound = float(np.max(np.abs(bellman.step_reward[..., bellman.columns])))
    w = bellman.q_state(mdp.reward_vec).max(axis=-1)
    residuals = [float(np.max(np.abs(bellman.lift(w) - mdp.reward_vec)))]
    # the first test comes after several sweeps, so w - prev is then the
    # step between two block iterates
    prev = w
    while (len(residuals) < cfg.max_iters and math.isfinite(residuals[-1])
           and residuals[-1] > cfg.epsilon):
        q = bellman.q(w)
        new_w = q.max(axis=-1)
        residuals.append(float(np.max(np.abs(new_w - w))))
        if len(residuals) % _ELIMINATION_PERIOD == 0 and math.isfinite(residuals[-1]):
            keep = _may_still_win(q, new_w, w - prev, cfg.discount, reward_bound)
            bellman.restrict(bellman.columns[keep])
        prev, w = w, new_w

    vt = ValueTable(values=bellman.lift(w), converged=residuals[-1] <= cfg.epsilon,
                    residuals=residuals, active_actions=bellman.columns.size)
    return vt, PolicyTable(bellman.greedy(bellman.q(w)))


def policy_iteration(mdp: SpectrumMDP, cfg: SolverConfig) -> tuple[ValueTable, PolicyTable]:
    """Howard policy iteration on the block values W(b), over all actions.

    Each step evaluates the policy exactly (`_BlockBellman.evaluate`) and
    improves it by value iteration's greedy step, with the same lowest-index
    tie rule.  The first policy is greedy with respect to the reward vector;
    the run stops when the greedy policy repeats one already evaluated.  In
    exact arithmetic every change strictly improves the values, so a repeat
    further back than the last policy only comes from rounding between
    actions that tie.  cfg.epsilon is not used; hitting cfg.max_iters steps
    first, or a non-finite residual, is reported through converged=False.
    Each residual is the sup-norm of T V - V at the evaluated policy, so the
    last one is the distance of the returned values from a Bellman fixed
    point; the returned actions are greedy with respect to them.
    """
    bellman = _BlockBellman(mdp, cfg.discount, np.arange(mdp.n_actions))
    greedy = bellman.greedy(bellman.q_state(mdp.reward_vec))
    evaluated: set[bytes] = set()
    residuals: list[float] = []
    converged = False

    for _ in range(cfg.max_iters):
        evaluated.add(greedy.tobytes())
        w = bellman.evaluate(greedy)
        q = bellman.q(w)
        residuals.append(float(np.max(np.abs(q.max(axis=-1) - w))))
        greedy = bellman.greedy(q)
        if not math.isfinite(residuals[-1]):
            break
        if greedy.tobytes() in evaluated:
            converged = True
            break

    vt = ValueTable(values=bellman.lift(w), converged=converged, residuals=residuals,
                    active_actions=bellman.columns.size)
    return vt, PolicyTable(greedy)


LOOKUP_COLUMNS = ("rho_p", "rho_s", "p_s", "prev_pd", "prev_ic",
                  "opt_pd", "opt_ic", "value")


def extract_lookup_table(mdp: SpectrumMDP, value_table: ValueTable,
                         policy_table: PolicyTable) -> np.ndarray:
    """The (S, 8) per-state operating table, columns in LOOKUP_COLUMNS order.

    Each block's greedy action is repeated over its previous-action states."""
    sg, ag = mdp.grids.states, mdp.grids.actions
    shape = mdp.grids.shape
    rp_i, rs_i, ps_i, pd_i, ic_i = np.unravel_index(np.arange(mdp.n_states), shape)
    pd_opt, ic_opt = np.unravel_index(np.repeat(policy_table.actions, mdp.n_actions),
                                      shape[3:])

    return np.column_stack([
        np.array(sg.rho_p_levels)[rp_i],
        np.array(sg.rho_s_levels)[rs_i],
        np.array(sg.p_s_levels)[ps_i],
        np.array(ag.pd_levels)[pd_i],
        np.array(ag.ic_levels)[ic_i],
        np.array(ag.pd_levels)[pd_opt],
        np.array(ag.ic_levels)[ic_opt],
        value_table.values,
    ])


def evaluate_policy_exact(mdp: SpectrumMDP, block_actions: np.ndarray,
                          discount: float) -> np.ndarray:
    """Exact per-state J of one action per (rho_p, rho_s, P_s) block, under
    the model's own reward.

    Every policy the solvers make is constant on a block, so J is one banded
    solve on the (rho_p, rho_s) cells, lifted to the S states at the end.
    J carries no iteration-tail error, which matters when comparing sweep
    points that differ by less than a value-iteration tolerance.  The
    throughput of the held action alone is the J of the model built with
    zero costs and reward_uses_chosen_action=True.
    """
    actions = np.asarray(block_actions)
    n_blocks = mdp.n_states // mdp.n_actions
    if actions.shape != (n_blocks,):
        raise ValueError(f"policy must assign an action to each of {n_blocks} blocks")
    # evaluate gathers kernel columns, where a negative index would wrap
    if actions.min() < 0 or actions.max() >= mdp.n_actions:
        raise ValueError("policy contains out-of-range action indices")
    bellman = _BlockBellman(mdp, discount, np.arange(mdp.n_actions))
    return bellman.lift(bellman.evaluate(actions))
