"""Discounted value iteration and policy iteration over the augmented slot model.

The model's kernel K[mp, ms, r, u, v, a] is its whole transition law, up to
the stationary power redraw, and the solvers read it only through
`_continuation`, which contracts it with a value table's power averages in
one einsum over the nine shifted (mp, ms) windows.  It adds the moves into
each entry in move order, rounding each product and each sum apart (numpy's
einsum kernels use no fused multiply-add), so the floats are those of nine
`cont += k * w` passes, without their nine temporaries.  As the
continuation value of a state depends on its previous-action coordinates
only through the applied action, one backup touches each (rho_p, rho_s,
P_s) block once.  `_BlockBellman` builds the Bellman operator over the
blocks, so value iteration, policy iteration and `evaluate_policy_exact`
all work on and return the B block values W(b).  A policy is one action
per block, as the greedy action never depends on the previous one, and its
values follow from one banded solve on the (rho_p, rho_s) cells.  Exact
evaluation takes a stack of policies, shape (P, B), and solves their P
systems in one Gaussian elimination over band storage, shape (P, cells,
2 n_rho_s + 3), each to the floats it gets alone; policy iteration passes
a stack of one, shape (B,).  Only `extract_lookup_table` lifts to the S
states.

A mode's actions are an ascending index set of flat action columns (all
231 at the defaults, one pd level's 21 or one ic level's 11), and the
operator holds the kernel and step-reward slices of those columns only.
Value iteration shrinks the set as it goes: every 25 sweeps it drops each
column that MacQueen's suboptimal-action test, with Porteus's bounds on
V* from the last two iterates and a span-seminorm margin for every later
iterate, rules out at every block (`_may_still_win` states the test and
its rounding slack).  A dropped column can never reach or tie a
later maximum and each Q entry is the same elementwise arithmetic whatever
other columns are present, so values, residuals and actions are the same
floats as with all columns.  Policy iteration and `evaluate_policy_exact`
work on all the columns.

The tests hold this route against the references in `tests/oracles.py`
(the nine-pass continuation, full-column and per-state value iteration,
the B x B evaluation solve, the one-policy dense-matrix evaluation the
stacked solve replaced, and a dense model built from the scalar
`transition` rows), against brute-force
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
    """Converged (or best-so-far) values and the residual of each iteration.

    The solvers' values are the block values W(b), shape (B,).
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


def _power_average(mdp: SpectrumMDP, table: np.ndarray) -> np.ndarray:
    """sum_v pstat(v) J(rho_p, rho_s, v, ...) of a per-state table, shape
    (S,), or a block table, shape (B,): shape (n_rho_p, n_rho_s, A) or
    (n_rho_p, n_rho_s, 1)."""
    j = table.reshape(*mdp.grids.shape[:3], -1)
    return np.einsum("v,ruva->rua", np.array(mdp.grids.states.p_s_stationary), j)


def _continuation(mdp: SpectrumMDP, w: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """E[J(next) | r, u, v, a] over the action columns of `kernel`, shape
    (r, u, v, m): one contraction of `kernel`, m action columns of
    `mdp.kernel`, against the nine shifted windows of power averages of J.

    w(rho_p, rho_s), shape (n_rho_p, n_rho_s, 1), backs up against every
    column; power averages side by side, shape (n_rho_p, n_rho_s, m), back
    up the i-th against column i.  einsum runs the move axis as its outer
    loop and adds one product a move into each entry, a multiply and an add
    rounded apart, since numpy's einsum kernels use no fused multiply-add;
    so each entry is rounded as nine `cont += k * w` passes round it,
    whatever the other columns are.
    """
    n_rp, n_rs = mdp.grids.shape[:2]
    wp = np.zeros((n_rp + 2, n_rs + 2, w.shape[-1]))
    wp[1:-1, 1:-1] = w
    shifted = np.array([wp[mp:mp + n_rp, ms:ms + n_rs] for mp, ms in np.ndindex(3, 3)])
    return np.einsum("mruva,mrua->ruva", kernel.reshape(9, *kernel.shape[2:]), shifted)


def _solve_banded(bands: np.ndarray, b: np.ndarray, band: int) -> np.ndarray:
    """x with a x = b for each of a stack of strictly diagonally dominant
    matrices a whose entries lie within `band` of the diagonal.

    bands, shape (P, n, 2 band + 1), holds a[p, i, j] at bands[p, i, band +
    j - i], and b has shape (P, n); the slots of a row that fall before
    column 0 or past column n - 1 are never read.  In-place Gaussian
    elimination without pivoting, kept to the band, runs on all P systems at
    once, and back substitution sums each row's products along its last,
    contiguous axis, so each system gets the floats of solving it alone."""
    n_sys, n, _ = bands.shape
    s_sys, s_row, s_slot = bands.strides
    # a[p, i, j] read in place: column j of row i sits (j - i) slots from the
    # diagonal of row i.  Off the band the view aliases other slots, and the
    # loops only touch |i - j| <= band
    a = np.lib.stride_tricks.as_strided(bands[:, :, band:], shape=(n_sys, n, n),
                                        strides=(s_sys, s_row - s_slot, s_slot))
    # the elimination works on (i, j, p) and (i, p) views, which index the
    # way a single system does and update the blocks in place
    at, bt = a.transpose(1, 2, 0), b.T
    for k in range(n):
        below = slice(k + 1, min(k + band + 1, n))
        f = at[below, k] / at[k, k]
        block = at[below, below]
        block -= f[:, None] * at[k, below]
        rest = bt[below]
        rest -= f * bt[k]
    for k in reversed(range(n)):
        right = slice(k + 1, min(k + band + 1, n))
        bt[k] = (bt[k] - np.add.reduce(a[:, k, right] * b[:, right], axis=-1)) / at[k, k]
    return b


def _base_rewards(mdp: SpectrumMDP) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-(block, action) reward term and (for the default convention) the
    per-state throughput that is added after maximisation.  Under the default
    convention the first term is the negated action costs, shape (A,)."""
    if mdp.reward_uses_chosen_action:
        return mdp.g_action - mdp.action_cost, None
    return -mdp.action_cost, mdp.g_action.reshape(-1)


def _lift(block_values: np.ndarray, g_add: np.ndarray | None, n_a: int) -> np.ndarray:
    """Per-state values V(b, prev) = W(b) + g_add(b, prev) from block values W."""
    values = np.repeat(block_values.reshape(-1), n_a)
    return values if g_add is None else values + g_add


class _BlockBellman:
    """The Bellman operator of one model on block tables W(b), over the
    ascending action `columns`.

    Every value table the solvers produce has the form V(b, prev) = W(b) +
    g_add(b, prev), so E[V(next) | b, a] = E[W(next) | b, a] +
    E[g_add(next) | b, a], and the second term, with the reward, is one
    step reward fixed for the whole solve.  The operator holds the kernel
    and that step reward on its columns only.  `q` backs up a block table,
    `q_state` a per-state one (the reward vector both solvers start from
    has no block form), and `evaluate`, on all the model's columns, solves
    for the block values of one flat action per block.  `greedy` maps a
    column of a backup to its flat action index.
    """

    def __init__(self, mdp: SpectrumMDP, discount: float, columns: np.ndarray):
        self.mdp = mdp
        self.discount = discount
        self.columns = columns
        base, self.g_add = _base_rewards(mdp)
        # all columns share the model's kernel; a subset reads a contiguous copy
        self.kernel = (mdp.kernel if columns.size == mdp.n_actions
                       else np.ascontiguousarray(mdp.kernel[..., columns]))
        # r(b, a) + d * E[g_add(next) | b, a], the Q table of g_add
        self.step_reward = (np.ascontiguousarray(base[..., columns]) if self.g_add is None
                            else self.q_state(self.g_add).reshape(self.kernel.shape[2:]))

    def restrict(self, keep: np.ndarray) -> None:
        """Back up only the columns that the mask `keep` marks from here on."""
        if keep.all():
            return
        self.columns = self.columns[keep]
        self.kernel = np.ascontiguousarray(self.kernel[..., keep])
        self.step_reward = np.ascontiguousarray(self.step_reward[..., keep])

    def q(self, block_values: np.ndarray) -> np.ndarray:
        """Q(b, a) of a block table over the columns, shape (B, len(columns))."""
        cont = _continuation(self.mdp, _power_average(self.mdp, block_values), self.kernel)
        cont *= self.discount
        cont += self.step_reward
        return cont.reshape(-1, self.columns.size)

    def q_state(self, values: np.ndarray) -> np.ndarray:
        """Q(b, a) of a per-state table over the columns, shape (B, len(columns)).

        A per-state table has no block form, since its next-state values
        depend on the action taken.  Its power average runs over all columns
        before the selection: on one column, einsum rounds differently."""
        w = _power_average(self.mdp, values)[..., self.columns]
        cont = _continuation(self.mdp, w, self.kernel)
        cont *= self.discount
        cont += _base_rewards(self.mdp)[0][..., self.columns]
        return cont.reshape(-1, self.columns.size)

    def greedy(self, q: np.ndarray) -> np.ndarray:
        """Flat action index of each block's maximising column, the lowest on ties."""
        return self.columns[q.argmax(axis=-1)]

    def evaluate(self, block_actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """W_sigma and the relative residual (`_relative_residual`) of each
        policy of a stack, one flat action per block, on an operator over all
        the model's columns: (P, B) gives (P, B) and (P,), (B,) gives (B,) and ().

        The next power level is a stationary redraw, so W_sigma = r_sigma +
        d E[w(next)], where w, the pstat average of W_sigma, solves
        (I - d M) w = r_bar on the (rho_p, rho_s) cells, M and r_bar
        averaging the policy's kernel and reward over pstat.  M's rows are
        stochastic, so I - d M is strictly diagonally dominant by rows and
        needs no pivoting; it is banded (`_cell_bands`), and one elimination
        solves the whole stack.
        """
        n_rp, n_rs, n_ps = self.mdp.grids.shape[:3]
        shape = np.shape(block_actions)
        sigma = np.reshape(block_actions, (-1, n_rp, n_rs, n_ps))
        n_pol = sigma.shape[0]
        # one gather of every move, shape (9, P, r, u, v), in C order with the
        # power axis last, so each pstat average sums one contiguous row as
        # for a policy alone (numpy sums a longer row pairwise); one move at
        # a time keeps the temporaries small
        rp, rs, ps = np.ogrid[:n_rp, :n_rs, :n_ps]
        k = self.kernel.reshape(9, n_rp, n_rs, n_ps, -1)[
            np.arange(9)[:, None, None, None, None], rp, rs, ps, sigma]
        pstat = np.array(self.mdp.grids.states.p_s_stationary)
        k_bar = np.array([(pstat * move).sum(axis=-1) for move in k])
        k_bar = k_bar.reshape(3, 3, n_pol, n_rp, n_rs)
        r_sigma = self.step_reward[rp, rs, ps, sigma]
        r_bar = (pstat * r_sigma).sum(axis=-1).reshape(n_pol, n_rp * n_rs)
        w_bar = _solve_banded(_cell_bands(k_bar, self.discount), r_bar.copy(), n_rs + 1)
        # the stack's power averages and kernels side by side, one column each
        w_cells = w_bar.reshape(n_pol, n_rp, n_rs).transpose(1, 2, 0)
        cont = _continuation(self.mdp, w_cells,
                             k.reshape(3, 3, *sigma.shape).transpose(0, 1, 3, 4, 5, 2))
        values = (r_sigma.transpose(1, 2, 3, 0) + self.discount * cont).reshape(-1, n_pol)
        residual = _relative_residual(self.mdp, w_cells, k_bar, r_bar, self.discount)
        return np.ascontiguousarray(values.T).reshape(shape), residual.reshape(shape[:-1])


def _cell_bands(k_bar: np.ndarray, discount: float) -> np.ndarray:
    """I - d M of each policy of a stack, in `_solve_banded`'s storage.

    k_bar[mp, ms, p, r, u] is the probability that cell (r, u) moves
    (mp - 1, ms - 1) levels under policy p.  Cell c's row of M holds it at
    the cells c + (mp - 1) n_rho_s + ms - 1 that stay on the grid, so I - d M
    has a band of n_rho_s + 1; its entries are rounded as np.eye(n) - d * M
    rounds them.  Shape (P, n_rho_p n_rho_s, 2 n_rho_s + 3)."""
    _, _, n_pol, n_rp, n_rs = k_bar.shape
    band = n_rs + 1
    bands = np.zeros((n_pol, n_rp, n_rs, 2 * band + 1))
    bands[..., band] = 1.0
    for mp, ms in np.ndindex(3, 3):
        # the cells whose move stays on the grid
        rows = slice(max(0, 1 - mp), n_rp - max(0, mp - 1))
        cols = slice(max(0, 1 - ms), n_rs - max(0, ms - 1))
        bands[:, rows, cols, band + (mp - 1) * n_rs + ms - 1] -= (
            discount * k_bar[mp, ms, :, rows, cols])
    return bands.reshape(n_pol, n_rp * n_rs, -1)


def _relative_residual(mdp: SpectrumMDP, w_cells: np.ndarray, k_bar: np.ndarray,
                       r_bar: np.ndarray, discount: float) -> np.ndarray:
    """||(I - d M) w - r_bar||_inf / ||r_bar||_inf of each policy of a stack,
    shape (P,), for w_cells shaped (n_rho_p, n_rho_s, P), k_bar as
    `_cell_bands` takes it and r_bar shaped (P, cells).  M w is backed up
    from k_bar by `_continuation`, apart from the bands the solve used, so a
    misplaced band entry shows here too.  A zero r_bar has w = 0, and its
    residual is the absolute one."""
    m_w = _continuation(mdp, w_cells, k_bar.transpose(0, 1, 3, 4, 2)[..., None, :])[:, :, 0]
    error = (w_cells - discount * m_w).transpose(2, 0, 1).reshape(r_bar.shape) - r_bar
    scale = np.max(np.abs(r_bar), axis=-1)
    return np.max(np.abs(error), axis=-1) / np.where(scale > 0.0, scale, 1.0)


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
    g_add cancels; the values returned are W, shape (B,).  Every
    `_ELIMINATION_PERIOD` sweeps the columns that `_may_still_win` rules
    out at every block stop being backed up, which leaves every float of
    the result as it would be with all the mode's columns.  Stops when the
    sup-norm residual drops to cfg.epsilon; hitting cfg.max_iters first, or
    a non-finite residual, is reported through converged=False rather than
    an exception.  Ties in the maximisation resolve to the
    lexicographically lowest (pd index, ic index) pair.
    """
    bellman = _BlockBellman(mdp, cfg.discount, _allowed_columns(mdp, mode, pinned))
    reward_bound = float(np.max(np.abs(bellman.step_reward)))
    w = bellman.q_state(mdp.reward_vec).max(axis=-1)
    residuals = [float(np.max(np.abs(_lift(w, bellman.g_add, mdp.n_actions)
                                     - mdp.reward_vec)))]
    # the first test comes after several sweeps, so w - prev is then the
    # step between two block iterates
    prev = w
    while (len(residuals) < cfg.max_iters and math.isfinite(residuals[-1])
           and residuals[-1] > cfg.epsilon):
        q = bellman.q(w)
        new_w = q.max(axis=-1)
        residuals.append(float(np.max(np.abs(new_w - w))))
        if len(residuals) % _ELIMINATION_PERIOD == 0 and math.isfinite(residuals[-1]):
            bellman.restrict(_may_still_win(q, new_w, w - prev, cfg.discount, reward_bound))
        prev, w = w, new_w

    vt = ValueTable(values=w, converged=residuals[-1] <= cfg.epsilon,
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
        w, _ = bellman.evaluate(greedy)
        q = bellman.q(w)
        residuals.append(float(np.max(np.abs(q.max(axis=-1) - w))))
        greedy = bellman.greedy(q)
        if not math.isfinite(residuals[-1]):
            break
        if greedy.tobytes() in evaluated:
            converged = True
            break

    vt = ValueTable(values=w, converged=converged, residuals=residuals,
                    active_actions=bellman.columns.size)
    return vt, PolicyTable(greedy)


LOOKUP_COLUMNS = ("rho_p", "rho_s", "p_s", "prev_pd", "prev_ic",
                  "opt_pd", "opt_ic", "value")


def extract_lookup_table(mdp: SpectrumMDP, value_table: ValueTable,
                         policy_table: PolicyTable) -> np.ndarray:
    """The (S, 8) per-state operating table, columns in LOOKUP_COLUMNS order.

    Each block's greedy action is repeated over its previous-action states,
    and its value W(b) lifts to V(b, prev) = W(b) + g_add(b, prev)."""
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
        _lift(value_table.values, _base_rewards(mdp)[1], mdp.n_actions),
    ])


def evaluate_policy_exact(mdp: SpectrumMDP, block_actions: np.ndarray,
                          discount: float) -> tuple[np.ndarray, np.ndarray]:
    """(W, residual): the exact block values W(b) of one action per (rho_p,
    rho_s, P_s) block, under the model's own reward, and the relative
    residual ||(I - d M) w - r_bar||_inf / ||r_bar||_inf of the solve on the
    cells; shapes (B,) and () for one policy, (P, B) and (P,) for a stack of
    P policies, one per row.

    Every policy the solvers make is constant on a block, so W is one banded
    solve on the (rho_p, rho_s) cells, over all the model's columns.  The
    systems of a stack are stored by bands, shape (P, n_cells, 2 n_rho_s +
    3), and eliminated together, each to the floats it gets alone.  W
    carries no iteration-tail error, which matters when comparing sweep
    points that differ by less than a value-iteration tolerance.  The
    throughput of the held action alone is the J of the model built with
    zero costs and reward_uses_chosen_action=True.
    """
    actions = np.asarray(block_actions)
    n_blocks = mdp.n_states // mdp.n_actions
    if actions.ndim not in (1, 2) or actions.shape[-1] != n_blocks or actions.size == 0:
        raise ValueError(f"policy must assign an action to each of {n_blocks} blocks")
    # a bool array would index as a mask, and a float one not at all
    if not np.issubdtype(actions.dtype, np.integer):
        raise ValueError(f"policy actions must be integers, got dtype {actions.dtype}")
    # the operator gathers kernel columns, where a negative index would wrap
    if actions.min() < 0 or actions.max() >= mdp.n_actions:
        raise ValueError("policy contains out-of-range action indices")
    return _BlockBellman(mdp, discount, np.arange(mdp.n_actions)).evaluate(actions)
