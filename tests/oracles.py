"""Reference routes that the tests hold the library against.

The dense solvers work on explicit (A, S, S) transition and (S, A) reward
arrays, which `materialize_dense` builds from the scalar `transition` rows.
Those rows are gathered from the model's own kernel, so the dense route
checks the solvers' contraction, gathers and lifting, not the physics.
`outcome_kernel` states the slot physics one scalar slot at a time, apart
from the broadcasting `cogrelay.mdp._outcome_terms` that the library
compiles, and `reward` prices a single state from it; with the tests'
hand-written birth-death step they are the independent physics check.  `evaluate_policy`
is fixed-point policy evaluation of a per-state policy, the iterative twin
of the library's exact, block-wise `evaluate_policy_exact`, and
`evaluate_policy_blocks` solves the dense B x B block system
(`block_matrix`) with LAPACK, the route the library's banded solve on the
power-averaged cells replaced.  `evaluate_one_policy` evaluates one policy
by a dense (n, n) matrix on those cells and the one-system elimination
`solve_banded_dense`, the route the library's stacked banded solve
replaced; on the same operator it must give the same floats.
`value_iteration_lifted` is value iteration backing up all S per-state
values on every sweep, the route the library's block iteration replaced,
and `value_iteration_full_columns` is block value iteration backing up
every action column on every sweep, the route the library's action
elimination replaced.  `tests/conftest.py` wraps `value_iteration_dense`,
`value_iteration_lifted`, `value_iteration_full_columns` and
`evaluate_policy` with the suite-wide contraction check.
`state_values` lifts a solver's block values to the S states, as
`extract_lookup_table` does, for the checks stated per state.
`continuation_loop` is the library's `_continuation` as nine shifted
multiply-adds, the route its single einsum replaced, and `continuation`
backs up a per-state or block table over all columns through it; so
`value_iteration_full_columns`, `value_iteration_lifted` and
`evaluate_one_policy` hold the einsum to the loop's floats.
`move_kernel_stacked` is the library's `_move_kernel` as one einsum over
the stacked birth-death steps of both queues on the whole grid, the route
its in-place assembly, one rho_p level at a time, replaced; it takes the
same arguments and must give the same floats.
`outcome_frequency_check` is a chi-square test of a simulation's
sensing-outcome counts against their law.  `simulate_reference` is the
simulator's chunk loop written with per-slot boolean arrays and one tally
per indicator, the route the library's slot-code histogram replaced; on the
same draws it must give the same `SimStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Literal

import numpy as np

import cogrelay.sim
from cogrelay.mdp import (CostModel, MdpGrids, ModelParams, SpectrumMDP,
                          _birth_death, constrained_power, transition)
from cogrelay.model import success_probability
from cogrelay.sensing import false_alarm_from_detection
from cogrelay.sim import _OUTCOME_LABELS, SimConfig, SimStats, simulate
from cogrelay.solver import (Mode, PolicyTable, SolverConfig, ValueTable, _BlockBellman,
                             _allowed_columns, _base_rewards, _power_average)


def _lift(block_values: np.ndarray, g_add: np.ndarray | None, n_a: int) -> np.ndarray:
    """Per-state values V(b, prev) = W(b) + g_add(b, prev) from block values W."""
    values = np.repeat(block_values.reshape(-1), n_a)
    return values if g_add is None else values + g_add


def state_values(mdp: SpectrumMDP, block_values: np.ndarray) -> np.ndarray:
    """Per-state values V(b, prev) = W(b) + g_add(b, prev) of block values
    W, the lift `extract_lookup_table` applies to a solver's result."""
    return _lift(block_values, _base_rewards(mdp)[1], mdp.n_actions)


def continuation_loop(mdp: SpectrumMDP, w: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """`cogrelay.solver._continuation` as nine shifted multiply-adds, one
    (r, u, v, m) temporary each, the route the library's single einsum
    contraction replaced; on the same arguments it must give the same floats.

    w(rho_p, rho_s), shape (n_rho_p, n_rho_s, 1), backs up against every
    column; power averages side by side, shape (n_rho_p, n_rho_s, m), back
    up the i-th against column i.  Each entry is the same nine
    multiply-adds whatever the other columns are.
    """
    n_rp, n_rs = mdp.grids.shape[:2]
    wp = np.zeros((n_rp + 2, n_rs + 2, w.shape[-1]))
    wp[1:-1, 1:-1] = w
    cont = np.zeros(kernel.shape[2:])
    for mp, ms in np.ndindex(3, 3):
        shifted = wp[mp:mp + n_rp, ms:ms + n_rs]
        cont += kernel[mp, ms] * shifted[:, :, None]
    return cont


def continuation(mdp: SpectrumMDP, table: np.ndarray) -> np.ndarray:
    """E[J(next) | r, u, v, a] over all action columns of a per-state table,
    shape (S,), or a block table, shape (B,), by `continuation_loop`."""
    return continuation_loop(mdp, _power_average(mdp, table), mdp.kernel)


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


def move_kernel_stacked(dist: np.ndarray, srv_p: np.ndarray, srv_s: np.ndarray,
                        grids: MdpGrids, params: ModelParams) -> np.ndarray:
    """`cogrelay.mdp._move_kernel` as one einsum over the stacked (down,
    stay, up) steps of both queues on the whole grid: the rho_s stack alone
    is 4/3 of the kernel, and `np.array` copies it while its three steps
    are alive."""
    q = params.queues
    n_rp, n_rs = grids.shape[:2]
    rp, rs = (np.arange(n).reshape(-1, 1, 1, 1) for n in (n_rp, n_rs))
    bdp = np.array(_birth_death(srv_p, q.lambda_p, rp == 0, rp == n_rp - 1))
    bds = np.array(_birth_death(srv_s, q.lambda_s, rs == 0, rs == n_rs - 1))
    return np.einsum("mrvax,nruvax->mnruva", dist[None, :, None] * bdp, bds)


def reward(state: int, grids: MdpGrids, params: ModelParams,
           costs: CostModel) -> float:
    """Immediate reward of a flat augmented state.

    Expected secondary throughput of the slot (the outcome-weighted
    closed-form branch values, with the state's rho_s as the backlog
    probability and the stored previous action fixing Pd, Pf and Ic),
    minus the detection cost s*Pd and the interference cost c*Ps(1).
    """
    rp, rs, ps, pd_i, ic_i = np.unravel_index(state, grids.shape)
    s, a = grids.states, grids.actions
    pd, ic = a.pd_levels[pd_i], a.ic_levels[ic_i]
    _, _, srv_s = outcome_kernel(s.rho_p_levels[rp], s.rho_s_levels[rs],
                                 s.p_s_levels[ps], pd, ic, params)
    return (float(np.sum(srv_s)) - costs.s_const * pd
            - costs.c_const * constrained_power(params.power, ic))


def policy_terms(mdp: SpectrumMDP, policy: np.ndarray,
                 reward: Literal["full", "throughput"]
                 ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Checked (r, u, v, a) index of each state's policy action, and r_pi.

    The index gathers rows of the continuation tensor, where a negative
    action would wrap silently, so the range is checked here."""
    actions = np.asarray(policy)
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
    base = np.broadcast_to(base, mdp.g_action.shape)
    return idx, base[idx] if g_add is None else base[idx] + g_add


def evaluate_policy(mdp: SpectrumMDP, policy: np.ndarray, cfg: SolverConfig,
                    reward: Literal["full", "throughput"] = "full") -> ValueTable:
    """Fixed-point evaluation of a stationary policy, one action per state.

    With reward="throughput" the control costs are dropped and the slot
    reward is the expected secondary throughput under the policy's action;
    this is what the operating-point sweeps report.
    """
    idx, r_pi = policy_terms(mdp, policy, reward)
    values = r_pi.copy()
    residuals: list[float] = []
    converged = False
    for _ in range(cfg.max_iters):
        new_values = r_pi + cfg.discount * continuation(mdp, values)[idx]
        residual = float(np.max(np.abs(new_values - values)))
        residuals.append(residual)
        values = new_values
        if residual <= cfg.epsilon:
            converged = True
            break
    return ValueTable(values=values, converged=converged, residuals=residuals)


def block_matrix(mdp: SpectrumMDP, block_actions: np.ndarray) -> np.ndarray:
    """P(b' | b, a_b) over the blocks, shape (B, B), one action per block.

    The kernel at each block's action weights the nine (rho_p, rho_s)
    moves, and the next power level is a stationary redraw, exactly as
    `continuation` contracts them."""
    n_rp, n_rs, n_ps = mdp.grids.shape[:3]
    n_blocks = n_rp * n_rs * n_ps
    blocks = np.arange(n_blocks)
    r, u, _ = np.unravel_index(blocks, (n_rp, n_rs, n_ps))
    k = mdp.kernel.reshape(3, 3, n_blocks, mdp.n_actions)[:, :, blocks, block_actions]
    moves = np.zeros((n_blocks, n_rp + 2, n_rs + 2))
    for mp in range(3):
        for ms in range(3):
            moves[blocks, r + mp, u + ms] = k[mp, ms]
    pstat = np.array(mdp.grids.states.p_s_stationary)
    return (moves[:, 1:-1, 1:-1, None] * pstat).reshape(n_blocks, n_blocks)


def evaluate_policy_blocks(mdp: SpectrumMDP, block_actions: np.ndarray,
                           discount: float) -> np.ndarray:
    """Exact per-state J of one action per block, under the model's own
    reward: (I - d P_sigma) W = r_sigma on the B blocks by `np.linalg.solve`,
    lifted to the S states."""
    base, g_add = _base_rewards(mdp)
    step_reward = base if g_add is None else base + discount * continuation(mdp, g_add)
    blocks = np.arange(block_actions.size)
    r_sigma = step_reward.reshape(blocks.size, -1)[blocks, block_actions]
    a = np.eye(blocks.size) - discount * block_matrix(mdp, block_actions)
    return _lift(np.linalg.solve(a, r_sigma), g_add, mdp.n_actions)


def solve_banded_dense(a: np.ndarray, b: np.ndarray, band: int) -> np.ndarray:
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


def evaluate_one_policy(bellman: _BlockBellman, block_actions: np.ndarray) -> np.ndarray:
    """W_sigma of one of `bellman`'s columns per block, one policy at a time:
    the power-averaged system (I - d M) w = r_bar built as a dense (n, n)
    matrix by backing up each cell's indicator, and `solve_banded_dense`.
    The library's stacked evaluation, which writes the bands of I - d M
    directly and eliminates a stack at once, must give the same floats."""
    n_rp, n_rs, n_ps = bellman.mdp.grids.shape[:3]
    n = n_rp * n_rs
    sigma = np.searchsorted(bellman.columns, block_actions).reshape(n_rp, n_rs, n_ps, 1)
    k = np.take_along_axis(bellman.kernel, sigma[None, None], axis=-1)
    r_sigma = np.take_along_axis(bellman.step_reward, sigma, axis=-1)
    pstat = np.array(bellman.mdp.grids.states.p_s_stationary)[:, None]
    k_bar = (pstat * k).sum(axis=4, keepdims=True)
    # column c of M backs up cell c's indicator; in C order, M's band is n_rho_s + 1
    m = continuation_loop(bellman.mdp, np.eye(n).reshape(n_rp, n_rs, n),
                          np.broadcast_to(k_bar, k_bar.shape[:-1] + (n,)))
    a = np.eye(n) - bellman.discount * m.reshape(n, n)
    w_bar = solve_banded_dense(a, (pstat * r_sigma).sum(axis=2).reshape(n), n_rs + 1)
    cont = continuation_loop(bellman.mdp, w_bar.reshape(n_rp, n_rs, 1), k)
    return (r_sigma + bellman.discount * cont).reshape(-1)


def evaluate_policy_exact_one(mdp: SpectrumMDP, block_actions: np.ndarray,
                              discount: float) -> np.ndarray:
    """`evaluate_one_policy` on an operator restricted to the policy's own
    columns, the route each call of `cogrelay.solver.evaluate_policy_exact`
    took before it took stacks; the library now evaluates a stack over every
    column, and must give the same floats."""
    bellman = _BlockBellman(mdp, discount)
    bellman.restrict(np.isin(bellman.columns, block_actions))
    return evaluate_one_policy(bellman, block_actions)


def column_mask(mdp: SpectrumMDP, mode: Mode, pinned: int | None) -> np.ndarray:
    """0 on the mode's action columns and -inf elsewhere, added to a Q table."""
    neg = np.full(mdp.n_actions, -np.inf)
    neg[_allowed_columns(mdp, mode, pinned)] = 0.0
    return neg


def value_iteration_lifted(mdp: SpectrumMDP, cfg: SolverConfig, mode: Mode = "joint",
                           pinned: int | None = None) -> tuple[ValueTable, PolicyTable]:
    """Value iteration that backs up all S per-state values on every sweep.

    Same start (the reward vector), stopping rule and tie rule as
    `cogrelay.solver.value_iteration`, which iterates on the block values
    instead; the two differ only in rounding.
    """
    base, g_add = _base_rewards(mdp)
    neg = column_mask(mdp, mode, pinned)
    values = mdp.reward_vec.copy()
    residuals: list[float] = []
    converged = False
    for _ in range(cfg.max_iters):
        q = base + cfg.discount * continuation(mdp, values) + neg
        new_values = _lift(q.max(axis=-1), g_add, mdp.n_actions)
        residual = float(np.max(np.abs(new_values - values)))
        residuals.append(residual)
        values = new_values
        if not math.isfinite(residual):
            break
        if residual <= cfg.epsilon:
            converged = True
            break
    q = base + cfg.discount * continuation(mdp, values) + neg
    vt = ValueTable(values=values, converged=converged, residuals=residuals)
    return vt, PolicyTable(q.argmax(axis=-1).reshape(-1))


def value_iteration_full_columns(mdp: SpectrumMDP, cfg: SolverConfig,
                                 mode: Mode = "joint", pinned: int | None = None,
                                 observe: Callable[..., None] = lambda *_: None
                                 ) -> tuple[ValueTable, PolicyTable]:
    """Block value iteration that backs up every action column on every sweep.

    The mode's columns are the ones a -inf mask leaves open.  Same start,
    stopping rule and tie rule as `cogrelay.solver.value_iteration`, which
    stops backing up the columns that can no longer win; the two agree bit
    for bit.  `observe(w, q, residuals)` sees each block iterate W_k, its
    Q table over all columns, shape (B, A), and the residuals up to W_k.
    """
    base, g_add = _base_rewards(mdp)
    neg = column_mask(mdp, mode, pinned)
    step_reward = base if g_add is None else base + cfg.discount * continuation(mdp, g_add)

    def q(values, reward):
        cont = continuation(mdp, values)
        return (reward + cfg.discount * cont + neg).reshape(-1, mdp.n_actions)

    w = q(mdp.reward_vec, base).max(axis=-1)
    residuals = [float(np.max(np.abs(_lift(w, g_add, mdp.n_actions) - mdp.reward_vec)))]
    while True:
        q_w = q(w, step_reward)
        observe(w, q_w, residuals)
        if not (len(residuals) < cfg.max_iters and math.isfinite(residuals[-1])
                and residuals[-1] > cfg.epsilon):
            break
        w, prev = q_w.max(axis=-1), w
        residuals.append(float(np.max(np.abs(w - prev))))

    vt = ValueTable(values=_lift(w, g_add, mdp.n_actions),
                    converged=residuals[-1] <= cfg.epsilon, residuals=residuals)
    return vt, PolicyTable(q_w.argmax(axis=-1))


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
    for _ in range(cfg.max_iters):
        q = r + cfg.discount * np.einsum("ast,t->sa", p, values)
        new_values = q.max(axis=1)
        residual = float(np.max(np.abs(new_values - values)))
        residuals.append(residual)
        values = new_values
        if residual <= cfg.epsilon:
            converged = True
            break
    q = r + cfg.discount * np.einsum("ast,t->sa", p, values)
    actions = q.argmax(axis=1)
    return ValueTable(values, converged, residuals), actions


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
    p = np.zeros((n_actions, n_states, n_states))
    for s in range(n_states):
        for a in range(n_actions):
            next_states, probs = transition(mdp, s, a)
            p[a, s, next_states] = probs
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


# 0.999 quantiles of the chi-square law at the only dof the outcome check can
# reach (four outcomes in at most two activity groups): the square of a
# normal quantile for one, an exponential of mean 2 for two
_CHI2_999 = {1: NormalDist().inv_cdf(0.9995) ** 2, 2: -2.0 * math.log(0.001)}


@dataclass(frozen=True)
class ChiSquareCheck:
    """Goodness-of-fit of observed sensing outcomes, conditioned on activity."""

    statistic: float
    dof: int
    threshold: float
    passed: bool


def outcome_frequency_check(cfg: SimConfig, stats: SimStats | None = None) -> ChiSquareCheck:
    """Chi-square test of the sensing-outcome counts against their law.

    Conditions on the realised busy/idle split, so the expected counts are
    n_idle * (Pf, 1-Pf) and n_busy * (1-Pd, Pd); a detector with Pd=1, Pf=0
    is deterministic given the activity and must score exactly zero.
    """
    if cfg.n_slots < 10_000:
        raise ValueError(f"need at least 1e4 slots for a stable check, got {cfg.n_slots}")
    if stats is None:
        stats = simulate(cfg)
    pd, pf = cfg.pd, cfg.resolved_pf
    n_busy = stats.counts["busy"]
    n_idle = stats.n_slots - n_busy
    observed = np.array([stats.counts[f"outcome_{o}"] for o in _OUTCOME_LABELS])
    expected = np.array([
        n_idle * pf, n_idle * (1.0 - pf),
        n_busy * (1.0 - pd), n_busy * pd,
    ])

    live = expected > 0.0
    if np.any(~live & (observed > 0.5)):
        return ChiSquareCheck(statistic=math.inf, dof=0, threshold=0.0, passed=False)
    groups = int(n_idle > 0) + int(n_busy > 0)
    dof = int(live.sum()) - groups
    statistic = float(np.sum((observed[live] - expected[live]) ** 2 / expected[live]))
    if dof < 1:
        return ChiSquareCheck(statistic=statistic, dof=0, threshold=0.0,
                              passed=statistic <= 1e-9)
    threshold = _CHI2_999[dof]
    return ChiSquareCheck(statistic=statistic, dof=dof, threshold=threshold,
                          passed=statistic <= threshold)


def simulate_reference(cfg: SimConfig) -> SimStats:
    """`cogrelay.sim.simulate` as per-slot boolean arrays and separate tallies.

    Same generator, draw order and chunking (`cogrelay.sim._CHUNK`, read at
    call time so a test can shrink it); each indicator is its own array and
    each count its own sum or `bincount`.
    """
    q = cfg.params.queues
    ch = cfg.params.channel
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.n_slots
    pd, pf = cfg.pd, cfg.resolved_pf
    rho_s, rho_ps = q.rho_s, q.rho_ps
    chunk = cogrelay.sim._CHUNK

    c = {k: 0 for k in (
        "busy", "qs", "qps", "own_delivered", "pu_delivered",
        "direct_served", "relayed_busy", "relayed_total")}
    n_outcome = np.zeros(4, dtype=np.int64)
    n_branch_s = np.zeros(4, dtype=np.int64)
    n_branch_ps = np.zeros(4, dtype=np.int64)

    done = 0
    while done < n:
        m = min(chunk, n - done)
        busy = rng.random(m) < cfg.resolved_pi1
        declared = rng.random(m) < np.where(busy, pd, pf)
        qs = rng.random(m) < rho_s
        qps = rng.random(m) < rho_ps
        x_s = rng.exponential(1.0, m)
        x_sp = rng.exponential(1.0, m)
        x_p = rng.exponential(1.0, m)

        # canonical outcome order: FA=0, NFA=1, MD=2, D=3
        outcome = np.where(busy, np.where(declared, 3, 2), np.where(declared, 0, 1))
        cutoff = np.where(declared, ch.beta_sp, ch.beta_s) * (1.0 + ch.gamma_ps * busy)
        own_pass = x_s >= cutoff / ch.gamma_s
        relay_pass = x_sp >= cutoff / ch.gamma_sp

        outage = x_p < ch.beta_p / ch.gamma_p
        direct_ok = busy & (x_p >= ch.beta_p * (1.0 + ch.gamma_sp) / ch.gamma_p)
        relaying = outage & qps
        relay_delivered = relaying & relay_pass
        own_delivered = ~outage & qs & own_pass

        n_outcome += np.bincount(outcome, minlength=4)
        n_branch_s += np.bincount(outcome[own_pass], minlength=4)
        n_branch_ps += np.bincount(outcome[relay_pass], minlength=4)
        c["busy"] += int(busy.sum())
        c["qs"] += int(qs.sum())
        c["qps"] += int(qps.sum())
        c["own_delivered"] += int(own_delivered.sum())
        c["pu_delivered"] += int((direct_ok | relay_delivered).sum())
        c["direct_served"] += int(direct_ok.sum())
        c["relayed_busy"] += int((relay_delivered & busy).sum())
        c["relayed_total"] += int(relay_delivered.sum())
        done += m

    for name, tally in (("outcome", n_outcome), ("own_pass", n_branch_s),
                        ("relay_pass", n_branch_ps)):
        for o, k in zip(_OUTCOME_LABELS, tally):
            c[f"{name}_{o}"] = int(k)
    return SimStats(n, c)
