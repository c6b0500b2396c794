"""Value and policy iteration: both routes, policy evaluation and the lookup table."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cogrelay.solver
from cogrelay.config import resolve_config
from cogrelay.mdp import (ActionGrids, CostModel, MdpGrids, PowerPolicy,
                          StateGrids, _outcome_terms, build_spectrum_mdp,
                          constrained_power, transition)
from cogrelay.model import ChannelParams, QueueParams
from cogrelay.sensing import false_alarm_from_detection
from cogrelay.solver import (_ELIMINATION_PERIOD, LOOKUP_COLUMNS, PolicyTable, SolverConfig,
                             ValueTable, _allowed_columns, _BlockBellman, _continuation, _lift,
                             _may_still_win, _power_average, _solve_banded,
                             evaluate_policy_exact, extract_lookup_table, policy_iteration,
                             value_iteration)
from oracles import (continuation_loop, dense_rewards, evaluate_one_policy, evaluate_policy,
                     evaluate_policy_blocks, evaluate_policy_dense, evaluate_policy_exact_one,
                     materialize_dense, outcome_kernel, policy_terms, solve_banded_dense,
                     state_values, value_iteration_dense, value_iteration_full_columns,
                     value_iteration_lifted)
from tests.test_mdp import (_hand_birth_death, assert_kernel_matches_stacked, make_params,
                            small_grids)


def small_mdp(costs=None, grids=None, params=None, chosen=False):
    return build_spectrum_mdp(grids or small_grids(), params or make_params(),
                              costs or CostModel(s_const=1.0, c_const=0.5),
                              reward_uses_chosen_action=chosen)


def random_block_policy(mdp, rng):
    """One random action per (rho_p, rho_s, P_s) block."""
    return rng.integers(0, mdp.n_actions, mdp.n_states // mdp.n_actions)


def lifted(mdp, block_actions):
    """The per-state policy that repeats each block's action."""
    return np.repeat(block_actions, mdp.n_actions)


def throughput_twin(mdp):
    """The model whose reward is the throughput of the chosen action alone:
    zero costs and the chosen-action reward."""
    return build_spectrum_mdp(mdp.grids, mdp.params, CostModel(0.0, 0.0),
                              reward_uses_chosen_action=True)


def library_values(mdp, block_actions, discount, reward):
    """evaluate_policy_exact under the oracles' reward selector, per state:
    the model itself for "full", its throughput twin for "throughput"."""
    model = throughput_twin(mdp) if reward == "throughput" else mdp
    return state_values(model, evaluate_policy_exact(model, block_actions, discount=discount)[0])


def singleton_mdp(rho_s=0.5, costs=CostModel(0.0, 0.0), p_s_levels=(1.0,),
                  p_s_stationary=(1.0,)):
    states = StateGrids(rho_p_levels=(0.5,), rho_s_levels=(rho_s,),
                        p_s_levels=p_s_levels, p_s_stationary=p_s_stationary)
    grids = MdpGrids(states=states, actions=ActionGrids((0.8,), (1.0,)))
    return build_spectrum_mdp(grids, make_params(), costs)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(discount=1.0)
    # NaN fails every comparison, so value iteration would stop after one
    # sweep; a float cap would reach range() in policy iteration
    for epsilon in (float("nan"), float("inf"), -1e-6):
        with pytest.raises(ValueError, match="epsilon"):
            SolverConfig(epsilon=epsilon)
    for max_iters in (2.5, 10.0, True):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(max_iters=max_iters)
    assert SolverConfig(max_iters=np.int64(3)).max_iters == 3
    assert SolverConfig(discount=0.0).discount == 0.0


def test_zero_reward_model_converges_immediately():
    states = StateGrids(rho_p_levels=(0.1, 0.5), rho_s_levels=(0.0,),
                        p_s_levels=(1.0,), p_s_stationary=(1.0,))
    grids = MdpGrids(states=states, actions=ActionGrids((0.2, 0.8), (0.5,)))
    mdp = build_spectrum_mdp(grids, make_params(), CostModel(0.0, 0.0))
    vt, _ = value_iteration(mdp, SolverConfig(epsilon=1e-12, discount=0.9))
    assert vt.converged
    assert vt.iterations == 1
    np.testing.assert_array_equal(state_values(mdp, vt.values), np.zeros(mdp.n_states))


def test_single_state_geometric_series_dense():
    cfg = SolverConfig(epsilon=1e-10, discount=0.9)
    vt, actions = value_iteration_dense(np.ones((1, 1, 1)), np.array([[0.4]]), cfg)
    assert vt.converged
    assert actions.tolist() == [0]
    assert vt.values[0] == pytest.approx(4.0, abs=1e-8)


def test_single_state_geometric_series_factored():
    mdp = singleton_mdp()
    cfg = SolverConfig(epsilon=1e-12, discount=0.9)
    vt, _ = value_iteration(mdp, cfg)
    assert vt.converged
    r0 = mdp.reward_vec[0]
    assert state_values(mdp, vt.values)[0] == pytest.approx(r0 / (1.0 - 0.9), abs=1e-9)


def test_dense_rewards_shape_checked():
    with pytest.raises(ValueError, match="rewards"):
        value_iteration_dense(np.ones((1, 2, 2)) / 2.0, np.zeros((3, 1)),
                              SolverConfig())


def random_dense_mdp(rng, n_states=3, n_actions=2):
    p = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    r = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    return p, r


def test_small_instances_match_policy_enumeration():
    cfg = SolverConfig(epsilon=1e-10, discount=0.9)
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        p, r = random_dense_mdp(rng)
        vt, greedy = value_iteration_dense(p, r, cfg)
        best = np.full(3, -np.inf)
        for a0 in range(2):
            for a1 in range(2):
                for a2 in range(2):
                    j = evaluate_policy_dense(p, r, np.array([a0, a1, a2]), 0.9)
                    best = np.maximum(best, j)
        np.testing.assert_allclose(vt.values, best, atol=1e-6)
        j_greedy = evaluate_policy_dense(p, r, greedy, 0.9)
        np.testing.assert_allclose(j_greedy, best, atol=1e-8)


def test_evaluate_policy_myopic_limit():
    mdp = small_mdp()
    rng = np.random.default_rng(7)
    actions = rng.integers(0, mdp.n_actions, mdp.n_states)
    vt = evaluate_policy(mdp, actions, SolverConfig(epsilon=1e-12, discount=0.0))
    assert vt.converged
    expected = mdp.g_action.reshape(-1) - mdp.action_cost[actions]
    np.testing.assert_array_equal(vt.values, expected)


def test_evaluate_policy_throughput_selector():
    mdp = small_mdp()
    actions = np.zeros(mdp.n_states, dtype=int)
    vt = evaluate_policy(mdp, actions, SolverConfig(epsilon=1e-12, discount=0.0),
                         reward="throughput")
    n_rp, n_rs, n_ps, _, _ = mdp.grids.shape
    block = np.repeat(np.arange(n_rp * n_rs * n_ps), mdp.n_actions)
    ri, ui, vi = np.unravel_index(block, (n_rp, n_rs, n_ps))
    np.testing.assert_array_equal(vt.values, mdp.g_action[ri, ui, vi, actions])
    with pytest.raises(ValueError, match="reward"):
        evaluate_policy(mdp, actions, SolverConfig(), reward="net")


def test_evaluate_policy_rejects_bad_policies():
    mdp = small_mdp()
    n_blocks = mdp.n_states // mdp.n_actions
    for evaluate, size in ((lambda a: evaluate_policy(mdp, a, SolverConfig()), mdp.n_states),
                           (lambda a: evaluate_policy_exact(mdp, a, discount=0.9), n_blocks)):
        with pytest.raises(ValueError, match="each of"):
            evaluate(np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="out-of-range"):
            evaluate(np.full(size, mdp.n_actions))
        # a negative index would wrap silently in the (r, u, v, a) gather
        with pytest.raises(ValueError, match="out-of-range"):
            evaluate(np.full(size, -1))
    # one action per state is not one action per block
    with pytest.raises(ValueError, match="each of"):
        evaluate_policy_exact(mdp, np.zeros(mdp.n_states, dtype=int), discount=0.9)
    # a stack holds one policy per row, and at least one
    for shape in ((0, n_blocks), (2, 2, n_blocks), (2, n_blocks + 1)):
        with pytest.raises(ValueError, match="each of"):
            evaluate_policy_exact(mdp, np.zeros(shape, dtype=int), discount=0.9)
    # actions are integers: a float array cannot index the kernel, and a bool
    # one would index it as a mask
    for shape, dtype in itertools.product((n_blocks, (2, n_blocks)), (float, bool)):
        with pytest.raises(ValueError, match="must be integers"):
            evaluate_policy_exact(mdp, np.zeros(shape, dtype=dtype), discount=0.9)


def test_power_redraw_chain_hand_formula():
    # two power states, one action: next state is an i.i.d. stationary redraw,
    # so J(s) = r(s) + d * (q . r) / (1 - d)
    mdp = singleton_mdp(p_s_levels=(1.0, 2.5), p_s_stationary=(0.6, 0.4))
    assert mdp.n_states == 2
    d = 0.85
    r = mdp.reward_vec
    mix = 0.6 * r[0] + 0.4 * r[1]
    expected = r + d * mix / (1.0 - d)

    actions = np.zeros(2, dtype=int)
    vt = evaluate_policy(mdp, actions, SolverConfig(epsilon=1e-12, discount=d))
    np.testing.assert_allclose(vt.values, expected, atol=1e-10)
    exact = state_values(mdp, evaluate_policy_exact(mdp, actions, discount=d)[0])
    np.testing.assert_allclose(exact, expected, atol=1e-13)


def test_evaluate_policy_agrees_with_value_iteration():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-9, discount=0.9)
    vt, pt = value_iteration(mdp, cfg)
    jv = evaluate_policy(mdp, lifted(mdp, pt.actions), cfg)
    np.testing.assert_allclose(jv.values, state_values(mdp, vt.values), atol=1e-6)


def test_fixed_pd_mode_pins_every_state():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-8, discount=0.9)
    vt, pt = value_iteration(mdp, cfg, mode="fixed_pd", pinned=1)
    assert vt.converged
    n_ic = len(mdp.grids.actions.ic_levels)
    assert np.all(pt.actions // n_ic == 1)


def test_fixed_ic_mode_pins_every_state():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-8, discount=0.9)
    _, pt = value_iteration(mdp, cfg, mode="fixed_ic", pinned=0)
    n_ic = len(mdp.grids.actions.ic_levels)
    assert np.all(pt.actions % n_ic == 0)


def test_mode_argument_validation():
    mdp = small_mdp()
    cfg = SolverConfig()
    with pytest.raises(ValueError, match="no pinned"):
        value_iteration(mdp, cfg, mode="joint", pinned=0)
    with pytest.raises(ValueError, match="requires a pinned"):
        value_iteration(mdp, cfg, mode="fixed_pd")
    with pytest.raises(ValueError, match="out of range"):
        value_iteration(mdp, cfg, mode="fixed_ic", pinned=9)
    with pytest.raises(ValueError, match="unknown mode"):
        value_iteration(mdp, cfg, mode="greedy", pinned=0)


def test_restricting_the_action_set_never_helps():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-10, discount=0.9)
    joint, _ = value_iteration(mdp, cfg)
    pinned, _ = value_iteration(mdp, cfg, mode="fixed_pd", pinned=0)
    assert np.all(state_values(mdp, joint.values) >= state_values(mdp, pinned.values) - 1e-8)


def test_lookup_table_layout():
    cfg = SolverConfig(epsilon=1e-8, discount=0.9)
    # the second model's policy uses two actions, so a lift that tiles the
    # block actions instead of repeating them would show in the opt columns
    for mdp in (small_mdp(), small_mdp(CostModel(0.0, 0.0), chosen=True)):
        vt, pt = value_iteration(mdp, cfg)
        # every solver returns one action per (rho_p, rho_s, P_s) block
        n_blocks = mdp.n_states // mdp.n_actions
        for solve in (value_iteration, policy_iteration, value_iteration_lifted):
            assert solve(mdp, cfg)[1].actions.shape == (n_blocks,)

        rows = extract_lookup_table(mdp, vt, pt)
        assert rows.shape == (mdp.n_states, len(LOOKUP_COLUMNS))
        np.testing.assert_array_equal(rows[:, -1], state_values(mdp, vt.values))
        # the opt_pd / opt_ic columns repeat each block's action over its states
        sg, ag = mdp.grids.states, mdp.grids.actions
        n_ic = len(ag.ic_levels)
        per_state = lifted(mdp, pt.actions)
        np.testing.assert_array_equal(rows[:, 5], np.array(ag.pd_levels)[per_state // n_ic])
        np.testing.assert_array_equal(rows[:, 6], np.array(ag.ic_levels)[per_state % n_ic])

        for flat in (0, 17, mdp.n_states - 1):
            rp, rs, ps, pd_i, ic_i = np.unravel_index(flat, mdp.grids.shape)
            row = rows[flat]
            assert row[0] == sg.rho_p_levels[rp]
            assert row[1] == sg.rho_s_levels[rs]
            assert row[2] == sg.p_s_levels[ps]
            assert row[3] == ag.pd_levels[pd_i]
            assert row[4] == ag.ic_levels[ic_i]
    assert np.unique(pt.actions).size > 1


def test_value_iteration_is_deterministic():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-9, discount=0.9)
    vt1, pt1 = value_iteration(mdp, cfg)
    vt2, pt2 = value_iteration(mdp, cfg)
    np.testing.assert_array_equal(vt1.values, vt2.values)
    np.testing.assert_array_equal(pt1.actions, pt2.actions)
    assert vt1.residuals == vt2.residuals
    assert vt1.iterations == vt2.iterations


def test_values_respect_discounted_reward_bound():
    mdp = small_mdp(costs=CostModel(s_const=2.0, c_const=2.0))
    d = 0.95
    vt, _ = value_iteration(mdp, SolverConfig(epsilon=1e-8, discount=d))
    bound = (1.0 + 2.0 + 2.0 * mdp.params.power.p_av) / (1.0 - d)
    assert float(np.max(np.abs(state_values(mdp, vt.values)))) <= bound


def test_factored_route_matches_dense_route():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-10, discount=0.9)
    vt_f, pt_f = value_iteration(mdp, cfg)

    p, r = materialize_dense(mdp)
    np.testing.assert_allclose(p.sum(axis=2), 1.0, atol=1e-12)
    vt_d, greedy = value_iteration_dense(p, r, cfg, initial=mdp.reward_vec)

    assert vt_f.iterations == vt_d.iterations
    np.testing.assert_allclose(state_values(mdp, vt_f.values), vt_d.values, atol=1e-10)
    np.testing.assert_array_equal(lifted(mdp, pt_f.actions), greedy)


def assert_matches_lifted_route(mdp, cfg, mode="joint", pinned=None):
    """Block value iteration against the per-state loop: same sweeps and
    actions, residuals within 1e-13, values within 1e-12 relative."""
    vt, pt = value_iteration(mdp, cfg, mode=mode, pinned=pinned)
    ref, ref_pt = value_iteration_lifted(mdp, cfg, mode=mode, pinned=pinned)
    assert vt.converged and ref.converged
    assert vt.iterations == ref.iterations
    np.testing.assert_array_equal(pt.actions, ref_pt.actions)
    np.testing.assert_allclose(vt.residuals, ref.residuals, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(state_values(mdp, vt.values), ref.values, rtol=1e-12, atol=0.0)
    return vt, pt


@pytest.mark.parametrize("chosen", [False, True])
@pytest.mark.parametrize("mode, pinned", [("joint", None), ("fixed_pd", 1),
                                          ("fixed_ic", 0)])
def test_block_value_iteration_matches_the_lifted_route(mode, pinned, chosen):
    mdp = small_mdp(chosen=chosen)
    assert_matches_lifted_route(mdp, SolverConfig(epsilon=1e-10, discount=0.9),
                                mode, pinned)


@pytest.mark.parametrize("costs", [None, CostModel(0.0, 0.0)],
                         ids=["default_costs", "zero_costs"])
def test_block_value_iteration_matches_the_lifted_route_on_the_default_grids(costs):
    mdp, cfg = default_model(costs)
    vt, pt = assert_matches_lifted_route(mdp, cfg)
    # the exact value of the returned policy, at the full 92,400 states, lies
    # within value iteration's a-posteriori bound of its values
    exact, _ = evaluate_policy_exact(mdp, pt.actions, cfg.discount)
    bound = cfg.discount * vt.final_residual / (1.0 - cfg.discount)
    assert exact.shape == vt.values.shape == (mdp.n_states // mdp.n_actions,)
    assert np.max(np.abs(state_values(mdp, exact) - state_values(mdp, vt.values))) <= bound


def test_exact_policy_evaluation_matches_iterative():
    mdp = small_mdp()
    rng = np.random.default_rng(11)
    actions = random_block_policy(mdp, rng)
    assert np.unique(actions).size > 1
    d = 0.9
    iterative = evaluate_policy(mdp, lifted(mdp, actions),
                                SolverConfig(epsilon=1e-12, discount=d))
    exact = library_values(mdp, actions, d, "full")
    np.testing.assert_allclose(iterative.values, exact, atol=1e-10)
    iterative = evaluate_policy(mdp, lifted(mdp, actions),
                                SolverConfig(epsilon=1e-12, discount=d),
                                reward="throughput")
    throughput = library_values(mdp, actions, d, "throughput")
    np.testing.assert_allclose(iterative.values, throughput, atol=1e-10)
    assert np.all(throughput >= -1e-15)


def scalar_row_oracle(mdp, actions, discount, reward="full"):
    """J_pi and r_pi of a per-state policy: P_pi from the dense transitions
    built out of scalar transition rows, r_pi from the oracles' reward
    selector (reward="throughput" prices the held action's throughput with
    no costs, read from the model itself, not from its twin)."""
    p, _ = materialize_dense(mdp)
    _, r_pi = policy_terms(mdp, actions, reward)
    p_pi = p[actions, np.arange(mdp.n_states)]
    return np.linalg.solve(np.eye(mdp.n_states) - discount * p_pi, r_pi), r_pi


@pytest.mark.parametrize("chosen", [False, True])
@pytest.mark.parametrize("reward", ["full", "throughput"])
def test_exact_policy_evaluation_matches_scalar_row_oracle(chosen, reward):
    mdp = small_mdp(chosen=chosen)
    rng = np.random.default_rng(23)
    for d in (0.5, 0.95):
        actions = random_block_policy(mdp, rng)
        assert np.unique(actions).size > 1
        exact = library_values(mdp, actions, d, reward)
        oracle, _ = scalar_row_oracle(mdp, lifted(mdp, actions), d, reward)
        np.testing.assert_allclose(exact, oracle, rtol=1e-12, atol=1e-12)


def test_block_continuation_matches_the_lifted_table():
    # the identity the block solvers rest on: a block table W backs up as the
    # per-state table that repeats W over the previous-action coordinates
    rng = np.random.default_rng(5)
    for mdp in (small_mdp(), default_model()[0]):
        for _ in range(3):
            w = rng.normal(size=mdp.n_states // mdp.n_actions)
            cont = _continuation(mdp, _power_average(mdp, w), mdp.kernel)
            assert cont.shape == mdp.g_action.shape
            lifted_w = _power_average(mdp, _lift(w, None, mdp.n_actions))
            np.testing.assert_allclose(
                cont, _continuation(mdp, lifted_w, mdp.kernel),
                rtol=0.0, atol=1e-15 * np.abs(w).max())


def continuation_cases(mdp, rng):
    """(w, kernel) in every shape the library contracts: a block table
    against all columns and against a column subset, power averages side by
    side against all columns and a subset, `evaluate`'s transposed gather,
    `_relative_residual`'s (3, 3, r, u, 1, P) view and `evaluate_one_policy`'s
    stride-0 kernel, each with w of mixed sign from 1e-3 to 1e3."""
    n_rp, n_rs, n_ps = mdp.grids.shape[:3]
    n_pol, n = 3, n_rp * n_rs

    def table(m):
        shape = (n_rp, n_rs, m)
        return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)

    subset = np.ascontiguousarray(mdp.kernel[..., np.sort(rng.choice(mdp.n_actions, 25,
                                                                     replace=False))])
    sigma = rng.integers(0, mdp.n_actions, (n_pol, n_rp, n_rs, n_ps))
    rp, rs, ps = np.ogrid[:n_rp, :n_rs, :n_ps]
    k = mdp.kernel.reshape(9, n_rp, n_rs, n_ps, -1)[
        np.arange(9)[:, None, None, None, None], rp, rs, ps, sigma]
    pstat = np.array(mdp.grids.states.p_s_stationary)
    k_bar = np.array([(pstat * move).sum(axis=-1) for move in k])
    k_bar = k_bar.reshape(3, 3, n_pol, n_rp, n_rs)
    return [
        (table(1), mdp.kernel),
        (table(1), subset),
        (table(mdp.n_actions), mdp.kernel),
        (table(subset.shape[-1]), subset),
        (table(n_pol), k.reshape(3, 3, *sigma.shape).transpose(0, 1, 3, 4, 5, 2)),
        (table(n_pol), k_bar.transpose(0, 1, 3, 4, 2)[..., None, :]),
        (table(n), np.broadcast_to(k_bar[:, :, 0, :, :, None, None], (3, 3, n_rp, n_rs, 1, n))),
    ]


@pytest.mark.parametrize("cost", [2.0, 0.0, 0.1])
def test_continuation_keeps_every_float_of_the_nine_step_loop(cost, monkeypatch):
    # one einsum over the nine shifted windows adds each move's product in
    # move order, with a separate multiply and add: a build whose einsum
    # fuses them into one rounding fails here
    mdp, cfg = default_model(CostModel(cost, cost))
    rng = np.random.default_rng(int(cost * 10) + 11)
    for w, kernel in continuation_cases(mdp, rng):
        got = _continuation(mdp, w, kernel)
        assert got.shape == kernel.shape[2:-1] + (max(w.shape[-1], kernel.shape[-1]),)
        assert got.tobytes() == continuation_loop(mdp, w, kernel).tobytes(), kernel.shape

    # and on the arguments every library caller passes
    calls = []

    def recorded(mdp, w, kernel):
        cont = _continuation(mdp, w, kernel)
        calls.append(cont.tobytes() == continuation_loop(mdp, w, kernel).tobytes())
        return cont

    monkeypatch.setattr(cogrelay.solver, "_continuation", recorded)
    value_iteration(mdp, dataclasses.replace(cfg, max_iters=3), mode="fixed_pd", pinned=4)
    evaluate_policy_exact(mdp, rng.integers(0, mdp.n_actions, (3, mdp.n_states // mdp.n_actions)),
                          cfg.discount)
    assert len(calls) >= 6 and all(calls)


def _levels(lo, hi, max_size):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=max_size,
                    unique=True).map(lambda v: tuple(sorted(v)))


@st.composite
def small_models(draw):
    """A random small slot model, oracle reward selector, discount and block policy.

    The channel is drawn too, with beta_sp free of beta_s, and the reference
    power p_ref is left at p_av or drawn apart from it.
    """
    p_s_levels = draw(_levels(0.1, 3.0, 2))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(p_s_levels),
                            max_size=len(p_s_levels)))
    states = StateGrids(rho_p_levels=draw(_levels(0.0, 0.95, 3)),
                        rho_s_levels=draw(_levels(0.0, 0.95, 2)),
                        p_s_levels=p_s_levels,
                        p_s_stationary=tuple(w / sum(weights) for w in weights))
    actions = ActionGrids(pd_levels=draw(_levels(0.05, 0.95, 2)),
                          ic_levels=draw(_levels(0.05, 5.0, 2)))
    lambda_p = draw(st.floats(0.05, 0.9))
    lambda_s = draw(st.floats(0.05, 0.75))
    gamma = st.floats(0.5, 20.0)
    beta = st.floats(0.0, 3.0)
    channel = ChannelParams(gamma_s=draw(gamma), gamma_p=draw(gamma),
                            gamma_sp=draw(gamma), gamma_ps=draw(st.floats(0.0, 3.0)),
                            beta_s=draw(beta), beta_sp=draw(beta), beta_p=draw(beta))
    params = make_params(
        channel=channel,
        power=PowerPolicy(p_av=3.0, p_ref=draw(st.none() | st.floats(0.1, 5.0))),
        queues=QueueParams(lambda_s=lambda_s, mu_s_max=0.8, lambda_p=lambda_p,
                           mu_p_max=1.0, lambda_ps=0.1, mu_ps_max=0.5))
    costs = CostModel(s_const=draw(st.floats(0.0, 3.0)),
                      c_const=draw(st.floats(0.0, 3.0)))
    mdp = build_spectrum_mdp(MdpGrids(states=states, actions=actions), params,
                             costs, reward_uses_chosen_action=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    policy = random_block_policy(mdp, rng)
    return (mdp, policy, draw(st.sampled_from(["full", "throughput"])),
            draw(st.floats(0.0, 0.95)))


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_kernel_keeps_the_floats_of_the_stacked_route_on_small_models(case):
    assert_kernel_matches_stacked(case[0])


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_exact_policy_evaluation_properties(case):
    mdp, actions, reward, d = case
    exact = library_values(mdp, actions, d, reward)
    oracle, r_pi = scalar_row_oracle(mdp, lifted(mdp, actions), d, reward)
    scale = max(1.0, float(np.max(np.abs(r_pi)))) / (1.0 - d)
    np.testing.assert_allclose(exact, oracle, rtol=0.0, atol=1e-12 * scale)
    # J is a discounted average of rewards the policy collects
    slack = 1e-12 * scale
    assert np.all(exact >= r_pi.min() / (1.0 - d) - slack)
    assert np.all(exact <= r_pi.max() / (1.0 - d) + slack)


# the banded solve on the power-averaged cells agrees with the dense B x B
# solve within this multiple of max |J|; the two differ only in rounding
BLOCK_ROUTE_RTOL = 1e-13


def assert_matches_block_route(mdp, actions, discount):
    exact = state_values(mdp, evaluate_policy_exact(mdp, actions, discount)[0])
    reference = evaluate_policy_blocks(mdp, actions, discount)
    scale = float(np.max(np.abs(reference)))
    np.testing.assert_allclose(exact, reference, rtol=0.0, atol=BLOCK_ROUTE_RTOL * scale)


@settings(max_examples=60, deadline=None)
@given(small_models())
def test_exact_policy_evaluation_matches_the_block_route(case):
    mdp, actions, _, d = case
    assert_matches_block_route(mdp, actions, d)


def edge_model(rho_p_levels, rho_s_levels):
    states = StateGrids(rho_p_levels=rho_p_levels, rho_s_levels=rho_s_levels,
                        p_s_levels=(0.5, 2.5), p_s_stationary=(0.3, 0.7))
    return small_mdp(grids=MdpGrids(states=states, actions=small_grids().actions))


@pytest.mark.parametrize("discount", [0.0, 0.5, 0.98])
@pytest.mark.parametrize("rho_p_levels, rho_s_levels", [
    ((0.1, 0.5, 0.9), (0.4,)),          # one rho_s level: the band is 2 wide
    ((0.5,), (0.4,)),                   # a single cell
    ((0.5,), (0.1, 0.5, 0.9)),          # a single rho_p level
])
def test_exact_policy_evaluation_matches_the_block_route_at_the_edges(
        rho_p_levels, rho_s_levels, discount):
    mdp = edge_model(rho_p_levels, rho_s_levels)
    rng = np.random.default_rng(3)
    for _ in range(3):
        assert_matches_block_route(mdp, random_block_policy(mdp, rng), discount)


@pytest.mark.parametrize("costs, chosen", [(None, False), (CostModel(0.0, 0.0), False),
                                           (CostModel(0.0, 0.0), True)],
                         ids=["default_costs", "zero_costs", "chosen_action"])
def test_exact_policy_evaluation_matches_the_block_route_on_the_default_grids(costs,
                                                                             chosen):
    mdp, cfg = default_model(costs, chosen)
    rng = np.random.default_rng(29)
    policies = [random_block_policy(mdp, rng) for _ in range(3)]
    policies.append(np.full(mdp.n_states // mdp.n_actions, rng.integers(mdp.n_actions)))
    policies.append(policy_iteration(mdp, cfg)[1].actions)
    for actions in policies:
        assert_matches_block_route(mdp, actions, cfg.discount)


@pytest.mark.parametrize("costs, chosen", [(None, False), (CostModel(0.0, 0.0), False),
                                           (CostModel(0.0, 0.0), True)],
                         ids=["default_costs", "zero_costs", "chosen_action"])
def test_exact_policy_evaluation_on_its_own_columns_keeps_every_float(costs, chosen):
    # evaluate_policy_exact works on the columns its policy uses, and its
    # values are bit for bit those of the one-policy route on an operator
    # over all the model's columns.  A one-column policy catches a step
    # reward that selects the column before the power average: einsum
    # rounds a single column differently
    mdp, cfg = default_model(costs, chosen)
    n_blocks = mdp.n_states // mdp.n_actions
    full = _BlockBellman(mdp, cfg.discount, np.arange(mdp.n_actions))
    rng = np.random.default_rng(37)
    policies = [np.full(n_blocks, a) for a in (0, 1, 117, mdp.n_actions - 1)]
    policies += [random_block_policy(mdp, rng) for _ in range(2)]
    for actions in policies:
        exact, _ = evaluate_policy_exact(mdp, actions, cfg.discount)
        assert exact.tobytes() == evaluate_one_policy(full, actions).tobytes()


def stacked_policies(mdp, rng):
    """Constant policies and per-block random ones, with a repeated row."""
    n_blocks = mdp.n_states // mdp.n_actions
    rows = [np.full(n_blocks, a) for a in (0, mdp.n_actions // 2, mdp.n_actions - 1)]
    rows += [random_block_policy(mdp, rng) for _ in range(3)]
    rows.append(rows[3])
    return np.array(rows)


def assert_stack_keeps_every_float(mdp, stack, discount):
    """The stacked evaluation against the one-policy route it replaced, bit
    for bit: each row of the stack, each policy alone, and the all-column
    operator's `evaluate`, which policy iteration calls, on both."""
    values, _ = evaluate_policy_exact(mdp, stack, discount)
    assert values.shape == stack.shape
    full = _BlockBellman(mdp, discount, np.arange(mdp.n_actions))
    on_all_columns, _ = full.evaluate(stack)
    for actions, row, row_all in zip(stack, values, on_all_columns):
        reference = evaluate_policy_exact_one(mdp, actions, discount)
        assert row.tobytes() == reference.tobytes()
        assert evaluate_policy_exact(mdp, actions, discount)[0].tobytes() == reference.tobytes()
        reference_all = evaluate_one_policy(full, actions)
        assert row_all.tobytes() == reference_all.tobytes()
        assert full.evaluate(actions)[0].tobytes() == reference_all.tobytes()


@settings(max_examples=30, deadline=None)
@given(small_models(), st.integers(0, 2**32 - 1))
def test_stacked_evaluation_keeps_every_float_on_random_models(case, seed):
    mdp, _, _, d = case
    assert_stack_keeps_every_float(mdp, stacked_policies(mdp, np.random.default_rng(seed)), d)


@pytest.mark.parametrize("chosen", [False, True])
@pytest.mark.parametrize("rho_p_levels, rho_s_levels, n_ps", [
    ((0.1, 0.5, 0.9), (0.4,), 2),       # one rho_s level: the band is 2 wide
    ((0.5,), (0.4,), 2),                # a single cell
    ((0.5,), (0.1, 0.5, 0.9), 2),       # a single rho_p level
    ((0.1, 0.5), (0.2, 0.6), 9),        # a power average past numpy's unrolled sum
], ids=["one_rho_s", "one_cell", "one_rho_p", "nine_power_levels"])
def test_stacked_evaluation_keeps_every_float_at_the_edges(rho_p_levels, rho_s_levels,
                                                           n_ps, chosen):
    weights = np.arange(1.0, n_ps + 1.0)
    states = StateGrids(rho_p_levels=rho_p_levels, rho_s_levels=rho_s_levels,
                        p_s_levels=tuple(np.linspace(0.5, 2.5, n_ps)),
                        p_s_stationary=tuple(weights / weights.sum()))
    mdp = small_mdp(grids=MdpGrids(states=states, actions=small_grids().actions),
                    chosen=chosen)
    assert_stack_keeps_every_float(mdp, stacked_policies(mdp, np.random.default_rng(5)), 0.9)


@pytest.mark.parametrize("cost", [0.0, 0.1, 2.0])
def test_stacked_evaluation_keeps_every_float_on_the_default_grids(cost):
    mdp, cfg = default_model(CostModel(cost, cost))
    assert_stack_keeps_every_float(mdp, stacked_policies(mdp, np.random.default_rng(41)),
                                   cfg.discount)


def random_band_systems(n, band, n_sys, rng):
    """Strictly diagonally dominant banded systems in `_solve_banded`'s
    storage, the slots outside the matrix NaN, and the mask of the others."""
    rows, slots = np.indices((n, 2 * band + 1))
    inside = (rows + slots - band >= 0) & (rows + slots - band < n)
    bands = np.where(inside, -rng.random((n_sys, n, 2 * band + 1)) / (2 * band + 1), np.nan)
    bands[:, :, band] = 1.0 + rng.random((n_sys, n))
    return bands, rng.normal(size=(n_sys, n)), inside


def dense_from_bands(bands, band):
    n = bands.shape[0]
    dense = np.zeros((n, n))
    for i, j in np.ndindex(n, n):
        if abs(i - j) <= band:
            dense[i, j] = bands[i, band + j - i]
    return dense


@pytest.mark.parametrize("n, band", [(100, 11), (7, 3), (3, 2), (1, 2)])
def test_banded_solve_never_reads_outside_the_band(n, band):
    # every slot that lies outside the matrix holds NaN; none may reach x
    rng = np.random.default_rng(n * band)
    bands, b, inside = random_band_systems(n, band, 4, rng)
    x = _solve_banded(bands.copy(), b.copy(), band)
    assert np.all(np.isfinite(x))
    assert x.tobytes() == _solve_banded(np.where(inside, bands, 0.0), b.copy(), band).tobytes()
    for p in range(len(b)):
        dense = dense_from_bands(bands[p], band)
        assert x[p].tobytes() == solve_banded_dense(dense, b[p].copy(), band).tobytes()


def test_exact_evaluation_reports_each_relative_residual():
    mdp, cfg = default_model(CostModel(0.0, 0.0), chosen=True)
    stack = stacked_policies(mdp, np.random.default_rng(43))
    values, residual = evaluate_policy_exact(mdp, stack, cfg.discount)
    assert values.shape == stack.shape
    assert residual.shape == (len(stack),)
    assert np.all(residual < 1e-12)
    assert residual[-1] == residual[3]                  # the repeated row
    one, one_residual = evaluate_policy_exact(mdp, stack[0], cfg.discount)
    assert one.tobytes() == values[0].tobytes()
    assert one_residual.shape == () and one_residual == residual[0]


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_kernel_properties(case):
    mdp = case[0]
    grids, params = mdp.grids, mdp.params
    sg, ag = grids.states, grids.actions
    n_rp, n_rs, n_ps, _, n_ic = grids.shape
    q = params.queues
    kernel = mdp.kernel                           # (mp, ms, r, u, v, a)
    assert np.all(kernel >= 0.0)
    np.testing.assert_allclose(kernel.sum(axis=(0, 1)), 1.0, rtol=0.0, atol=1e-12)
    pstat = np.array(sg.p_s_stationary)

    for r, u, v in np.ndindex(n_rp, n_rs, n_ps):
        for a in range(mdp.n_actions):
            pd, ic = ag.pd_levels[a // n_ic], ag.ic_levels[a % n_ic]
            # the library's slot physics against the scalar reference physics
            slot = (sg.rho_p_levels[r], sg.rho_s_levels[u], sg.p_s_levels[v])
            dist, srv_p, srv_s = outcome_kernel(*slot, pd, ic, params)
            terms = _outcome_terms(*slot, false_alarm_from_detection(pd, params.sensing),
                                   pd, constrained_power(params.power, ic), params)
            for got, want in zip(terms, (dist, srv_p, srv_s)):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

            # the compiled kernel against the reference physics aggregated by
            # a hand-written birth-death step
            hand = np.zeros((3, 3))
            for x in range(4):
                bd_p = _hand_birth_death(r, n_rp, q.lambda_p, srv_p[x])
                bd_s = _hand_birth_death(u, n_rs, q.lambda_s, srv_s[x])
                for mp, ms in np.ndindex(3, 3):
                    hand[mp, ms] += dist[x] * bd_p[mp - 1] * bd_s[ms - 1]
            np.testing.assert_allclose(kernel[:, :, r, u, v, a], hand, rtol=0.0, atol=1e-15)

            # a scalar row is the kernel's nine moves times the power redraw
            expected = np.zeros((n_rp + 2, n_rs + 2, n_ps))
            for mp, ms in np.ndindex(3, 3):
                expected[r + mp, u + ms] = kernel[mp, ms, r, u, v, a] * pstat
            next_states, probs = transition(
                mdp, int(np.ravel_multi_index((r, u, v, 0, 0), grids.shape)), a)
            got = np.zeros((n_rp, n_rs, n_ps))
            got[np.unravel_index(next_states, grids.shape)[:3]] = probs
            np.testing.assert_allclose(got, expected[1:-1, 1:-1], rtol=0.0, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(small_models())
def test_values_lie_within_the_discounted_reward_range(case):
    mdp, _, _, d = case
    vt, _ = value_iteration(mdp, SolverConfig(epsilon=1e-9, discount=d))
    assert vt.converged
    r = dense_rewards(mdp)
    # V* lies in [min r, max r] / (1 - d); the iterate is within the
    # a-posteriori bound d * residual / (1 - d) of V*
    slack = (d * vt.final_residual + 1e-12 * max(1.0, np.abs(r).max())) / (1.0 - d)
    values = state_values(mdp, vt.values)
    assert np.all(values >= r.min() / (1.0 - d) - slack)
    assert np.all(values <= r.max() / (1.0 - d) + slack)


# ---------------------------------------------------------------------------
# action elimination


def test_restricting_to_every_column_copies_nothing():
    mdp = small_mdp()
    bellman = _BlockBellman(mdp, 0.9, np.arange(2, mdp.n_actions))
    kernel, step_reward, columns = bellman.kernel, bellman.step_reward, bellman.columns
    bellman.restrict(np.ones(columns.size, dtype=bool))
    assert bellman.kernel is kernel and bellman.step_reward is step_reward
    np.testing.assert_array_equal(bellman.columns, columns)
    keep = np.arange(columns.size) % 2 == 0
    bellman.restrict(keep)
    np.testing.assert_array_equal(bellman.columns, columns[keep])
    np.testing.assert_array_equal(bellman.kernel, kernel[..., keep])


def assert_matches_full_columns(mdp, cfg, mode="joint", pinned=None, reference=None):
    """Value iteration against the full-column block iteration at cfg, or its
    given `reference` run, bit for bit: values, residuals, sweeps and actions."""
    vt, pt = value_iteration(mdp, cfg, mode=mode, pinned=pinned)
    ref, ref_pt = reference or value_iteration_full_columns(mdp, cfg, mode=mode, pinned=pinned)
    assert state_values(mdp, vt.values).tobytes() == ref.values.tobytes()
    assert vt.residuals == ref.residuals
    assert vt.iterations == ref.iterations and vt.converged == ref.converged
    assert pt.actions.dtype == ref_pt.actions.dtype
    np.testing.assert_array_equal(pt.actions, ref_pt.actions)
    return vt, pt


@st.composite
def slow_mixing_models(draw):
    """A model whose greedy cap still moves well after the first elimination
    test at sweep 25, so a test that drops columns without its margins fails.

    The default physics on 6 to 10 rho_p levels (the primary queue moves one
    level a slot, so the value landscape takes many sweeps to spread over
    the grid), a fine geometric cap grid at the low end, where the
    throughput of declared-busy slots still rises with the cap, and a
    discount of 0.97 to 0.99.  On these draws about a quarter of the cases
    change a block's greedy cap after sweep 25."""
    weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=2))
    n_rp = draw(st.integers(6, 10))
    states = StateGrids(rho_p_levels=tuple(0.9 * k / (n_rp - 1) for k in range(n_rp)),
                        rho_s_levels=tuple(sorted(draw(st.lists(
                            st.floats(0.0, 0.95), min_size=2, max_size=3, unique=True)))),
                        p_s_levels=tuple(sorted(draw(st.lists(
                            st.floats(0.1, 3.0), min_size=len(weights),
                            max_size=len(weights), unique=True)))),
                        p_s_stationary=tuple(w / sum(weights) for w in weights))
    lowest_cap = draw(st.floats(10.0**-1.5, 0.1))
    actions = ActionGrids(pd_levels=draw(_levels(0.0, 1.0, 2)),
                          ic_levels=tuple(lowest_cap * 1.26**k
                                          for k in range(draw(st.integers(6, 10)))))
    costs = CostModel(s_const=draw(st.floats(0.0, 3.0)), c_const=draw(st.floats(0.0, 3.0)))
    return build_spectrum_mdp(MdpGrids(states=states, actions=actions),
                              resolve_config(None).model_params(), costs,
                              reward_uses_chosen_action=draw(st.booleans()))


@st.composite
def elimination_cases(draw):
    """A random small model, stopping rule and mode, weighted towards exact
    ties: caps above p_av * mean_g_sp = 3 give the same power, so their
    columns tie, and the costs may be zero and the discount 0.  One draw in
    two is a slow-mixing model instead, where the greedy action changes
    late."""
    if draw(st.booleans()):
        mdp = draw(slow_mixing_models())
        discount = draw(st.floats(0.97, 0.99))
        # a pinned cap leaves only the pd columns, which settle early
        modes = ["joint", "fixed_pd"]
    else:
        mdp = draw(small_models())[0]
        ic_levels = draw(_levels(0.05, 2.9, 2))
        if draw(st.booleans()):
            ic_levels += (4.0, 8.0)
        pd_levels = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3, unique=True))
        actions = ActionGrids(pd_levels=tuple(sorted(pd_levels)), ic_levels=ic_levels)
        costs = draw(st.sampled_from([CostModel(0.0, 0.0), None]))
        if costs is None:
            costs = CostModel(s_const=draw(st.floats(0.0, 3.0)),
                              c_const=draw(st.floats(0.0, 3.0)))
        mdp = build_spectrum_mdp(MdpGrids(states=mdp.grids.states, actions=actions),
                                 mdp.params, costs,
                                 reward_uses_chosen_action=mdp.reward_uses_chosen_action)
        discount = draw(st.sampled_from([0.0, 0.9, 0.98]) | st.floats(0.5, 0.98))
        modes = ["joint", "fixed_pd", "fixed_ic"]
    cfg = SolverConfig(epsilon=draw(st.sampled_from([1e-6, 1e-9, 1e-12])),
                       max_iters=4000, discount=discount)
    mode = draw(st.sampled_from(modes))
    actions = mdp.grids.actions
    pinned = None if mode == "joint" else draw(st.integers(
        0, len(actions.pd_levels if mode == "fixed_pd" else actions.ic_levels) - 1))
    return mdp, cfg, mode, pinned


@settings(max_examples=60, deadline=None)
@given(elimination_cases())
def test_action_elimination_keeps_every_float(case):
    mdp, cfg, mode, pinned = case
    vt, _ = assert_matches_full_columns(mdp, cfg, mode, pinned)
    n_pd = len(mdp.grids.actions.pd_levels)
    n_ic = len(mdp.grids.actions.ic_levels)
    allowed = {"joint": n_pd * n_ic, "fixed_pd": n_ic, "fixed_ic": n_pd}[mode]
    assert 1 <= vt.active_actions <= allowed


def full_column_reference(mdp, cfg, mode="joint", pinned=None, stops=()):
    """`value_iteration_full_columns` at cfg, read also at the looser stopping
    rules `stops` (a prefix of its iterates), with `_may_still_win` applied to
    its own Q over the mode's columns as value iteration applies it.  Returns
    {epsilon: (vt, pt)}, the number of columns ruled out, and the largest
    q(b, a) - max q(b, :) of a ruled-out a on every later iterate and at the
    Howard fixed point from the last one: below 0, or -inf if none."""
    bellman = _BlockBellman(mdp, cfg.discount, _allowed_columns(mdp, mode, pinned))
    reward_bound = float(np.max(np.abs(bellman.step_reward)))
    dropped = np.zeros(bellman.columns.size, dtype=bool)
    runs, last, worst = {}, [], -np.inf

    def dropped_gap(q, columns):
        # q's column columns[i] holds the mode's i-th
        return float(np.max(q[:, columns[dropped]] - q.max(axis=-1)[:, None], initial=-np.inf))

    def observe(w, q, residuals):
        nonlocal dropped, worst
        # as value iteration: Q(W_{k-1}) when it appends residual k, W_0 = W_1
        if len(residuals) > 1 and len(residuals) % _ELIMINATION_PERIOD == 0:
            (w_before, _), (w_last, q_last) = last
            dropped |= ~_may_still_win(q_last[:, bellman.columns], w, w_last - w_before,
                                       cfg.discount, reward_bound)
        worst = max(worst, dropped_gap(q, bellman.columns))
        for epsilon in stops:
            if epsilon not in runs and residuals[-1] <= epsilon:
                runs[epsilon] = (ValueTable(state_values(mdp, w), True, list(residuals)),
                                 PolicyTable(q.argmax(axis=-1)))
        last[:] = [last[-1] if last else (w, q), (w, q)]

    runs[cfg.epsilon] = value_iteration_full_columns(mdp, cfg, mode, pinned, observe=observe)
    # Howard's steps over the mode's columns, from the last iterate
    evaluated, greedy = set(), runs[cfg.epsilon][1].actions
    while greedy.tobytes() not in evaluated:
        evaluated.add(greedy.tobytes())
        q = bellman.q(evaluate_policy_exact(mdp, greedy, cfg.discount)[0])
        greedy = bellman.greedy(q)
    return runs, int(dropped.sum()), max(worst, dropped_gap(q, np.arange(dropped.size)))


@functools.cache
def default_grid_reference(costs, mode, pinned, chosen):
    """`full_column_reference` of a default-grid model at 5e-12, so many
    iterates follow the last elimination, and at the default 1e-6."""
    mdp, cfg = default_model(costs, chosen)
    return full_column_reference(mdp, dataclasses.replace(cfg, epsilon=5e-12), mode, pinned,
                                 stops=(1e-6,))


@pytest.mark.parametrize("mode, pinned, chosen", [("joint", None, False),
                                                  ("fixed_pd", 8, True)])
@pytest.mark.parametrize("epsilon", [1e-6, 5e-12])
@pytest.mark.parametrize("costs", [None, CostModel(0.0, 0.0)],
                         ids=["default_costs", "zero_costs"])
def test_action_elimination_keeps_every_float_on_the_default_grids(costs, epsilon,
                                                                   mode, pinned, chosen):
    # at pd level 8 with the chosen-action reward the greedy cap changes
    # well after the first elimination test, so a test without its margins
    # fails there
    mdp, cfg = default_model(costs, chosen)
    runs, _, _ = default_grid_reference(costs, mode, pinned, chosen)
    vt, _ = assert_matches_full_columns(mdp, dataclasses.replace(cfg, epsilon=epsilon),
                                        mode, pinned, reference=runs[epsilon])
    # the columns left at the end, the same at both stopping rules; a weaker
    # margin leaves more (11 and 25 joint, 20 and 21 at pd level 8, at 1e-6)
    active = {("joint", True): 1, ("joint", False): 25,
              ("fixed_pd", True): 8, ("fixed_pd", False): 1}
    assert vt.active_actions == active[mode, costs is None]


@settings(max_examples=60, deadline=None)
@given(elimination_cases())
def test_eliminated_columns_never_win_later(case):
    mdp, cfg, mode, pinned = case
    assert full_column_reference(mdp, cfg, mode, pinned)[2] < 0.0


@pytest.mark.parametrize("mode, pinned, chosen", [("joint", None, False),
                                                  ("fixed_pd", 8, True)])
@pytest.mark.parametrize("costs", [None, CostModel(0.0, 0.0)],
                         ids=["default_costs", "zero_costs"])
def test_eliminated_columns_never_win_later_on_the_default_grids(costs, mode, pinned,
                                                                 chosen):
    _, dropped, gap = default_grid_reference(costs, mode, pinned, chosen)
    assert dropped > 0
    assert gap < 0.0


def late_cap_model(chosen):
    """The slow-mixing model hypothesis reduces to (seed 1) when the
    elimination margin leaves out `span`: 6 rho_p levels, one pd level and
    six caps from 0.086 up, costs s = 0 and c = 1."""
    states = StateGrids(rho_p_levels=tuple(0.9 * k / 5 for k in range(6)),
                        rho_s_levels=(0.0, 0.5), p_s_levels=(0.5, 1.0),
                        p_s_stationary=(0.5, 0.5))
    actions = ActionGrids(pd_levels=(0.5,), ic_levels=tuple(0.0859375 * 1.26**k
                                                            for k in range(6)))
    return build_spectrum_mdp(MdpGrids(states=states, actions=actions),
                              resolve_config(None).model_params(), CostModel(0.0, 1.0),
                              reward_uses_chosen_action=chosen)


@pytest.mark.parametrize("chosen", [False, True])
@pytest.mark.parametrize("epsilon", [1e-6, 1e-12])
def test_elimination_keeps_every_float_when_the_cap_moves_late(epsilon, chosen):
    # a margin without span drops 4 of the 6 caps here, one of which reaches
    # a later maximum; the property tests draw such a model only on some seeds
    mdp = late_cap_model(chosen)
    cfg = SolverConfig(epsilon=epsilon, max_iters=4000, discount=0.984375)
    vt, _ = assert_matches_full_columns(mdp, cfg)
    assert vt.active_actions == 3
    _, dropped, gap = full_column_reference(mdp, cfg)
    assert dropped == 3
    assert gap < 0.0


# ---------------------------------------------------------------------------
# policy iteration


def default_model(costs=None, chosen=False):
    rc = resolve_config(None)
    return build_spectrum_mdp(rc.grids(), rc.model_params(), costs or rc.costs(),
                              reward_uses_chosen_action=chosen), rc.solver_config()


# value iteration on the default grids, keyed by s = c (2 is the default):
# sweeps, columns still backed up at the end, the last residual and W at the
# first, middle and last block, bit for bit, recorded on x86-64
GOLDEN_SOLVE = {
    2.0: (534, 1, "0x1.0ad88c4c00000p-20",
          {0: "0x1.9c743ada38647p+2", 200: "0x1.69a1d74b9b609p+1",
           399: "0x1.29aa8c7e54401p+1"}),
    0.0: (605, 25, "0x1.08d2677800000p-20",
          {0: "0x1.2c45bf2fe6ad8p+3", 200: "0x1.02005204a6a1cp+3",
           399: "0x1.f6260aeda48eep+2"}),
}


@pytest.mark.parametrize("cost", sorted(GOLDEN_SOLVE))
def test_value_iteration_keeps_its_golden_floats_on_the_default_grids(cost):
    iterations, active, residual, values = GOLDEN_SOLVE[cost]
    vt, _ = value_iteration(*default_model(CostModel(cost, cost)))
    assert vt.converged and vt.values.shape == (400,)
    assert (vt.iterations, vt.active_actions) == (iterations, active)
    assert vt.final_residual == float.fromhex(residual)
    for block, value in values.items():
        assert vt.values[block] == float.fromhex(value), block


@pytest.mark.parametrize("chosen", [False, True])
@pytest.mark.parametrize("costs", [None, CostModel(0.0, 0.0)],
                         ids=["default_costs", "zero_costs"])
def test_policy_iteration_matches_value_iteration_on_the_default_grids(costs, chosen):
    mdp, cfg = default_model(costs, chosen)
    vt, pt = value_iteration(mdp, cfg)
    pv, pp = policy_iteration(mdp, cfg)
    assert vt.converged and pv.converged
    np.testing.assert_array_equal(pp.actions, pt.actions)
    # value iteration's a-posteriori bound on its own distance to V*
    bound = cfg.discount * vt.final_residual / (1.0 - cfg.discount)
    assert np.max(np.abs(state_values(mdp, pv.values)
                         - state_values(mdp, vt.values))) <= bound + 1e-9
    assert pv.iterations <= 10
    # policy iteration evaluates through the exact evaluator's path
    np.testing.assert_array_equal(
        pv.values, evaluate_policy_exact(mdp, pp.actions, cfg.discount)[0])


@pytest.mark.parametrize("chosen", [False, True])
def test_policy_iteration_matches_the_dense_route(chosen):
    mdp = small_mdp(chosen=chosen)
    cfg = SolverConfig(epsilon=1e-12, discount=0.9)
    vt, pt = policy_iteration(mdp, cfg)
    dense, greedy = value_iteration_dense(*materialize_dense(mdp), cfg)
    assert vt.converged and dense.converged
    np.testing.assert_allclose(state_values(mdp, vt.values), dense.values, rtol=0.0,
                               atol=1e-10)
    np.testing.assert_array_equal(lifted(mdp, pt.actions), greedy)
    assert vt.final_residual <= 1e-12
    np.testing.assert_array_equal(vt.values, evaluate_policy_exact(mdp, pt.actions, 0.9)[0])


def test_policy_iteration_step_cap_reports_no_convergence():
    mdp, cfg = default_model(CostModel(0.0, 0.0))
    full, _ = policy_iteration(mdp, cfg)
    assert full.converged and full.iterations == 5
    capped, _ = policy_iteration(mdp, dataclasses.replace(cfg, max_iters=1))
    assert not capped.converged
    assert capped.iterations == 1 and len(capped.residuals) == 1


def test_policy_iteration_stops_when_tied_actions_alternate():
    # with rho_s = 0 and no interference charge the two caps tie exactly;
    # rounding in the linear solves then flips the greedy choice between
    # them, which a stop on "same policy as the last step" never catches
    states = StateGrids(rho_p_levels=(0.0, 0.5), rho_s_levels=(0.0,),
                        p_s_levels=(0.5, 2.5), p_s_stationary=(0.5, 0.5))
    params = make_params(queues=QueueParams(
        lambda_s=0.3, mu_s_max=0.8, lambda_p=0.77, mu_p_max=1.0,
        lambda_ps=0.1, mu_ps_max=0.5))
    mdp = build_spectrum_mdp(
        MdpGrids(states=states, actions=ActionGrids((0.3,), (0.5, 2.5))),
        params, CostModel(2.0, 0.0))
    for d in (0.9, 0.95):
        cfg = SolverConfig(epsilon=1e-12, max_iters=20, discount=d)
        pv, _ = policy_iteration(mdp, cfg)
        assert pv.converged
        vt, _ = value_iteration(mdp, dataclasses.replace(cfg, max_iters=2000))
        np.testing.assert_allclose(state_values(mdp, pv.values), state_values(mdp, vt.values),
                                   rtol=0.0, atol=1e-9)


def test_solvers_stop_on_a_non_finite_residual():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-9, max_iters=50, discount=0.9)
    reward_vec = mdp.reward_vec.copy()
    reward_vec[3] = np.nan
    vt, _ = value_iteration(dataclasses.replace(mdp, reward_vec=reward_vec), cfg)
    assert not vt.converged
    assert vt.iterations == 1 and np.isnan(vt.final_residual)

    g_action = mdp.g_action.copy()
    g_action.flat[3] = np.nan
    pv, _ = policy_iteration(dataclasses.replace(mdp, g_action=g_action), cfg)
    assert not pv.converged
    assert pv.iterations == 1 and np.isnan(pv.final_residual)


@settings(max_examples=60, deadline=None)
@given(small_models())
def test_policy_iteration_properties(case):
    mdp, _, _, d = case
    cfg = SolverConfig(epsilon=1e-12, discount=d)
    joint, _ = policy_iteration(mdp, cfg)
    assert joint.converged
    values = state_values(mdp, joint.values)
    scale = max(1.0, float(np.max(np.abs(values))))
    # the joint values are value iteration's on the dense arrays
    dense, _ = value_iteration_dense(*materialize_dense(mdp), cfg)
    np.testing.assert_allclose(values, dense.values, rtol=0.0,
                               atol=1e-9 * scale)
