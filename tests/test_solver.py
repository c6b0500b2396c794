"""Value and policy iteration: both routes, policy evaluation and the lookup table."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogrelay.config import resolve_config
from cogrelay.mdp import (ActionGrids, AugmentedState, ControlAction, CostModel,
                          MdpGrids, PowerPolicy, StateGrids, build_spectrum_mdp,
                          state_from_flat, transition)
from cogrelay.model import ChannelParams, QueueParams
from cogrelay.solver import (LOOKUP_COLUMNS, SolverConfig, _FactoredBackup,
                             evaluate_policy_exact, extract_lookup_table,
                             policy_iteration, value_iteration)
from oracles import (dense_rewards, evaluate_policy, evaluate_policy_dense,
                     materialize_dense, outcome_kernel, value_iteration_dense)
from tests.test_mdp import make_params, small_grids


def small_mdp(costs=None, grids=None, params=None):
    return build_spectrum_mdp(grids or small_grids(), params or make_params(),
                              costs or CostModel(s_const=1.0, c_const=0.5))


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
    assert SolverConfig(discount=0.0).discount == 0.0


def test_zero_reward_model_converges_immediately():
    states = StateGrids(rho_p_levels=(0.1, 0.5), rho_s_levels=(0.0,),
                        p_s_levels=(1.0,), p_s_stationary=(1.0,))
    grids = MdpGrids(states=states, actions=ActionGrids((0.2, 0.8), (0.5,)))
    mdp = build_spectrum_mdp(grids, make_params(), CostModel(0.0, 0.0))
    vt, _ = value_iteration(mdp, SolverConfig(epsilon=1e-12, discount=0.9))
    assert vt.converged
    assert vt.iterations == 1
    np.testing.assert_array_equal(vt.values, np.zeros(mdp.n_states))


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
    assert vt.values[0] == pytest.approx(r0 / (1.0 - 0.9), abs=1e-9)


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
    expected = mdp.g_state - mdp.action_cost[actions]
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
    for evaluate in (lambda a: evaluate_policy(mdp, a, SolverConfig()),
                     lambda a: evaluate_policy_exact(mdp, a, discount=0.9)):
        with pytest.raises(ValueError, match="each of"):
            evaluate(np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="out-of-range"):
            evaluate(np.full(mdp.n_states, mdp.n_actions))
        # a negative index would wrap silently in the (r, u, v, a) gather
        with pytest.raises(ValueError, match="out-of-range"):
            evaluate(np.full(mdp.n_states, -1))


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
    exact = evaluate_policy_exact(mdp, actions, discount=d)
    np.testing.assert_allclose(exact, expected, atol=1e-13)


def test_evaluate_policy_agrees_with_value_iteration():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-9, discount=0.9)
    vt, pt = value_iteration(mdp, cfg)
    jv = evaluate_policy(mdp, pt, cfg)
    np.testing.assert_allclose(jv.values, vt.values, atol=1e-6)


def test_fixed_pd_mode_pins_every_state():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-8, discount=0.9)
    vt, pt = value_iteration(mdp, cfg, mode="fixed_pd", pinned=1)
    assert vt.converged
    assert pt.mode == "fixed_pd"
    assert pt.pinned_pd_idx == 1 and pt.pinned_ic_idx is None
    n_ic = len(mdp.grids.actions.ic_levels)
    assert np.all(pt.pd_idx(n_ic) == 1)


def test_fixed_ic_mode_pins_every_state():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-8, discount=0.9)
    _, pt = value_iteration(mdp, cfg, mode="fixed_ic", pinned=0)
    n_ic = len(mdp.grids.actions.ic_levels)
    assert np.all(pt.ic_idx(n_ic) == 0)
    assert pt.pinned_ic_idx == 0 and pt.pinned_pd_idx is None


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
    assert np.all(joint.values >= pinned.values - 1e-8)


def test_lookup_table_layout():
    mdp = small_mdp()
    vt, pt = value_iteration(mdp, SolverConfig(epsilon=1e-8, discount=0.9))
    table = extract_lookup_table(mdp, vt, pt)
    assert table.columns == LOOKUP_COLUMNS
    assert table.rows.shape == (mdp.n_states, len(LOOKUP_COLUMNS))
    np.testing.assert_array_equal(table.rows[:, -1], vt.values)
    assert set(np.unique(table.rows[:, 5])) <= set(mdp.grids.actions.pd_levels)
    assert set(np.unique(table.rows[:, 6])) <= set(mdp.grids.actions.ic_levels)

    flat = 17
    st = state_from_flat(flat, mdp.grids)
    row = table.row_for(flat)
    sg, ag = mdp.grids.states, mdp.grids.actions
    assert row[0] == sg.rho_p_levels[st.rho_p_idx]
    assert row[1] == sg.rho_s_levels[st.rho_s_idx]
    assert row[2] == sg.p_s_levels[st.p_s_idx]
    assert row[3] == ag.pd_levels[st.prev_pd_idx]
    assert row[4] == ag.ic_levels[st.prev_ic_idx]


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
    assert float(np.max(np.abs(vt.values))) <= bound


def test_factored_route_matches_dense_route():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-10, discount=0.9)
    vt_f, pt_f = value_iteration(mdp, cfg)

    p, r = materialize_dense(mdp)
    np.testing.assert_allclose(p.sum(axis=2), 1.0, atol=1e-12)
    vt_d, greedy = value_iteration_dense(p, r, cfg, initial=mdp.reward_vec)

    assert vt_f.iterations == vt_d.iterations
    np.testing.assert_allclose(vt_f.values, vt_d.values, atol=1e-10)
    np.testing.assert_array_equal(pt_f.actions, greedy)


def test_exact_policy_evaluation_matches_iterative():
    mdp = small_mdp()
    rng = np.random.default_rng(11)
    actions = rng.integers(0, mdp.n_actions, mdp.n_states)
    d = 0.9
    iterative = evaluate_policy(mdp, actions,
                                SolverConfig(epsilon=1e-12, discount=d))
    exact = evaluate_policy_exact(mdp, actions, discount=d)
    np.testing.assert_allclose(iterative.values, exact, atol=1e-10)
    throughput = evaluate_policy_exact(mdp, actions, discount=d,
                                       reward="throughput")
    assert np.all(throughput >= -1e-15)


def scalar_row_oracle(mdp, actions, discount, reward="full"):
    """J_pi and r_pi from the dense arrays built out of scalar transition rows.

    The throughput reward is the chosen-action reward of the same model
    with zero costs, so that case reads the dense arrays of that twin.
    """
    if reward == "throughput":
        mdp = build_spectrum_mdp(mdp.grids, mdp.params, CostModel(0.0, 0.0),
                                 reward_uses_chosen_action=True)
    p, r = materialize_dense(mdp)
    r_pi = r[np.arange(mdp.n_states), actions]
    return evaluate_policy_dense(p, r, actions, discount), r_pi


@pytest.mark.parametrize("chosen", [False, True])
@pytest.mark.parametrize("reward", ["full", "throughput"])
def test_exact_policy_evaluation_matches_scalar_row_oracle(chosen, reward):
    base = small_mdp()
    mdp = build_spectrum_mdp(base.grids, base.params, base.costs,
                             reward_uses_chosen_action=chosen)
    rng = np.random.default_rng(23)
    for d in (0.5, 0.95):
        actions = rng.integers(0, mdp.n_actions, mdp.n_states)
        assert np.unique(actions).size > 1
        exact = evaluate_policy_exact(mdp, actions, discount=d, reward=reward)
        oracle, _ = scalar_row_oracle(mdp, actions, d, reward)
        np.testing.assert_allclose(exact, oracle, rtol=1e-12, atol=1e-12)


def test_batched_continuation_matches_column_by_column():
    backup = _FactoredBackup(small_mdp())
    n_states = backup.mdp.n_states
    rng = np.random.default_rng(5)
    for tables in (rng.normal(size=(n_states, 4)), np.eye(n_states)):
        batched = backup.continuation(tables)
        assert batched.shape == backup.shape + (tables.shape[1],)
        for k in range(tables.shape[1]):
            single = backup.continuation(np.ascontiguousarray(tables[:, k]))
            np.testing.assert_array_equal(batched[..., k], single)


def _levels(lo, hi, max_size):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=max_size,
                    unique=True).map(lambda v: tuple(sorted(v)))


@st.composite
def small_models(draw):
    """A random small slot model, reward selector, discount and policy.

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
    policy = rng.integers(0, mdp.n_actions, mdp.n_states)
    return (mdp, policy, draw(st.sampled_from(["full", "throughput"])),
            draw(st.floats(0.0, 0.95)))


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_exact_policy_evaluation_properties(case):
    mdp, actions, reward, d = case
    exact = evaluate_policy_exact(mdp, actions, discount=d, reward=reward)
    oracle, r_pi = scalar_row_oracle(mdp, actions, d, reward)
    scale = max(1.0, float(np.max(np.abs(r_pi)))) / (1.0 - d)
    np.testing.assert_allclose(exact, oracle, rtol=0.0, atol=1e-12 * scale)
    # J is a discounted average of rewards the policy collects
    slack = 1e-12 * scale
    assert np.all(exact >= r_pi.min() / (1.0 - d) - slack)
    assert np.all(exact <= r_pi.max() / (1.0 - d) + slack)


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_kernel_properties(case):
    mdp = case[0]
    grids, params = mdp.grids, mdp.params
    sg, ag = grids.states, grids.actions
    n_rp, n_rs, n_ps, _, n_ic = grids.shape
    backup = _FactoredBackup(mdp)
    kernel = backup.kernel                        # (mp, ms, r, u, v, a)
    assert np.all(kernel >= 0.0)
    np.testing.assert_allclose(kernel.sum(axis=(0, 1)), 1.0, rtol=0.0, atol=1e-12)

    for r, u, v in np.ndindex(n_rp, n_rs, n_ps):
        for a in range(mdp.n_actions):
            pd, ic = ag.pd_levels[a // n_ic], ag.ic_levels[a % n_ic]
            # the compiled tensors against the scalar reference physics
            dist, srv_p, srv_s = outcome_kernel(sg.rho_p_levels[r], sg.rho_s_levels[u],
                                                sg.p_s_levels[v], pd, ic, params)
            np.testing.assert_allclose(mdp.outcome_dist[r, a // n_ic], dist,
                                       rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(mdp.srv_p[r, v, a], srv_p, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(mdp.srv_s[r, u, v, a], srv_s, rtol=0.0, atol=1e-15)

            # a scalar row is the kernel's nine moves times the power redraw
            expected = np.zeros((n_rp + 2, n_rs + 2, n_ps))
            for mp, ms in np.ndindex(3, 3):
                expected[r + mp, u + ms] = kernel[mp, ms, r, u, v, a] * backup.pstat
            row = transition(AugmentedState(r, u, v, 0, 0),
                             ControlAction(a // n_ic, a % n_ic), grids, params)
            got = np.zeros((n_rp, n_rs, n_ps))
            for nxt, prob in zip(row.states, row.probabilities):
                got[nxt.rho_p_idx, nxt.rho_s_idx, nxt.p_s_idx] = prob
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
    assert np.all(vt.values >= r.min() / (1.0 - d) - slack)
    assert np.all(vt.values <= r.max() / (1.0 - d) + slack)


# ---------------------------------------------------------------------------
# policy iteration


def default_model(costs=None, chosen=False):
    rc = resolve_config(None)
    return build_spectrum_mdp(rc.grids(), rc.model_params(), costs or rc.costs(),
                              reward_uses_chosen_action=chosen), rc.solver_config()


@pytest.mark.parametrize("chosen", [False, True])
@pytest.mark.parametrize("costs", [None, CostModel(0.0, 0.0)],
                         ids=["default_costs", "zero_costs"])
def test_policy_iteration_matches_value_iteration_on_the_default_grids(costs, chosen):
    mdp, cfg = default_model(costs, chosen)
    n_pd = len(mdp.grids.actions.pd_levels)
    n_ic = len(mdp.grids.actions.ic_levels)
    for mode, pinned in (("joint", None), ("fixed_pd", n_pd - 3),
                         ("fixed_ic", n_ic - 1)):
        vt, pt = value_iteration(mdp, cfg, mode=mode, pinned=pinned)
        pv, pp = policy_iteration(mdp, cfg, mode=mode, pinned=pinned)
        assert vt.converged and pv.converged
        np.testing.assert_array_equal(pp.actions, pt.actions)
        assert (pp.mode, pp.pinned_pd_idx, pp.pinned_ic_idx) == \
            (pt.mode, pt.pinned_pd_idx, pt.pinned_ic_idx)
        # value iteration's a-posteriori bound on its own distance to V*
        bound = cfg.discount * vt.final_residual / (1.0 - cfg.discount)
        assert np.max(np.abs(pv.values - vt.values)) <= bound + 1e-9
        assert pv.iterations <= 10


@pytest.mark.parametrize("chosen", [False, True])
def test_policy_iteration_matches_the_dense_route(chosen):
    base = small_mdp()
    mdp = build_spectrum_mdp(base.grids, base.params, base.costs,
                             reward_uses_chosen_action=chosen)
    cfg = SolverConfig(epsilon=1e-12, discount=0.9)
    vt, pt = policy_iteration(mdp, cfg)
    dense, greedy = value_iteration_dense(*materialize_dense(mdp), cfg)
    assert vt.converged and dense.converged
    np.testing.assert_allclose(vt.values, dense.values, rtol=0.0, atol=1e-10)
    np.testing.assert_array_equal(pt.actions, greedy)
    assert vt.final_residual <= 1e-12


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
        np.testing.assert_allclose(pv.values, vt.values, rtol=0.0, atol=1e-9)


def test_solvers_stop_on_a_non_finite_residual():
    mdp = small_mdp()
    cfg = SolverConfig(epsilon=1e-9, max_iters=50, discount=0.9)
    reward_vec = mdp.reward_vec.copy()
    reward_vec[3] = np.nan
    vt, _ = value_iteration(dataclasses.replace(mdp, reward_vec=reward_vec), cfg)
    assert not vt.converged
    assert vt.iterations == 1 and np.isnan(vt.final_residual)

    g_state = mdp.g_state.copy()
    g_state[3] = np.nan
    pv, _ = policy_iteration(dataclasses.replace(mdp, g_state=g_state), cfg)
    assert not pv.converged
    assert pv.iterations == 1 and np.isnan(pv.final_residual)


@st.composite
def pinned_cases(draw):
    mdp, _, _, d = draw(small_models())
    mode = draw(st.sampled_from(["fixed_pd", "fixed_ic"]))
    n = len(mdp.grids.actions.pd_levels if mode == "fixed_pd"
            else mdp.grids.actions.ic_levels)
    return mdp, d, mode, draw(st.integers(0, n - 1))


@settings(max_examples=60, deadline=None)
@given(pinned_cases())
def test_policy_iteration_properties(case):
    mdp, d, mode, pinned = case
    cfg = SolverConfig(epsilon=1e-12, discount=d)
    joint, _ = policy_iteration(mdp, cfg)
    restricted, pt = policy_iteration(mdp, cfg, mode=mode, pinned=pinned)
    assert joint.converged and restricted.converged
    n_ic = len(mdp.grids.actions.ic_levels)
    held = pt.pd_idx(n_ic) if mode == "fixed_pd" else pt.ic_idx(n_ic)
    assert np.all(held == pinned)
    scale = max(1.0, float(np.max(np.abs(joint.values))))
    # a pinned controller never beats the joint one at any state
    assert np.all(restricted.values <= joint.values + 1e-12 * scale)
    # ... and the joint values are value iteration's on the dense arrays
    dense, _ = value_iteration_dense(*materialize_dense(mdp), cfg)
    np.testing.assert_allclose(joint.values, dense.values, rtol=0.0,
                               atol=1e-9 * scale)
