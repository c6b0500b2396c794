"""Value and policy iteration: both routes, policy evaluation and the lookup table."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogrelay.config import resolve_config
from cogrelay.mdp import (ActionGrids, CostModel, MdpGrids, PowerPolicy,
                          StateGrids, _outcome_terms, build_spectrum_mdp,
                          constrained_power, transition)
from cogrelay.model import ChannelParams, QueueParams
from cogrelay.sensing import false_alarm_from_detection
from cogrelay.solver import (_ELIMINATION_PERIOD, LOOKUP_COLUMNS, SolverConfig,
                             _allowed_columns, _BlockBellman, _continuation, _lift,
                             _may_still_win, evaluate_policy_exact, extract_lookup_table,
                             policy_iteration, value_iteration)
from oracles import (dense_rewards, evaluate_policy, evaluate_policy_blocks,
                     evaluate_policy_dense, materialize_dense, outcome_kernel, policy_terms,
                     value_iteration_dense, value_iteration_full_columns,
                     value_iteration_lifted)
from tests.test_mdp import _hand_birth_death, make_params, small_grids


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
    """evaluate_policy_exact under the oracles' reward selector: the model
    itself for "full", its throughput twin for "throughput"."""
    model = throughput_twin(mdp) if reward == "throughput" else mdp
    return evaluate_policy_exact(model, block_actions, discount=discount)


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
    jv = evaluate_policy(mdp, lifted(mdp, pt.actions), cfg)
    np.testing.assert_allclose(jv.values, vt.values, atol=1e-6)


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
    assert np.all(joint.values >= pinned.values - 1e-8)


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
        np.testing.assert_array_equal(rows[:, -1], vt.values)
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
    np.testing.assert_allclose(vt.values, ref.values, rtol=1e-12, atol=0.0)
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
    exact = evaluate_policy_exact(mdp, pt.actions, cfg.discount)
    bound = cfg.discount * vt.final_residual / (1.0 - cfg.discount)
    assert exact.shape == (mdp.n_states,)
    assert np.max(np.abs(exact - vt.values)) <= bound


def test_exact_policy_evaluation_matches_iterative():
    mdp = small_mdp()
    rng = np.random.default_rng(11)
    actions = random_block_policy(mdp, rng)
    assert np.unique(actions).size > 1
    d = 0.9
    iterative = evaluate_policy(mdp, lifted(mdp, actions),
                                SolverConfig(epsilon=1e-12, discount=d))
    exact = evaluate_policy_exact(mdp, actions, discount=d)
    np.testing.assert_allclose(iterative.values, exact, atol=1e-10)
    iterative = evaluate_policy(mdp, lifted(mdp, actions),
                                SolverConfig(epsilon=1e-12, discount=d),
                                reward="throughput")
    throughput = evaluate_policy_exact(throughput_twin(mdp), actions, discount=d)
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
            cont = _continuation(mdp, w)
            assert cont.shape == mdp.g_action.shape
            np.testing.assert_allclose(
                cont, _continuation(mdp, _lift(w, None, mdp.n_actions)),
                rtol=0.0, atol=1e-15 * np.abs(w).max())


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
    exact = evaluate_policy_exact(mdp, actions, discount)
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
    assert np.all(vt.values >= r.min() / (1.0 - d) - slack)
    assert np.all(vt.values <= r.max() / (1.0 - d) + slack)


# ---------------------------------------------------------------------------
# action elimination


def assert_matches_full_columns(mdp, cfg, mode="joint", pinned=None):
    """Value iteration against the full-column block iteration, bit for bit:
    values, residual list, sweep count and block actions."""
    vt, pt = value_iteration(mdp, cfg, mode=mode, pinned=pinned)
    ref, ref_pt = value_iteration_full_columns(mdp, cfg, mode=mode, pinned=pinned)
    assert vt.values.tobytes() == ref.values.tobytes()
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
    vt, _ = assert_matches_full_columns(mdp, dataclasses.replace(cfg, epsilon=epsilon),
                                        mode, pinned)
    # the columns left at the end, the same at both stopping rules; a weaker
    # margin leaves more (11 and 25 joint, 20 and 21 at pd level 8, at 1e-6)
    active = {("joint", True): 1, ("joint", False): 25,
              ("fixed_pd", True): 8, ("fixed_pd", False): 1}
    assert vt.active_actions == active[mode, costs is None]


def assert_dropped_columns_never_win(mdp, cfg, mode="joint", pinned=None):
    """Full-column block value iteration that applies `_may_still_win` at
    every elimination point and checks the span argument directly: each
    column it rules out stays strictly below the block maximum at every
    block, on every later iterate and at the policy-iteration fixed point.
    Returns the number of columns ruled out."""
    bellman = _BlockBellman(mdp, cfg.discount, _allowed_columns(mdp, mode, pinned))
    reward_bound = float(np.max(np.abs(bellman.step_reward[..., bellman.columns])))
    dropped = np.zeros(bellman.columns.size, dtype=bool)

    def assert_below_the_maximum(q):
        assert np.all(q[:, dropped] < q.max(axis=-1)[:, None])

    w = bellman.q_state(mdp.reward_vec).max(axis=-1)
    prev, sweeps, residual = w, 1, np.inf
    while sweeps < cfg.max_iters and residual > cfg.epsilon:
        q = bellman.q(w)
        assert_below_the_maximum(q)
        new_w = q.max(axis=-1)
        residual = float(np.max(np.abs(new_w - w)))
        sweeps += 1
        if sweeps % _ELIMINATION_PERIOD == 0:
            dropped |= ~_may_still_win(q, new_w, w - prev, cfg.discount, reward_bound)
        prev, w = w, new_w
    assert_below_the_maximum(bellman.q(w))

    # Howard's steps over the mode's columns, from the last iterate
    evaluated = set()
    greedy = bellman.greedy(bellman.q(w))
    while greedy.tobytes() not in evaluated:
        evaluated.add(greedy.tobytes())
        q = bellman.q(bellman.evaluate(greedy))
        greedy = bellman.greedy(q)
    assert_below_the_maximum(q)
    return int(dropped.sum())


@settings(max_examples=60, deadline=None)
@given(elimination_cases())
def test_eliminated_columns_never_win_later(case):
    mdp, cfg, mode, pinned = case
    assert_dropped_columns_never_win(mdp, cfg, mode, pinned)


@pytest.mark.parametrize("mode, pinned, chosen", [("joint", None, False),
                                                  ("fixed_pd", 8, True)])
@pytest.mark.parametrize("costs", [None, CostModel(0.0, 0.0)],
                         ids=["default_costs", "zero_costs"])
def test_eliminated_columns_never_win_later_on_the_default_grids(costs, mode, pinned,
                                                                 chosen):
    mdp, cfg = default_model(costs, chosen)
    # a tight stopping rule, so many iterates follow the last elimination
    dropped = assert_dropped_columns_never_win(
        mdp, dataclasses.replace(cfg, epsilon=5e-12), mode, pinned)
    assert dropped > 0


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
    vt, pt = value_iteration(mdp, cfg)
    pv, pp = policy_iteration(mdp, cfg)
    assert vt.converged and pv.converged
    np.testing.assert_array_equal(pp.actions, pt.actions)
    # value iteration's a-posteriori bound on its own distance to V*
    bound = cfg.discount * vt.final_residual / (1.0 - cfg.discount)
    assert np.max(np.abs(pv.values - vt.values)) <= bound + 1e-9
    assert pv.iterations <= 10
    # policy iteration evaluates through the exact evaluator's path
    np.testing.assert_array_equal(
        pv.values, evaluate_policy_exact(mdp, pp.actions, cfg.discount))


@pytest.mark.parametrize("chosen", [False, True])
def test_policy_iteration_matches_the_dense_route(chosen):
    mdp = small_mdp(chosen=chosen)
    cfg = SolverConfig(epsilon=1e-12, discount=0.9)
    vt, pt = policy_iteration(mdp, cfg)
    dense, greedy = value_iteration_dense(*materialize_dense(mdp), cfg)
    assert vt.converged and dense.converged
    np.testing.assert_allclose(vt.values, dense.values, rtol=0.0, atol=1e-10)
    np.testing.assert_array_equal(lifted(mdp, pt.actions), greedy)
    assert vt.final_residual <= 1e-12
    np.testing.assert_array_equal(vt.values, evaluate_policy_exact(mdp, pt.actions, 0.9))


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
    scale = max(1.0, float(np.max(np.abs(joint.values))))
    # the joint values are value iteration's on the dense arrays
    dense, _ = value_iteration_dense(*materialize_dense(mdp), cfg)
    np.testing.assert_allclose(joint.values, dense.values, rtol=0.0,
                               atol=1e-9 * scale)
