"""Grids, rewards and the one-step transition law of the slot model."""

import dataclasses
import math

import numpy as np
import pytest

from cogrelay.config import resolve_config
from cogrelay.model import (OUTCOME_ORDER, ChannelParams, QueueParams,
                            SensingTiming, relay_branch, secondary_branch,
                            success_probability)
from cogrelay.sensing import SensingConfig, false_alarm_from_detection
from cogrelay.mdp import (ActionGrids, CostModel, MdpGrids, ModelParams,
                          PowerPolicy, StateGrids, _outcome_terms,
                          build_spectrum_mdp, constrained_power,
                          sensing_outcome_distribution, transition,
                          truncated_exponential_levels, validate)
from oracles import outcome_kernel, reward


def make_params(**kw):
    ch = kw.pop("channel", None) or ChannelParams(
        gamma_s=10.0, gamma_p=10.0, gamma_sp=5.0, gamma_ps=1.0,
        beta_s=0.5, beta_sp=0.5, beta_p=1.0)
    q = kw.pop("queues", None) or QueueParams(
        lambda_s=0.5, mu_s_max=0.8, lambda_p=0.2, mu_p_max=1.0,
        lambda_ps=0.1, mu_ps_max=0.5)
    return ModelParams(
        channel=ch, queues=q,
        timing=kw.pop("timing", None) or SensingTiming(tau=0.3e-3, t_frame=1e-3),
        sensing=kw.pop("sensing", None) or SensingConfig(
            gamma_se=10.0 ** -1.5, tau=0.3e-3, f_s=1e6),
        power=kw.pop("power", None) or PowerPolicy(p_av=3.0, mean_g_sp=1.0),
    )


def small_grids(pd_levels=(0.2, 0.8), ic_levels=(0.5, 2.0)):
    states = StateGrids(rho_p_levels=(0.1, 0.5, 0.9), rho_s_levels=(0.3, 0.7),
                        p_s_levels=(1.0, 2.5), p_s_stationary=(0.6, 0.4))
    return MdpGrids(states=states, actions=ActionGrids(pd_levels, ic_levels))


# ---------------------------------------------------------------------------
# grids


def test_state_grids_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        StateGrids(rho_p_levels=(0.5, 0.1), rho_s_levels=(0.1,),
                   p_s_levels=(1.0,), p_s_stationary=(1.0,))


def test_state_grids_utilisation_range_excludes_one():
    with pytest.raises(ValueError):
        StateGrids(rho_p_levels=(0.5, 1.0), rho_s_levels=(0.1,),
                   p_s_levels=(1.0,), p_s_stationary=(1.0,))


def test_state_grids_stationary_law_checked():
    with pytest.raises(ValueError, match="sum to 1"):
        StateGrids(rho_p_levels=(0.1,), rho_s_levels=(0.1,),
                   p_s_levels=(1.0, 2.0), p_s_stationary=(0.6, 0.3))
    with pytest.raises(ValueError, match="match"):
        StateGrids(rho_p_levels=(0.1,), rho_s_levels=(0.1,),
                   p_s_levels=(1.0, 2.0), p_s_stationary=(1.0,))


def test_action_grids_ranges():
    with pytest.raises(ValueError):
        ActionGrids(pd_levels=(0.5, 1.2), ic_levels=(1.0,))
    with pytest.raises(ValueError):
        ActionGrids(pd_levels=(0.5,), ic_levels=(0.0, 1.0))
    assert ActionGrids(pd_levels=(0.0, 1.0), ic_levels=(0.1,)).n_actions == 2


def test_default_grid_cardinality():
    grids = resolve_config(None).grids()
    assert grids.shape == (10, 10, 4, 11, 21)
    assert grids.n_states == 92_400


def test_truncated_exponential_levels():
    mean, cap, n = 2.0, 3.0, 5
    levels, probs = truncated_exponential_levels(mean, cap, n)
    assert len(levels) == n
    assert all(0.0 < lvl <= cap for lvl in levels)
    assert all(a < b for a, b in zip(levels, levels[1:]))
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    # cell means must average to the overall truncated-exponential mean
    z = 1.0 - math.exp(-cap / mean)
    overall = mean - cap * math.exp(-cap / mean) / z
    assert sum(l * p for l, p in zip(levels, probs)) == pytest.approx(
        overall, rel=1e-12)
    with pytest.raises(ValueError):
        truncated_exponential_levels(-1.0, cap, n)


def test_flat_index_round_trip():
    # every next state of every row decodes to a block one rho_p step and one
    # rho_s step away at most, at any power level, carrying the applied action
    grids = small_grids()
    mdp = build_spectrum_mdp(grids, make_params(), CostModel())
    n_ps = len(grids.states.p_s_levels)
    for state in range(grids.n_states):
        rp, rs = np.unravel_index(state, grids.shape)[:2]
        for action in range(grids.actions.n_actions):
            next_states, _ = transition(mdp, state, action)
            nrp, nrs, nps, npd, nic = np.unravel_index(next_states, grids.shape)
            assert np.all(np.abs(nrp - rp) <= 1) and np.all(np.abs(nrs - rs) <= 1)
            assert set(nps.tolist()) == set(range(n_ps))
            assert np.all(np.ravel_multi_index((npd, nic), grids.shape[3:]) == action)
    for state, action in ((grids.n_states, 0), (-1, 0),
                          (0, grids.actions.n_actions), (0, -1)):
        with pytest.raises(ValueError):
            transition(mdp, state, action)


# ---------------------------------------------------------------------------
# elementary operations


def test_constrained_power_budget_limited():
    pp = PowerPolicy(p_av=3.1623, mean_g_sp=1.0)
    assert constrained_power(pp, 10.0) == 3.1623


def test_constrained_power_interference_limited():
    pp = PowerPolicy(p_av=3.1623, mean_g_sp=1.0)
    assert constrained_power(pp, 0.0316) == min(3.1623, 0.0316) == 0.0316


def test_constrained_power_boundary_and_gain():
    pp = PowerPolicy(p_av=2.0, mean_g_sp=4.0)
    assert constrained_power(pp, 8.0) == 2.0
    assert constrained_power(pp, 1.0) == 0.25
    with pytest.raises(ValueError):
        constrained_power(pp, 0.0)


def test_reference_power_defaults_to_budget():
    assert PowerPolicy(p_av=2.0).reference_power == 2.0
    assert PowerPolicy(p_av=2.0, p_ref=5.0).reference_power == 5.0
    with pytest.raises(ValueError):
        PowerPolicy(p_av=0.0)


def test_outcome_distribution_idle_primary():
    np.testing.assert_allclose(sensing_outcome_distribution(0.0, 0.5, 0.3),
                               [0.3, 0.7, 0.0, 0.0], atol=1e-15)


def test_outcome_distribution_busy_primary():
    np.testing.assert_allclose(sensing_outcome_distribution(1.0, 0.9, 0.3),
                               [0.0, 0.0, 0.1, 0.9], atol=1e-15)


def test_outcome_distribution_mixed():
    dist = sensing_outcome_distribution(0.5, 0.8, 0.2)
    np.testing.assert_allclose(dist, [0.1, 0.4, 0.1, 0.4], atol=1e-15)
    assert dist.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        sensing_outcome_distribution(1.2, 0.8, 0.2)


# ---------------------------------------------------------------------------
# reward


def test_reward_empty_secondary_queue_is_pure_cost():
    states = StateGrids(rho_p_levels=(0.2,), rho_s_levels=(0.0, 0.5),
                        p_s_levels=(1.0,), p_s_stationary=(1.0,))
    grids = MdpGrids(states=states, actions=ActionGrids((0.6,), (0.8,)))
    params = make_params()
    costs = CostModel(s_const=2.0, c_const=3.0)
    expected = -(2.0 * 0.6 + 3.0 * constrained_power(params.power, 0.8))
    assert reward(0, grids, params, costs) == pytest.approx(expected, abs=1e-15)


def test_reward_frozen_composition():
    # idle primary, zero cut-off, costless: 0.7 * 0.625 * exp(-0.1);
    # pd=0 forces pf=0, so all probability sits on the clean idle branch
    ch = ChannelParams(gamma_s=10.0, gamma_p=10.0, gamma_sp=5.0, gamma_ps=1.0,
                       beta_s=0.0, beta_sp=0.0, beta_p=1.0)
    params = make_params(channel=ch)
    states = StateGrids(rho_p_levels=(0.0, 0.5), rho_s_levels=(0.625,),
                        p_s_levels=(1.0,), p_s_stationary=(1.0,))
    grids = MdpGrids(states=states, actions=ActionGrids((0.0,), (1.0,)))
    out = reward(0, grids, params, CostModel(0.0, 0.0))
    assert out == pytest.approx(0.39586637039073231, rel=1e-12)


def test_reward_cost_terms_are_linear():
    grids = small_grids(pd_levels=(0.5, 1.0), ic_levels=(0.1, 2.0))
    params = make_params()
    # prev action (pd=1, ic at grid max)
    st = int(np.ravel_multi_index((1, 1, 0, 1, 1), grids.shape))
    base = reward(st, grids, params, CostModel(0.0, 0.0))
    charged = reward(st, grids, params, CostModel(2.0, 2.0))
    ps1_max = constrained_power(params.power, 2.0)
    assert charged - base == pytest.approx(-2.0 * 1.0 - 2.0 * ps1_max, abs=1e-14)


# ---------------------------------------------------------------------------
# transition


def _hand_birth_death(idx, n, lam, srv):
    """Independent enumeration of the arrival/service square."""
    up = lam * (1.0 - srv)
    down = srv * (1.0 - lam)
    if idx == 0:
        down = 0.0
    if idx == n - 1:
        up = 0.0
    return {-1: down, 0: 1.0 - up - down, 1: up}


def test_transition_rows_sum_to_one():
    grids = small_grids()
    mdp = build_spectrum_mdp(grids, make_params(), CostModel())
    for state in range(grids.n_states):
        for action in range(grids.actions.n_actions):
            _, probs = transition(mdp, state, action)
            assert sum(probs.tolist()) == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs > 0.0)


def test_transition_stamps_applied_action():
    grids = small_grids()
    mdp = build_spectrum_mdp(grids, make_params(), CostModel())
    state = int(np.ravel_multi_index((1, 0, 1, 0, 0), grids.shape))
    next_states, _ = transition(mdp, state, 2)    # pd index 1, ic index 0
    _, _, _, prev_pd, prev_ic = np.unravel_index(next_states, grids.shape)
    assert np.all(prev_pd == 1)
    assert np.all(prev_ic == 0)


def test_transition_empty_primary_queue_absorbs_without_arrivals():
    params = make_params(queues=QueueParams(
        lambda_s=0.5, mu_s_max=0.8, lambda_p=0.0, mu_p_max=1.0,
        lambda_ps=0.1, mu_ps_max=0.5))
    states = StateGrids(rho_p_levels=(0.0, 0.4, 0.8), rho_s_levels=(0.3, 0.7),
                        p_s_levels=(1.0, 2.5), p_s_stationary=(0.6, 0.4))
    grids = MdpGrids(states=states, actions=ActionGrids((0.2, 0.8), (0.5, 2.0)))
    state = int(np.ravel_multi_index((0, 1, 0, 0, 0), grids.shape))
    mdp = build_spectrum_mdp(grids, params, CostModel())
    next_states, probs = transition(mdp, state, 3)  # pd index 1, ic index 1
    rho_p_idx = np.unravel_index(next_states, grids.shape)[0]
    mass_at_zero = sum(probs[rho_p_idx == 0].tolist())
    assert mass_at_zero == pytest.approx(1.0, abs=1e-12)


def test_transition_mid_state_birth_death_masses():
    """Engineered slot where the primary service probability is exactly 0.5.

    pd=1 declares every slot busy, so the protected direct link succeeds
    with exp(-beta_p/gamma_p) = 0.8; with pi1 = 0.625 and no relay traffic
    the service probability is 0.8 * 0.625 = 0.5, and with lambda_p = 0.3
    the mid-state move masses must be up 0.15, down 0.35, stay 0.5.
    """
    ch = ChannelParams(gamma_s=10.0, gamma_p=10.0, gamma_sp=5.0, gamma_ps=1.0,
                       beta_s=0.5, beta_sp=0.5, beta_p=10.0 * math.log(1.25))
    params = make_params(channel=ch, queues=QueueParams(
        lambda_s=0.5, mu_s_max=0.8, lambda_p=0.3, mu_p_max=1.0,
        lambda_ps=0.0, mu_ps_max=1.0))
    states = StateGrids(rho_p_levels=(0.3, 0.625, 0.9), rho_s_levels=(0.5,),
                        p_s_levels=(1.0,), p_s_stationary=(1.0,))
    grids = MdpGrids(states=states, actions=ActionGrids((1.0,), (0.5,)))
    state = int(np.ravel_multi_index((1, 0, 0, 0, 0), grids.shape))
    mdp = build_spectrum_mdp(grids, params, CostModel())
    next_states, probs = transition(mdp, state, 0)
    moved = {-1: 0.0, 0: 0.0, 1: 0.0}
    for rho_p_idx, p in zip(np.unravel_index(next_states, grids.shape)[0].tolist(),
                            probs.tolist()):
        moved[rho_p_idx - 1] += p
    assert moved[1] == pytest.approx(0.15, abs=1e-12)
    assert moved[-1] == pytest.approx(0.35, abs=1e-12)
    assert moved[0] == pytest.approx(0.50, abs=1e-12)


def test_transition_matches_hand_composed_product():
    """Full row against an independent outcome x move x redraw composition:
    the scalar reference physics and a hand-written birth-death step."""
    grids = small_grids()
    params = make_params()
    mdp = build_spectrum_mdp(grids, params, CostModel())
    n_rp = len(grids.states.rho_p_levels)
    n_rs = len(grids.states.rho_s_levels)
    pstat = grids.states.p_s_stationary
    lam_p, lam_s = params.queues.lambda_p, params.queues.lambda_s

    rng = np.random.default_rng(3)
    for flat in rng.integers(0, grids.n_states, 12):
        rp, rs, ps = map(int, np.unravel_index(flat, grids.shape)[:3])
        a = int(rng.integers(0, grids.actions.n_actions))
        pd_i, ic_i = np.unravel_index(a, grids.shape[3:])
        dist, srv_p, srv_s = outcome_kernel(
            grids.states.rho_p_levels[rp], grids.states.rho_s_levels[rs],
            grids.states.p_s_levels[ps], grids.actions.pd_levels[pd_i],
            grids.actions.ic_levels[ic_i], params)

        expected: dict[tuple[int, int, int], float] = {}
        for k in range(4):
            bd_p = _hand_birth_death(rp, n_rp, lam_p, float(srv_p[k]))
            bd_s = _hand_birth_death(rs, n_rs, lam_s, float(srv_s[k]))
            for dp, wp in bd_p.items():
                for ds, ws in bd_s.items():
                    for ps2, wps in enumerate(pstat):
                        key = (rp + dp, rs + ds, ps2)
                        expected[key] = expected.get(key, 0.0) + dist[k] * wp * ws * wps

        next_states, probs = transition(mdp, int(flat), a)
        rho_p_idx, rho_s_idx, p_s_idx = np.unravel_index(next_states, grids.shape)[:3]
        got = dict(zip(zip(rho_p_idx.tolist(), rho_s_idx.tolist(), p_s_idx.tolist()),
                       probs.tolist()))
        for key, p in expected.items():
            assert got.get(key, 0.0) == pytest.approx(p, abs=1e-13)
        assert sum(got.values()) == pytest.approx(sum(expected.values()), abs=1e-13)


# ---------------------------------------------------------------------------
# validation


def test_validate_passes_on_reference_queues():
    params = make_params(queues=QueueParams(lambda_s=0.5, mu_s_max=0.8))
    assert validate(params, small_grids()) == []


def test_validate_flags_saturated_queue():
    params = make_params(queues=QueueParams(lambda_s=0.8, mu_s_max=0.8))
    found = validate(params, small_grids())
    assert found
    assert any(v.startswith("[constraint 1 (queue stability)] lambda_s=") for v in found)


def test_validate_flags_power_level_above_budget():
    params = make_params(power=PowerPolicy(p_av=2.0))
    found = validate(params, small_grids())   # grid level 2.5 > budget 2.0
    assert any(v.startswith("[constraint 2 (power range)] ") for v in found)


def test_action_grids_reject_an_infinite_cap():
    with pytest.raises(ValueError, match="ic_levels"):
        ActionGrids(pd_levels=(0.5,), ic_levels=(1.0, math.inf))


# ---------------------------------------------------------------------------
# compiled tensors


def test_compiled_rewards_match_scalar_path():
    grids = small_grids()
    params = make_params()
    costs = CostModel(s_const=1.5, c_const=0.5)
    mdp = build_spectrum_mdp(grids, params, costs)
    for flat in range(mdp.n_states):
        assert mdp.reward_vec[flat] == pytest.approx(
            reward(flat, grids, params, costs), abs=1e-14)


def test_compiled_detector_and_power_tables():
    # the slot physics broadcast over the (rho_p, pd) grid, as the model
    # build calls it, gives each cell's scalar outcome law exactly
    grids = small_grids()
    params = make_params()
    pd_levels = grids.actions.pd_levels
    pf = [false_alarm_from_detection(pd, params.sensing) for pd in pd_levels]
    dist, _, _ = _outcome_terms(
        np.reshape(grids.states.rho_p_levels, (-1, 1, 1)), 0.5, 1.0,
        np.reshape(pf, (1, -1, 1)), np.reshape(pd_levels, (1, -1, 1)),
        constrained_power(params.power, grids.actions.ic_levels[0]), params)
    for r, pi1 in enumerate(grids.states.rho_p_levels):
        for i, pd in enumerate(pd_levels):
            np.testing.assert_array_equal(dist[r, i],
                                          sensing_outcome_distribution(pi1, pd, pf[i]))
    np.testing.assert_allclose(dist.sum(axis=-1), 1.0, atol=1e-12)


def test_compiled_throughput_tensor_flattens_to_state_vector():
    grids = small_grids()
    mdp = build_spectrum_mdp(grids, make_params(), CostModel())
    assert mdp.g_action.shape == grids.shape[:3] + (grids.actions.n_actions,)
    # flattened, the throughput read at each state's previous action is the
    # per-state reward before the control costs of that action
    n_blocks = mdp.n_states // mdp.n_actions
    np.testing.assert_allclose(mdp.g_action.reshape(-1),
                               mdp.reward_vec + np.tile(mdp.action_cost, n_blocks),
                               rtol=0.0, atol=1e-15)


def test_compiled_tensors_reduce_to_the_closed_forms_at_the_reference_power():
    """With every transmission radiated at p_ref no cut-off is rescaled.

    The one power level is p_ref = p_av, and every cap admits at least p_av,
    so the constrained power is p_ref as well.  The service probabilities of
    the slot physics on the model's grid are then `model.py`'s closed forms
    outcome by outcome, declared-busy outcomes included: those read beta_sp,
    set apart from beta_s here.  The compiled throughput is their sum.
    """
    ch = ChannelParams(gamma_s=10.0, gamma_p=10.0, gamma_sp=5.0, gamma_ps=1.0,
                       beta_s=0.5, beta_sp=0.9, beta_p=4.0)
    states = StateGrids(rho_p_levels=(0.1, 0.5, 0.9), rho_s_levels=(0.3, 0.7),
                        p_s_levels=(3.0,), p_s_stationary=(1.0,))
    grids = MdpGrids(states=states, actions=ActionGrids((0.2, 0.8), (3.0, 5.0)))
    params = make_params(channel=ch, power=PowerPolicy(p_av=3.0, mean_g_sp=1.0))
    no_relay = dataclasses.replace(
        params, queues=dataclasses.replace(params.queues, lambda_ps=0.0))
    mdp = build_spectrum_mdp(grids, params, CostModel())
    assert all(constrained_power(params.power, ic) == params.power.reference_power
               for ic in grids.actions.ic_levels)

    no_outage = success_probability(ch.beta_p, ch.gamma_p)
    n_ic = len(grids.actions.ic_levels)
    shape = (len(states.rho_p_levels), grids.actions.n_actions, 4)
    own, relay, direct = np.empty(shape), np.empty(shape), np.empty(shape)
    for r, pi1 in enumerate(states.rho_p_levels):
        for a in range(grids.actions.n_actions):
            pd = grids.actions.pd_levels[a // n_ic]
            pf = false_alarm_from_detection(pd, params.sensing)
            for x, o in enumerate(OUTCOME_ORDER):
                own[r, a, x] = secondary_branch(o, pf, pd, pi1, ch)
                relay[r, a, x] = relay_branch(o, pf, pd, pi1, ch)
                seen = 0.0 if o.declared_busy else ch.gamma_sp
                direct[r, a, x] = success_probability(ch.beta_p, ch.gamma_p, seen) * pi1

    def grid_terms(p):
        # the slot physics on (rho_p, rho_s, flat action) with the outcome axis last
        pd = np.repeat(grids.actions.pd_levels, n_ic)
        pf = [false_alarm_from_detection(v, p.sensing) for v in pd]
        ps1 = np.tile([constrained_power(p.power, v) for v in grids.actions.ic_levels],
                      len(grids.actions.pd_levels))
        _, srv_p, srv_s = _outcome_terms(
            np.reshape(states.rho_p_levels, (-1, 1, 1, 1)),
            np.reshape(states.rho_s_levels, (1, -1, 1, 1)), states.p_s_levels[0],
            np.reshape(pf, (1, 1, -1, 1)), np.reshape(pd, (1, 1, -1, 1)),
            np.reshape(ps1, (1, 1, -1, 1)), p)
        return srv_p[:, 0], srv_s

    srv_p, srv_s = grid_terms(params)
    rho_s = np.array(states.rho_s_levels)[None, :, None, None]
    frame = params.timing.data_fraction
    own_rate = frame * own[:, None] * rho_s * no_outage
    np.testing.assert_allclose(srv_s, own_rate, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(mdp.g_action[:, :, 0], own_rate.sum(axis=-1),
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(grid_terms(no_relay)[0], direct, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(
        srv_p,
        direct + relay * params.queues.rho_ps * (1.0 - no_outage),
        rtol=1e-14, atol=0.0)
