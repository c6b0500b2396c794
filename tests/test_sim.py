"""Monte-Carlo simulator: determinism, conservation laws and z-scores."""

import math

import numpy as np
import pytest
import scipy.stats

from cogrelay.sim import SimConfig, SimStats, analytical_reference, simulate
from oracles import _CHI2_999, outcome_frequency_check
from tests.test_mdp import make_params


def mixed_config(n_slots=200_000, seed=202, **kw):
    return SimConfig(n_slots=n_slots, seed=seed, params=make_params(),
                     pd=kw.pop("pd", 0.8), pf=kw.pop("pf", None),
                     pi1=kw.pop("pi1", 0.4), **kw)


def assert_within_3se(est, se, ref, floor=1e-9):
    assert abs(est - ref) <= 3.0 * se + floor, (est, se, ref)


def test_identical_seeds_are_bit_identical():
    a = simulate(mixed_config(n_slots=20_000, seed=101))
    b = simulate(mixed_config(n_slots=20_000, seed=101))
    assert a.counts == b.counts
    assert (a.mu_s, a.mu_p) == (b.mu_s, b.mu_p)
    np.testing.assert_array_equal(a.outcome_freq, b.outcome_freq)
    np.testing.assert_array_equal(a.branch_mu_s, b.branch_mu_s)
    np.testing.assert_array_equal(a.branch_mu_ps, b.branch_mu_ps)


def test_different_seeds_differ():
    a = simulate(mixed_config(n_slots=20_000, seed=101))
    b = simulate(mixed_config(n_slots=20_000, seed=102))
    assert a.counts != b.counts


def test_saturated_clean_link_hits_frame_rate():
    # no primary, no false alarms, zero cut-off and a saturated queue: the
    # own link delivers on every non-outage slot
    ch_kw = dict(gamma_s=10.0, gamma_p=10.0, gamma_sp=5.0, gamma_ps=1.0,
                 beta_s=0.0, beta_sp=0.0, beta_p=1.0)
    from cogrelay.model import ChannelParams, QueueParams
    params = make_params(channel=ChannelParams(**ch_kw),
                         queues=QueueParams(lambda_s=0.8, mu_s_max=0.8))
    cfg = SimConfig(n_slots=100_000, seed=303, params=params,
                    pd=0.5, pf=0.0, pi1=0.0)
    stats = simulate(cfg)
    frame = params.timing.data_fraction
    ref = frame * math.exp(-1.0 / 10.0)
    assert stats.counts["qs"] == stats.n_slots
    assert stats.counts["busy"] == 0
    assert_within_3se(stats.mu_s, stats.mu_s_se, ref)


def test_mixed_run_matches_analytical_reference():
    cfg = mixed_config()
    stats = simulate(cfg)
    ref = analytical_reference(cfg)
    assert_within_3se(stats.mu_s, stats.mu_s_se, ref["mu_s"])
    assert_within_3se(stats.mu_p, stats.mu_p_se, ref["mu_p"])
    for k in range(4):
        assert_within_3se(stats.branch_mu_s[k], stats.branch_mu_s_se[k],
                          ref["branch_mu_s"][k])
        assert_within_3se(stats.branch_mu_ps[k], stats.branch_mu_ps_se[k],
                          ref["branch_mu_ps"][k])


def test_outcome_frequencies_sum_to_one():
    stats = simulate(mixed_config(n_slots=50_000))
    assert stats.outcome_freq.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.mu_s_se == pytest.approx(
        cfg_frame() * math.sqrt((stats.mu_s / cfg_frame())
                                * (1.0 - stats.mu_s / cfg_frame())
                                / stats.n_slots), rel=1e-12)


def cfg_frame():
    return make_params().timing.data_fraction


def test_primary_delivery_channels_are_disjoint():
    stats = simulate(mixed_config())
    c = stats.counts
    assert c["pu_delivered"] == c["direct_served"] + c["relayed_total"]
    # a busy slot delivers its primary packet directly or by relay, not both
    assert c["busy"] - c["direct_served"] - c["relayed_busy"] >= 0


def test_unstable_queue_is_rejected():
    from cogrelay.model import QueueParams
    with pytest.raises(ValueError, match="constraint 1"):
        QueueParams(lambda_s=0.8, mu_s_max=0.8, lambda_ps=0.6, mu_ps_max=0.5)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_slots=0, seed=1, params=make_params(), pd=0.5)
    with pytest.raises(ValueError):
        SimConfig(n_slots=10, seed=1, params=make_params(), pd=1.5)
    with pytest.raises(ValueError):
        SimConfig(n_slots=10, seed=1, params=make_params(), pd=0.5, pf=-0.1)
    cfg = SimConfig(n_slots=10, seed=1, params=make_params(), pd=0.5)
    assert cfg.resolved_pi1 == make_params().queues.rho_p


def test_chi_square_deterministic_detector():
    cfg = mixed_config(n_slots=20_000, pd=1.0, pf=0.0)
    check = outcome_frequency_check(cfg)
    assert check.passed
    assert check.dof == 0
    assert check.statistic <= 1e-9


def test_chi_square_passes_on_faithful_run():
    check = outcome_frequency_check(mixed_config(n_slots=100_000, pf=0.2))
    assert check.passed
    assert check.dof == 2
    assert check.statistic <= check.threshold


def test_chi_square_single_group_has_one_dof():
    # an idle primary leaves one activity group with two live outcomes
    check = outcome_frequency_check(mixed_config(n_slots=20_000, pf=0.2, pi1=0.0))
    assert check.dof == 1
    assert check.threshold == _CHI2_999[1]
    assert check.passed


def test_chi_square_thresholds_match_scipy():
    assert sorted(_CHI2_999) == [1, 2]
    for dof, threshold in _CHI2_999.items():
        assert threshold == pytest.approx(scipy.stats.chi2.ppf(0.999, dof),
                                          rel=1e-12, abs=0.0)


def test_chi_square_guards():
    with pytest.raises(ValueError, match="1e4"):
        outcome_frequency_check(mixed_config(n_slots=100))


def test_stats_record_run_identity():
    cfg = mixed_config(n_slots=20_000, seed=101)
    stats = simulate(cfg)
    assert isinstance(stats, SimStats)
    assert (stats.n_slots, stats.seed) == (20_000, 101)
    assert stats.pd == cfg.pd
    assert stats.pf == cfg.resolved_pf
    assert stats.pi1 == cfg.resolved_pi1
