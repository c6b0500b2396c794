"""Closed-form throughput expressions against frozen high-precision values.

The frozen constants were produced with mpmath at 40 decimal digits; each
test states the inputs it fed the oracle.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from cogrelay.model import (ChannelParams, OUTCOME_ORDER, QueueParams,
                            SensingOutcome, SensingTiming, db_to_linear,
                            linear_to_db, primary_throughput, relay_branch,
                            secondary_branch, secondary_throughput,
                            success_probability)
from cogrelay.sensing import SensingConfig, false_alarm_from_detection

# oracle: mp.exp at dps=40
EXP_M01 = 0.90483741803595957
EXP_M02 = 0.81873075307798186


def make_channel(**overrides):
    base = dict(gamma_s=10.0, gamma_p=10.0, gamma_sp=5.0, gamma_ps=1.0,
                beta_s=1.0, beta_sp=1.0, beta_p=1.0)
    base.update(overrides)
    return ChannelParams(**base)


def test_db_conversions_round_trip():
    for x_db in (-30.0, -15.0, -5.0, 0.0, 5.0, 17.3):
        x = db_to_linear(x_db)
        assert abs(linear_to_db(x) - x_db) <= 1e-12 * max(1.0, abs(x_db))
    assert db_to_linear(0.0) == 1.0
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-2.0)


def test_success_probability_zero_cutoff_never_outages():
    assert success_probability(0.0, 10.0, 0.0) == 1.0


def test_success_probability_frozen_values():
    assert success_probability(1.0, 10.0, 0.0) == pytest.approx(EXP_M01, rel=1e-12)
    assert success_probability(1.0, 10.0, 1.0) == pytest.approx(EXP_M02, rel=1e-12)


def test_success_probability_rejects_bad_arguments():
    with pytest.raises(ValueError):
        success_probability(-0.1, 10.0)
    with pytest.raises(ValueError):
        success_probability(1.0, 0.0)
    with pytest.raises(ValueError):
        success_probability(1.0, 10.0, -1.0)


def test_exactly_four_sensing_outcomes():
    assert len(SensingOutcome) == 4
    assert len(OUTCOME_ORDER) == 4
    # the two-bit code is (true state, decision)
    assert SensingOutcome.FALSE_ALARM.value == "01"
    assert not SensingOutcome.FALSE_ALARM.primary_busy
    assert SensingOutcome.FALSE_ALARM.declared_busy
    assert SensingOutcome.MISSED_DETECTION.primary_busy
    assert not SensingOutcome.MISSED_DETECTION.declared_busy
    assert SensingOutcome.DETECTION.primary_busy
    assert SensingOutcome.DETECTION.declared_busy


def test_secondary_branch_perfect_sensing_idle_channel():
    ch = make_channel(beta_s=0.0)
    out = secondary_branch(SensingOutcome.NO_FALSE_ALARM, pf=0.0, pd=0.5,
                           pi1=0.0, ch=ch)
    assert out == 1.0


def test_secondary_branch_frozen_idle_declared_idle():
    # weight (1-pf)*(1-pi1) = 0.45 times exp(-beta_s/gamma_s) = exp(-0.1);
    # oracle value 0.45 * exp(-0.1)
    ch = make_channel(beta_s=1.0, gamma_s=10.0)
    out = secondary_branch(SensingOutcome.NO_FALSE_ALARM, pf=0.1, pd=0.5,
                           pi1=0.5, ch=ch)
    assert out == pytest.approx(0.40717683811618181, rel=1e-12)


def test_secondary_branch_frozen_busy_declared_busy():
    # weight pd*pi1 = 0.5 times exp(-beta_sp*(1+gamma_ps)/gamma_s) = exp(-0.2)
    ch = make_channel(beta_sp=1.0, gamma_s=10.0, gamma_ps=1.0)
    out = secondary_branch(SensingOutcome.DETECTION, pf=0.1, pd=1.0,
                           pi1=0.5, ch=ch)
    assert out == pytest.approx(0.40936537653899093, rel=1e-12)


def test_secondary_branch_rejects_bad_probabilities():
    ch = make_channel()
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            secondary_branch(SensingOutcome.DETECTION, pf=bad, pd=0.5, pi1=0.5, ch=ch)
        with pytest.raises(ValueError):
            secondary_branch(SensingOutcome.DETECTION, pf=0.5, pd=0.5, pi1=bad, ch=ch)


def test_relay_branch_perfect_sensing_idle_channel():
    ch = make_channel(beta_s=0.0)
    assert relay_branch(SensingOutcome.NO_FALSE_ALARM, pf=0.0, pd=0.5,
                        pi1=0.0, ch=ch) == 1.0


def test_relay_branch_frozen_false_alarm():
    # weight pf*(1-pi1) = 0.1 times exp(-beta_sp/gamma_sp) = exp(-0.4);
    # oracle value 0.1 * exp(-0.4)
    ch = make_channel(beta_sp=2.0, gamma_sp=5.0)
    out = relay_branch(SensingOutcome.FALSE_ALARM, pf=0.2, pd=0.5, pi1=0.5, ch=ch)
    assert out == pytest.approx(0.06703200460356393, rel=1e-12)


def test_relay_branch_missed_detection_vanishes_at_perfect_detection():
    ch = make_channel()
    assert relay_branch(SensingOutcome.MISSED_DETECTION, pf=0.2, pd=1.0,
                        pi1=0.5, ch=ch) == 0.0


def test_secondary_throughput_no_data_time_left():
    ch = make_channel()
    q = QueueParams(lambda_s=0.5, mu_s_max=0.8)
    timing = SensingTiming(tau=1e-3 * (1.0 - 1e-12), t_frame=1e-3)
    assert secondary_throughput(0.5, timing, q, ch) <= 1e-9


def test_secondary_throughput_empty_queue():
    ch = make_channel()
    q = QueueParams(lambda_s=0.0, mu_s_max=0.8)
    timing = SensingTiming(tau=0.3e-3, t_frame=1e-3)
    assert secondary_throughput(0.5, timing, q, ch) == 0.0


def test_secondary_throughput_frozen_composition():
    # 0.7 * 0.407177 * 0.625 * exp(-0.1), all factors as literal inputs;
    # oracle value of the product
    ch = make_channel(beta_p=1.0, gamma_p=10.0)
    q = QueueParams(lambda_s=0.5, mu_s_max=0.8)
    timing = SensingTiming(tau=0.3e-3, t_frame=1e-3)
    out = secondary_throughput(0.407177, timing, q, ch)
    assert out == pytest.approx(0.16118768109658721, rel=1e-12)


def test_secondary_throughput_rejects_rate_outside_unit_interval():
    ch = make_channel()
    q = QueueParams(lambda_s=0.5, mu_s_max=0.8)
    timing = SensingTiming(tau=0.3e-3, t_frame=1e-3)
    with pytest.raises(ValueError):
        secondary_throughput(1.5, timing, q, ch)


def test_primary_throughput_no_outage_no_relay_traffic():
    ch = make_channel(beta_p=0.0)
    q = QueueParams(lambda_s=0.5, mu_s_max=0.8, lambda_ps=0.0, mu_ps_max=1.0)
    assert primary_throughput(0.3, q, ch, pi1=0.6) == 0.6


def test_primary_throughput_idle_primary():
    ch = make_channel()
    q = QueueParams(lambda_s=0.5, mu_s_max=0.8, lambda_ps=0.0, mu_ps_max=1.0)
    assert primary_throughput(0.3, q, ch, pi1=0.0) == 0.0


def test_primary_throughput_frozen_composition():
    # exp(-0.2)*0.5 + 0.067032*0.5*(1 - exp(-0.1)); relay rate fed as literal
    ch = make_channel(beta_p=1.0, gamma_p=10.0, gamma_sp=1.0)
    q = QueueParams(lambda_s=0.5, mu_s_max=0.8, lambda_ps=0.25, mu_ps_max=0.5)
    out = primary_throughput(0.067032, q, ch, pi1=0.5)
    assert out == pytest.approx(0.41255484563609771, rel=1e-12)


def test_queue_params_utilisations():
    q = QueueParams(lambda_s=0.5, mu_s_max=0.8, lambda_p=0.2, mu_p_max=1.0,
                    lambda_ps=0.15, mu_ps_max=0.5)
    assert q.rho_s == 0.625
    assert q.rho_p == 0.2
    assert q.rho_ps == pytest.approx(0.3)


def test_queue_params_saturated_boundary_is_constructible():
    q = QueueParams(lambda_s=0.8, mu_s_max=0.8)
    assert q.rho_s == 1.0


def test_queue_params_rejects_unstable_arrivals():
    with pytest.raises(ValueError, match="constraint 1"):
        QueueParams(lambda_s=0.9, mu_s_max=0.8)
    with pytest.raises(ValueError):
        QueueParams(lambda_s=-0.1, mu_s_max=0.8)
    with pytest.raises(ValueError):
        QueueParams(lambda_s=0.5, mu_s_max=0.0)


def test_sensing_timing_data_fraction():
    t = SensingTiming(tau=0.3e-3, t_frame=1e-3)
    assert t.data_fraction == pytest.approx(0.7, rel=1e-12)
    assert SensingTiming(tau=0.0, t_frame=1e-3).data_fraction == 1.0
    with pytest.raises(ValueError):
        SensingTiming(tau=1e-3, t_frame=1e-3)
    with pytest.raises(ValueError):
        SensingTiming(tau=-1e-4, t_frame=1e-3)


def test_branch_sum_is_a_probability_mixture():
    """The four branch weights partition, so the summed rate stays in [0, 1]."""
    ch = make_channel()
    for pf, pd, pi1 in ((0.2, 0.8, 0.5), (0.0, 1.0, 0.3), (0.7, 0.1, 0.9)):
        total = sum(secondary_branch(o, pf, pd, pi1, ch) for o in OUTCOME_ORDER)
        assert 0.0 <= total <= 1.0
        weights = sum((pf if o is SensingOutcome.FALSE_ALARM else
                       1.0 - pf if o is SensingOutcome.NO_FALSE_ALARM else
                       1.0 - pd if o is SensingOutcome.MISSED_DETECTION else pd)
                      * (pi1 if o.primary_busy else 1.0 - pi1)
                      for o in OUTCOME_ORDER)
        assert math.isclose(weights, 1.0, abs_tol=1e-12)


_prob = st.floats(0.0, 1.0)
_snr = st.floats(1e-3, 1e3)
_cutoff = st.floats(0.0, 10.0)


@settings(max_examples=200, deadline=None)
@given(pd=_prob, pf=_prob, pi1=_prob,
       snrs=st.tuples(_snr, _snr, _snr), gamma_ps=st.floats(0.0, 100.0),
       cutoffs=st.tuples(_cutoff, _cutoff, _cutoff),
       gamma_se=st.floats(1e-3, 10.0), tau=st.floats(1e-6, 1e-3))
def test_closed_forms_stay_probabilities(pd, pf, pi1, snrs, gamma_ps, cutoffs,
                                         gamma_se, tau):
    ch = ChannelParams(*snrs, gamma_ps, *cutoffs)
    pf_det = false_alarm_from_detection(pd, SensingConfig(gamma_se=gamma_se, tau=tau))
    assert 0.0 <= pf_det <= 1.0
    for beta in cutoffs:
        assert 0.0 <= success_probability(beta, snrs[0], gamma_ps) <= 1.0
    for branch in (secondary_branch, relay_branch):
        rates = [branch(o, pf, pd, pi1, ch) for o in OUTCOME_ORDER]
        assert all(0.0 <= r <= 1.0 for r in rates)
        # the four outcome weights sum to one up to rounding
        assert sum(rates) <= 1.0 + 4 * math.ulp(1.0)
