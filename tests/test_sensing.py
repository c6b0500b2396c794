"""Energy-detector operating characteristic.

Frozen constants come from mpmath: the Gaussian tail by numeric integration
of the standard normal density, its inverse by root finding on that
integral, both at 40 decimal digits.
"""

import numpy as np
import pytest
import scipy.special

from cogrelay.sensing import (SensingConfig, detection_from_threshold,
                              false_alarm_from_detection, q_function,
                              q_inverse, threshold_from_detection)

# detector at the default sensing point: gamma_se = 10^(-15/10), 300 samples
CFG300 = SensingConfig(gamma_se=10.0 ** -1.5, tau=0.3e-3, f_s=1e6)


def test_q_function_symmetry_point():
    assert q_function(0.0) == 0.5


def test_q_function_frozen_tail():
    # oracle: integral of the normal density over [1.6448536, inf)
    assert q_function(1.6448536) == pytest.approx(0.050000002779657459, rel=1e-12)
    assert q_function(1.6448536) == pytest.approx(0.05, abs=1e-7)


def test_q_inverse_round_trip():
    assert q_inverse(q_function(2.0)) == pytest.approx(2.0, abs=1e-10)
    rng = np.random.default_rng(7)
    for p in rng.uniform(1e-6, 1.0 - 1e-6, 50):
        assert q_function(q_inverse(p)) == pytest.approx(p, rel=1e-9)


def test_q_function_matches_scipy_erfc():
    # scipy's erfc is the reference; the worst case on this grid is 2.9e-14
    # relative, deep in the tail near x = 30
    x = np.linspace(-30.0, 30.0, 6001)
    got = np.array([q_function(float(v)) for v in x])
    np.testing.assert_allclose(got, 0.5 * scipy.special.erfc(x / np.sqrt(2.0)),
                               rtol=1e-13, atol=0.0)


def test_q_inverse_matches_scipy_erfcinv():
    # scipy's erfcinv is the reference, over both tails down to 1e-300 and
    # 1e-16 and across the sign change at p = 1/2 (worst case 8.8e-16)
    p = np.concatenate([np.logspace(-300.0, np.log10(0.5), 601),
                        np.linspace(0.4, 0.6, 201),
                        1.0 - np.logspace(-16.0, np.log10(0.5), 161)])
    got = np.array([q_inverse(float(v)) for v in p])
    np.testing.assert_allclose(got, np.sqrt(2.0) * scipy.special.erfcinv(2.0 * p),
                               rtol=1e-14, atol=0.0)


def test_q_inverse_domain():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            q_inverse(bad)


def test_sample_count_from_timing():
    assert CFG300.n_samples == 300
    assert SensingConfig(gamma_se=0.1, tau=1e-9, f_s=1e6).n_samples == 1


def test_false_alarm_frozen_values():
    # at pd=0.5 the threshold term vanishes: pf = Q(sqrt(300) * gamma_se)
    assert false_alarm_from_detection(0.5, CFG300) == pytest.approx(
        0.29194121038518259, rel=1e-10)
    assert false_alarm_from_detection(0.1, CFG300) == pytest.approx(
        0.030798953132879383, rel=1e-10)
    assert false_alarm_from_detection(0.9, CFG300) == pytest.approx(
        0.78045592967989327, rel=1e-10)


def test_false_alarm_boundaries():
    assert false_alarm_from_detection(0.0, CFG300) == 0.0
    assert false_alarm_from_detection(1.0, CFG300) == 1.0
    with pytest.raises(ValueError):
        false_alarm_from_detection(1.5, CFG300)


def test_false_alarm_monotone_in_detection():
    assert (false_alarm_from_detection(0.9, CFG300)
            > false_alarm_from_detection(0.7, CFG300))
    grid = [false_alarm_from_detection(p, CFG300) for p in np.linspace(0.01, 0.99, 25)]
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_threshold_at_half_detection():
    # Qinv(0.5) = 0, so the threshold is exactly gamma_se + 1 noise powers
    cfg = SensingConfig(gamma_se=0.25, tau=0.3e-3, f_s=1e6)
    assert threshold_from_detection(0.5, cfg) == pytest.approx(1.25, rel=1e-12)


def test_threshold_frozen_value():
    # pd=0.9, gamma_se=0.0316228, 300 samples; oracle:
    # Qinv(0.9) * sqrt((2*gamma_se + 1)/300) + gamma_se + 1
    cfg = SensingConfig(gamma_se=0.0316228, tau=0.3e-3, f_s=1e6)
    assert threshold_from_detection(0.9, cfg) == pytest.approx(
        0.95532847145454354, abs=1e-9)


def test_threshold_domain():
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            threshold_from_detection(bad, CFG300)


def test_detection_threshold_round_trip():
    rng = np.random.default_rng(11)
    for pd in rng.uniform(0.01, 0.99, 100):
        eta = threshold_from_detection(float(pd), CFG300)
        assert detection_from_threshold(eta, CFG300) == pytest.approx(
            float(pd), abs=1e-9)
    with pytest.raises(ValueError):
        detection_from_threshold(0.0, CFG300)


def test_config_validation():
    with pytest.raises(ValueError):
        SensingConfig(gamma_se=0.0, tau=0.3e-3)
    with pytest.raises(ValueError):
        SensingConfig(gamma_se=0.1, tau=0.0)
    with pytest.raises(ValueError):
        SensingConfig(gamma_se=0.1, tau=0.3e-3, f_s=-1.0)
