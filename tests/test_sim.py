"""Monte-Carlo simulator: determinism, conservation laws and z-scores."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

import cogrelay.sim
from cogrelay.model import OUTCOME_ORDER, ChannelParams, QueueParams
from cogrelay.sim import (_OUTCOME_LABELS, SimConfig, SimStats, analytical_reference,
                          estimates, simulate)
from oracles import _CHI2_999, outcome_frequency_check, simulate_reference
from tests.test_mdp import make_params


def mixed_config(n_slots=200_000, seed=202, **kw):
    return SimConfig(n_slots=n_slots, seed=seed, params=make_params(),
                     pd=kw.pop("pd", 0.8), pf=kw.pop("pf", None),
                     pi1=kw.pop("pi1", 0.4), **kw)


def assert_within_3se(est, se, ref, floor=1e-9):
    assert abs(est - ref) <= 3.0 * se + floor, (est, se, ref)


def test_identical_seeds_are_bit_identical():
    cfg = mixed_config(n_slots=20_000, seed=101)
    a, b = simulate(cfg), simulate(mixed_config(n_slots=20_000, seed=101))
    assert a == b
    assert estimates(cfg, a) == estimates(cfg, b)


def test_different_seeds_differ():
    a = simulate(mixed_config(n_slots=20_000, seed=101))
    b = simulate(mixed_config(n_slots=20_000, seed=102))
    assert a.counts != b.counts


def clean_link_config(n_slots=100_000, seed=303):
    ch_kw = dict(gamma_s=10.0, gamma_p=10.0, gamma_sp=5.0, gamma_ps=1.0,
                 beta_s=0.0, beta_sp=0.0, beta_p=1.0)
    params = make_params(channel=ChannelParams(**ch_kw),
                         queues=QueueParams(lambda_s=0.8, mu_s_max=0.8))
    return SimConfig(n_slots=n_slots, seed=seed, params=params,
                     pd=0.5, pf=0.0, pi1=0.0)


def test_saturated_clean_link_hits_frame_rate():
    # no primary, no false alarms, zero cut-off and a saturated queue: the
    # own link delivers on every non-outage slot
    cfg = clean_link_config()
    stats = simulate(cfg)
    frame = cfg.params.timing.data_fraction
    ref = frame * math.exp(-1.0 / 10.0)
    assert stats.counts["qs"] == stats.n_slots
    assert stats.counts["busy"] == 0
    assert_within_3se(*estimates(cfg, stats)["mu_s"], ref)


def test_mixed_run_matches_analytical_reference():
    cfg = mixed_config()
    stats = simulate(cfg)
    ref = analytical_reference(cfg)
    for metric, (est, se) in estimates(cfg, stats).items():
        assert_within_3se(est, se, ref[metric])


def test_outcome_frequencies_sum_to_one():
    cfg = mixed_config(n_slots=50_000)
    stats = simulate(cfg)
    est = estimates(cfg, stats)
    assert sum(stats.counts[f"outcome_{o}"] for o in _OUTCOME_LABELS) == stats.n_slots
    assert sum(est[f"outcome_{o}"][0] for o in _OUTCOME_LABELS) == pytest.approx(1.0, abs=1e-12)
    mu_s, mu_s_se = est["mu_s"]
    assert mu_s_se == pytest.approx(
        cfg_frame() * math.sqrt((mu_s / cfg_frame())
                                * (1.0 - mu_s / cfg_frame())
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


# ---------------------------------------------------------------------------
# the slot-code histogram against the per-indicator reference


def assert_same_stats(got: SimStats, ref: SimStats) -> None:
    assert got.n_slots == ref.n_slots
    assert list(got.counts.items()) == list(ref.counts.items())
    assert all(type(k) is int for k in got.counts.values())


SMALL_CHUNK = 4096


@pytest.fixture
def small_chunk(monkeypatch):
    monkeypatch.setattr(cogrelay.sim, "_CHUNK", SMALL_CHUNK)


def split_cutoffs_config(n_slots, seed):
    ch = ChannelParams(gamma_s=10.0, gamma_p=10.0, gamma_sp=5.0, gamma_ps=1.0,
                       beta_s=0.4, beta_sp=1.7, beta_p=1.0)
    return SimConfig(n_slots=n_slots, seed=seed, params=make_params(channel=ch),
                     pd=0.7, pi1=0.5)


# 10,007 slots are two full chunks of 4096 and a 1815-slot tail
REFERENCE_CASES = {
    "shorter_than_a_chunk": mixed_config(n_slots=999, seed=11),
    "one_full_chunk": mixed_config(n_slots=SMALL_CHUNK, seed=12),
    "chunks_and_tail": mixed_config(n_slots=10_007, seed=13),
    "pf_override": mixed_config(n_slots=10_007, seed=14, pf=0.35),
    "idle_primary": mixed_config(n_slots=10_007, seed=15, pi1=0.0),
    "busy_primary": mixed_config(n_slots=10_007, seed=16, pi1=1.0),
    "perfect_detector": mixed_config(n_slots=10_007, seed=17, pd=1.0, pf=0.0),
    "beta_sp_differs": split_cutoffs_config(n_slots=10_007, seed=18),
    "zero_cutoff": clean_link_config(n_slots=10_007, seed=19),
}


# blocks of one slot, of a size that does not divide SMALL_CHUNK, and past the chunk
SMALL_BLOCKS = (1, 1000, 3 * SMALL_CHUNK)


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_simulate_matches_per_indicator_reference(name, small_chunk, monkeypatch):
    cfg = REFERENCE_CASES[name]
    ref = simulate_reference(cfg)
    for block in SMALL_BLOCKS:
        monkeypatch.setattr(cogrelay.sim, "_BLOCK", block)
        assert_same_stats(simulate(cfg), ref)


@settings(max_examples=40, deadline=None)
@given(gammas=st.tuples(*[st.floats(0.05, 50.0)] * 3),
       gamma_ps=st.floats(0.0, 20.0),
       betas=st.tuples(*[st.floats(0.0, 5.0)] * 3),
       pd=st.floats(0.0, 1.0), pf=st.none() | st.floats(0.0, 1.0),
       pi1=st.floats(0.0, 1.0), n_slots=st.integers(1, 3 * 512 + 17),
       seed=st.integers(0, 2**32 - 1), block=st.integers(1, 2 * 512))
def test_simulate_matches_reference_on_random_channels(gammas, gamma_ps, betas, pd, pf,
                                                       pi1, n_slots, seed, block):
    ch = ChannelParams(gamma_s=gammas[0], gamma_p=gammas[1], gamma_sp=gammas[2],
                       gamma_ps=gamma_ps, beta_s=betas[0], beta_sp=betas[1],
                       beta_p=betas[2])
    cfg = SimConfig(n_slots=n_slots, seed=seed, params=make_params(channel=ch),
                    pd=pd, pf=pf, pi1=pi1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cogrelay.sim, "_CHUNK", 512)
        mp.setattr(cogrelay.sim, "_BLOCK", block)
        assert_same_stats(simulate(cfg), simulate_reference(cfg))


def test_slot_outcome_code_is_the_index_in_outcome_order():
    # a slot's outcome code 2*busy + (declared == busy) picks its cut-offs,
    # which `simulate` builds in OUTCOME_ORDER, and its label
    for code, outcome in enumerate(OUTCOME_ORDER):
        busy, declared = outcome.primary_busy, outcome.declared_busy
        assert 2 * busy + (declared == busy) == code
        initials = "".join(word[0] for word in outcome.name.split("_")).lower()
        assert _OUTCOME_LABELS[code] == initials
    assert len(OUTCOME_ORDER) == len(_OUTCOME_LABELS)


def test_mixed_run_counts_are_pinned():
    # recorded from the per-indicator simulator this one replaced; a change
    # that moves the reference and the library together still fails here
    assert simulate(mixed_config()).counts == {
        "busy": 80137, "qs": 125199, "qps": 39952, "own_delivered": 105596,
        "pu_delivered": 47425, "direct_served": 44160, "relayed_busy": 1188,
        "relayed_total": 3265,
        "outcome_fa": 75073, "outcome_nfa": 44790, "outcome_md": 16138,
        "outcome_d": 63999,
        "own_pass_fa": 71359, "own_pass_nfa": 42576, "own_pass_md": 14691,
        "own_pass_d": 57902,
        "relay_pass_fa": 67852, "relay_pass_nfa": 40544, "relay_pass_md": 13185,
        "relay_pass_d": 52313}


def test_counts_past_one_full_chunk_are_pinned():
    # the real _CHUNK and _BLOCK: one full chunk of many blocks and a 3-slot
    # tail, recorded when each stage still drew its whole chunk in one fill
    assert simulate(mixed_config(n_slots=cogrelay.sim._CHUNK + 3, seed=2024)).counts == {
        "busy": 419344, "qs": 654769, "qps": 209402, "own_delivered": 552716,
        "pu_delivered": 247425, "direct_served": 230104, "relayed_busy": 6501,
        "relayed_total": 17321,
        "outcome_fa": 393324, "outcome_nfa": 235911, "outcome_md": 83400,
        "outcome_d": 335944,
        "own_pass_fa": 374304, "own_pass_nfa": 224434, "own_pass_md": 75459,
        "own_pass_d": 304303,
        "relay_pass_fa": 355958, "relay_pass_nfa": 213458, "relay_pass_md": 68392,
        "relay_pass_d": 275024}


def test_simulate_peaks_below_four_chunks_of_bytes():
    """numpy reports its data buffers to tracemalloc, so the traced peak of
    a run counts every array it allocates.  Drawing and folding one `_BLOCK`
    at a time, a run of two chunks and a tail peaks near 3.6 `_CHUNK` bytes:
    the chunk's uint8 outcome and code arrays and a few block buffers.
    Whole-chunk float64 draw buffers and a whole-chunk `bincount` peak near
    27 `_CHUNK` bytes, so the bound fails on them."""
    chunk = cogrelay.sim._CHUNK
    cfg = mixed_config(n_slots=2 * chunk + 5, seed=5)
    tracemalloc.start()
    try:
        simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * chunk


# Ties: every threshold set equal to one slot's own draw, found by replaying
# the generator, so a strict comparison that should be loose (or the reverse)
# changes that slot's tallies.  The base run has unit gains, no interference
# and pf, pd, pi1 = 0.2, 0.8, 0.5.
TIE_SEED, TIE_SLOTS = 23, 257
TIE_BASE = dict(pi1=0.5, pd=0.8, pf=0.2, lambda_s=0.5, lambda_ps=0.5,
                beta_s=0.5, beta_sp=0.5, beta_p=0.5)


def tie_config(**over):
    kw = dict(TIE_BASE, **over)
    ch = ChannelParams(gamma_s=1.0, gamma_p=1.0, gamma_sp=1.0, gamma_ps=0.0,
                       beta_s=kw["beta_s"], beta_sp=kw["beta_sp"], beta_p=kw["beta_p"])
    q = QueueParams(lambda_s=kw["lambda_s"], mu_s_max=1.0, lambda_p=0.2,
                    mu_p_max=1.0, lambda_ps=kw["lambda_ps"], mu_ps_max=1.0)
    return SimConfig(n_slots=TIE_SLOTS, seed=TIE_SEED,
                     params=make_params(channel=ch, queues=q),
                     pd=kw["pd"], pf=kw["pf"], pi1=kw["pi1"])


def tie_overrides(name):
    """The base run's overrides that put one slot exactly on a threshold."""
    rng = np.random.Generator(np.random.PCG64(TIE_SEED))
    u_busy, u_declared, u_qs, u_qps = (rng.random(TIE_SLOTS) for _ in range(4))
    x_s, x_sp, x_p = (rng.standard_exponential(TIE_SLOTS) for _ in range(3))
    busy = u_busy < TIE_BASE["pi1"]
    declared = u_declared < np.where(busy, TIE_BASE["pd"], TIE_BASE["pf"])

    def first(mask):
        return int(np.flatnonzero(mask)[0])

    return {
        "activity": dict(pi1=u_busy[0]),
        "detection": dict(pd=u_declared[first(busy)]),
        "false_alarm": dict(pf=u_declared[first(~busy)]),
        "secondary_queue": dict(lambda_s=u_qs[0]),
        "relay_queue": dict(lambda_ps=u_qps[0]),
        "own_cutoff": dict(beta_s=x_s[first(~declared)]),
        "relay_cutoff": dict(beta_sp=x_sp[first(declared)]),
        # a saturated own link on zero cut-offs shows the tied slot's outage
        "outage": dict(beta_p=x_p[0], lambda_s=1.0, beta_s=0.0, beta_sp=0.0),
        # (x / 2) * (1 + gamma_sp) / gamma_p is exactly x at unit gains
        "direct": dict(beta_p=x_p[first(busy)] / 2.0),
    }[name]


@pytest.mark.parametrize("name", [
    "activity", "detection", "false_alarm", "secondary_queue", "relay_queue",
    "own_cutoff", "relay_cutoff", "outage", "direct"])
def test_ties_at_a_threshold_match_the_reference(name):
    over = tie_overrides(name)
    ref = simulate_reference(tie_config(**over))
    assert_same_stats(simulate(tie_config(**over)), ref)
    # the tie is live: one ulp up on the tied value flips the tied slot
    key = next(iter(over))
    nudged = simulate_reference(tie_config(**dict(over, **{key: np.nextafter(over[key], np.inf)})))
    assert nudged.counts != ref.counts
