"""Gate checks: the ten package-level guarantees at their stated tolerances.

Each test records one summary line through the conftest helper;
pytest prints the collected block after the run.  Tolerances, slot counts and
time budgets are part of the guarantee and are asserted, not just reported.
"""

import json
import math
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import scipy.special

import cogrelay.cli as cli
from cogrelay.config import resolve_config
from cogrelay.mdp import CostModel, ModelParams, PowerPolicy, build_spectrum_mdp, transition
from cogrelay.model import (OUTCOME_ORDER, ChannelParams, QueueParams,
                            SensingTiming, db_to_linear, primary_throughput,
                            relay_branch, secondary_branch,
                            secondary_throughput, success_probability)
from cogrelay.sensing import (SensingConfig, detection_from_threshold,
                              false_alarm_from_detection, q_function,
                              q_inverse, threshold_from_detection)
from cogrelay.sim import SimConfig, analytical_reference, estimates, simulate
from cogrelay.solver import SolverConfig, value_iteration
from oracles import state_values, value_iteration_dense

# bind to the conftest module pytest itself loaded, so the run ledger and
# acceptance lines land in the objects the terminal summary hook reads
import conftest

# 20 significant digits keeps the oracle error around 1e-20, far below the
# 1e-12 gate, while staying fast enough for the 1-second budget
mp.mp.dps = 20
_SQRT2 = mp.sqrt(2)
_SQRTPI = mp.sqrt(mp.pi)


# ---------------------------------------------------------------------------
# criterion 1: closed-form expressions against a high-precision re-evaluation


def _mp_q(x):
    return mp.erfc(mp.mpf(x) / _SQRT2) / 2


def _mp_qinv(p):
    # Newton refinement of a double-precision seed; two steps converge to
    # working precision regardless of the seed and beat mp.erfinv by 6x
    t = 1 - 2 * mp.mpf(p)
    x = mp.mpf(float(scipy.special.erfcinv(2 * p)))
    for _ in range(2):
        x -= (mp.erf(x) - t) * _SQRTPI / 2 * mp.exp(x * x)
    return _SQRT2 * x


def _mp_success(beta, gamma, gamma_i=0.0):
    return mp.exp(-mp.mpf(beta) * (1 + mp.mpf(gamma_i)) / mp.mpf(gamma))


def _mp_weights(pf, pd, pi1):
    pf, pd, pi1 = mp.mpf(pf), mp.mpf(pd), mp.mpf(pi1)
    return {"00": (1 - pf) * (1 - pi1), "01": pf * (1 - pi1),
            "10": (1 - pd) * pi1, "11": pd * pi1}


def _mp_branch(outcome, weights, ch, gamma):
    beta = ch.beta_sp if outcome.declared_busy else ch.beta_s
    interf = ch.gamma_ps if outcome.primary_busy else 0.0
    return weights[outcome.value] * _mp_success(beta, gamma, interf)


def _rel_err(value: float, ref) -> float:
    # the reference is evaluated at high precision; rounding it once to a
    # float for the ratio adds ~1e-16, negligible against the 1e-12 gate
    ref_f = float(ref)
    return abs(value - ref_f) / max(abs(ref_f), 1e-300)


def test_criterion_01_closed_forms_match_high_precision():
    rng = np.random.default_rng(20250815)
    draws = []
    for _ in range(1000):
        gamma_s, gamma_p, gamma_sp = (float(v) for v in 10.0 ** rng.uniform(-1, 2, 3))
        gamma_ps = float(rng.uniform(0.0, 10.0))
        beta_s, beta_sp, beta_p = (float(v) for v in rng.uniform(0.0, 3.0, 3))
        ch = ChannelParams(gamma_s=gamma_s, gamma_p=gamma_p, gamma_sp=gamma_sp,
                           gamma_ps=gamma_ps, beta_s=beta_s, beta_sp=beta_sp,
                           beta_p=beta_p)
        pd, pf, pi1 = (float(v) for v in rng.uniform(0.0, 1.0, 3))
        mu_s = float(rng.uniform(0.1, 1.0))
        lam_s = float(rng.uniform(0.0, 0.999)) * mu_s
        mu_ps = float(rng.uniform(0.1, 1.0))
        lam_ps = float(rng.uniform(0.0, 0.999)) * mu_ps
        q = QueueParams(lambda_s=lam_s, mu_s_max=mu_s,
                        lambda_ps=lam_ps, mu_ps_max=mu_ps)
        tau = float(rng.uniform(0.05, 0.95)) * 1e-3
        timing = SensingTiming(tau=tau, t_frame=1e-3)
        gamma_se = float(10.0 ** rng.uniform(-2.0, -0.5))
        tau_det = float(rng.uniform(1e-4, 1e-3))
        det = SensingConfig(gamma_se=gamma_se, tau=tau_det, f_s=1e6)
        pd_det = float(rng.uniform(0.05, 0.95))
        x = float(rng.uniform(-5.0, 5.0))
        p = float(rng.uniform(0.001, 0.999))
        draws.append((ch, q, timing, det, pd, pf, pi1, tau, pd_det, x, p))

    # first calls pay mpmath cache-warming costs; keep them off the clock
    _mp_q(0.5), _mp_qinv(0.5), mp.exp(mp.mpf(-1))

    worst = 0.0
    t0 = time.perf_counter()
    for ch, q, timing, det, pd, pf, pi1, tau, pd_det, x, p in draws:
        beta_s, beta_p = ch.beta_s, ch.beta_p
        gamma_s, gamma_p, gamma_sp, gamma_ps = (ch.gamma_s, ch.gamma_p,
                                                ch.gamma_sp, ch.gamma_ps)

        checks = [(success_probability(beta_s, gamma_s, gamma_ps),
                   _mp_success(beta_s, gamma_s, gamma_ps))]

        weights = _mp_weights(pf, pd, pi1)
        b_s = [secondary_branch(o, pf, pd, pi1, ch) for o in OUTCOME_ORDER]
        b_ps = [relay_branch(o, pf, pd, pi1, ch) for o in OUTCOME_ORDER]
        mp_b_s = [_mp_branch(o, weights, ch, gamma_s) for o in OUTCOME_ORDER]
        mp_b_ps = [_mp_branch(o, weights, ch, gamma_sp) for o in OUTCOME_ORDER]
        checks.extend(zip(b_s, mp_b_s))
        checks.extend(zip(b_ps, mp_b_ps))

        rho_s = mp.mpf(q.lambda_s) / mp.mpf(q.mu_s_max)
        rho_ps = mp.mpf(q.lambda_ps) / mp.mpf(q.mu_ps_max)
        frame = (mp.mpf("1e-3") - mp.mpf(tau)) / mp.mpf("1e-3")
        no_outage = _mp_success(beta_p, gamma_p)
        checks.append((secondary_throughput(sum(b_s), timing, q, ch),
                       frame * sum(mp_b_s) * rho_s * no_outage))
        checks.append((primary_throughput(sum(b_ps), q, ch, pi1),
                       _mp_success(beta_p, gamma_p, gamma_sp) * mp.mpf(pi1)
                       + sum(mp_b_ps) * rho_ps * (1 - no_outage)))

        n = det.n_samples
        mge = mp.mpf(det.gamma_se)
        qinv_pd = _mp_qinv(pd_det)
        spread = mp.sqrt((2 * mge + 1) / n)
        checks.append((false_alarm_from_detection(pd_det, det),
                       _mp_q(qinv_pd * mp.sqrt(2 * mge + 1)
                             + mp.sqrt(n) * mge)))
        eta = threshold_from_detection(pd_det, det)
        checks.append((eta, qinv_pd * spread + mge + 1))
        checks.append((detection_from_threshold(eta, det),
                       _mp_q((mp.mpf(eta) - mge - 1) / spread)))

        checks.append((q_function(x), _mp_q(x)))
        checks.append((q_inverse(p), _mp_qinv(p)))

        worst = max(worst, max(_rel_err(v, ref) for v, ref in checks))
    elapsed = time.perf_counter() - t0

    passed = worst <= 1e-12 and elapsed < 1.0
    line = conftest.record_acceptance(
        1, passed, f"1000 randomized draws, max rel err {worst:.2e} "
                   f"(tol 1e-12) in {elapsed:.2f}s (budget 1s)")
    assert passed, line


# ---------------------------------------------------------------------------
# criterion 2: default-grid transition rows are probability distributions


def test_criterion_02_transition_rows_sum_to_one_on_default_grids():
    rc = resolve_config(None)
    params, grids = rc.model_params(), rc.grids()
    assert grids.n_states == 92_400
    assert grids.actions.n_actions == 231

    rng = np.random.default_rng(424242)
    states = rng.integers(0, grids.n_states, 100_000)
    acts = rng.integers(0, grids.actions.n_actions, 100_000)

    t0 = time.perf_counter()
    mdp = build_spectrum_mdp(grids, params, CostModel())
    worst = 0.0
    for s, a in zip(states, acts):
        _, probabilities = transition(mdp, int(s), int(a))
        worst = max(worst, abs(sum(probabilities.tolist()) - 1.0))
    elapsed = time.perf_counter() - t0

    passed = worst <= 1e-12 and elapsed < 30.0
    line = conftest.record_acceptance(
        2, passed, f"1e5 sampled rows of the 92400x231 model, "
                   f"max |sum-1| = {worst:.2e} (tol 1e-12) in {elapsed:.1f}s "
                   f"(budget 30s)")
    assert passed, line


# ---------------------------------------------------------------------------
# criterion 3: value iteration against brute-force policy enumeration


def test_criterion_03_matches_policy_enumeration_on_random_mdps():
    t0 = time.perf_counter()
    worst_diff = 0.0
    argmax_exact = True
    for i in range(50):
        rng = np.random.default_rng(777000 + i)
        n_s = int(rng.integers(2, 13))
        n_a = int(rng.integers(2, 5))
        while n_a ** n_s > 70_000:
            n_s -= 1
        d = 0.5 if i % 2 == 0 else 0.9
        p = rng.dirichlet(np.ones(n_s), size=(n_a, n_s))
        r = rng.uniform(0.0, 1.0, size=(n_s, n_a))

        policies = np.indices((n_a,) * n_s).reshape(n_s, -1).T
        eye = np.eye(n_s)
        state_idx = np.arange(n_s)
        j_star = np.full(n_s, -np.inf)
        for chunk in np.array_split(policies, max(1, len(policies) // 4096)):
            p_pi = p[chunk, state_idx, :]
            r_pi = r[state_idx, chunk]
            j = np.linalg.solve(eye - d * p_pi, r_pi[..., None])[..., 0]
            j_star = np.maximum(j_star, j.max(axis=0))
        q_star = r + d * np.einsum("ast,t->sa", p, j_star)
        greedy_star = q_star.argmax(axis=1)

        cfg = SolverConfig(epsilon=1e-10, max_iters=2000, discount=d)
        vt, actions = value_iteration_dense(p, r, cfg)
        assert vt.converged
        worst_diff = max(worst_diff, float(np.max(np.abs(vt.values - j_star))))
        argmax_exact &= bool(np.array_equal(actions, greedy_star))
    elapsed = time.perf_counter() - t0

    passed = worst_diff <= 1e-6 and argmax_exact and elapsed < 10.0
    line = conftest.record_acceptance(
        3, passed, f"50 random instances vs full enumeration, "
                   f"max value diff {worst_diff:.2e} (tol 1e-6), "
                   f"argmax exact: {argmax_exact}, {elapsed:.1f}s (budget 10s)")
    assert passed, line


# ---------------------------------------------------------------------------
# criterion 4: every solver run in the suite contracts


def test_criterion_04_residuals_contract_on_every_run():
    from tests.test_solver import small_mdp
    cfg = SolverConfig(epsilon=1e-9, discount=0.9)
    vt, _ = value_iteration(small_mdp(), cfg)
    res = np.asarray(vt.residuals)
    worst_here = float(np.max(res[1:] - cfg.discount * res[:-1]))

    # the conftest wrappers assert the same inequality at every call site,
    # so merely having reached this test means no earlier run violated it
    n_runs = len(conftest.RECORDED_RUNS)
    passed = worst_here <= conftest.CONTRACTION_SLACK and n_runs > 0
    line = conftest.record_acceptance(
        4, passed, f"max(r_k+1 - d*r_k) = {worst_here:.2e} (tol 1e-12) on a "
                   f"fresh run; {n_runs} wrapped solver runs so far all "
                   f"contracted")
    assert passed, line


# ---------------------------------------------------------------------------
# criterion 5: Monte-Carlo agreement with the throughput expressions


def _reference_point() -> ModelParams:
    return ModelParams(
        channel=ChannelParams(
            gamma_s=db_to_linear(10.0), gamma_p=db_to_linear(7.0),
            gamma_sp=db_to_linear(6.0), gamma_ps=db_to_linear(3.0),
            beta_s=0.5, beta_sp=0.7, beta_p=1.0),
        queues=QueueParams(lambda_s=0.5, mu_s_max=0.8,
                           lambda_ps=0.15, mu_ps_max=0.5),
        timing=SensingTiming(tau=0.3e-3, t_frame=1e-3),
        sensing=SensingConfig(gamma_se=db_to_linear(-15.0), tau=0.3e-3, f_s=1e6),
        power=PowerPolicy(p_av=db_to_linear(5.0)),
    )


def test_criterion_05_simulation_matches_throughput_formulas():
    params = _reference_point()
    runs = [
        ("forced detection", dict(pd=1.0, pi1=1.0)),
        ("forced miss", dict(pd=0.0, pi1=1.0)),
        ("forced false alarm", dict(pd=0.5, pf=1.0, pi1=0.0)),
        ("forced clean idle", dict(pd=0.5, pf=0.0, pi1=0.0)),
        ("mixed", dict(pd=0.8, pi1=0.4)),
    ]

    def z(est: float, se: float, ref: float, n: int) -> float:
        if se == 0.0:
            return 0.0 if abs(est - ref) <= 3.0 / n else math.inf
        return abs(est - ref) / se

    t0 = time.perf_counter()
    worst = 0.0
    for i, (label, kw) in enumerate(runs):
        cfg = SimConfig(n_slots=1_000_000, seed=41_000 + i, params=params, **kw)
        stats = simulate(cfg)
        ref, est = analytical_reference(cfg), estimates(cfg, stats)
        worst = max(worst,
                    z(*est["mu_s"], ref["mu_s"], stats.n_slots),
                    z(*est["mu_p"], ref["mu_p"], stats.n_slots))
    elapsed = time.perf_counter() - t0

    passed = worst <= 3.0 and elapsed < 60.0
    line = conftest.record_acceptance(
        5, passed, f"5 runs of 1e6 slots (4 forced outcomes + mixed), "
                   f"worst |z| = {worst:.2f} (tol 3) in {elapsed:.1f}s "
                   f"(budget 60s)")
    assert passed, line


# ---------------------------------------------------------------------------
# criterion 6: joint control dominates every pinned heuristic


def test_criterion_06_joint_control_dominates_pinned_heuristics():
    rc = resolve_config(None)
    mdp = build_spectrum_mdp(rc.grids(), rc.model_params(), rc.costs())
    scfg = SolverConfig(epsilon=5e-12, max_iters=4000, discount=0.98)

    joint, _ = value_iteration(mdp, scfg)
    assert joint.converged
    joint_values = state_values(mdp, joint.values)

    worst_gap = -math.inf
    n_pd = len(mdp.grids.actions.pd_levels)
    n_ic = len(mdp.grids.actions.ic_levels)
    for k in range(n_pd):
        pinned, _ = value_iteration(mdp, scfg, mode="fixed_pd", pinned=k)
        assert pinned.converged
        worst_gap = max(worst_gap,
                        float(np.max(state_values(mdp, pinned.values) - joint_values)))
    for k in range(n_ic):
        pinned, _ = value_iteration(mdp, scfg, mode="fixed_ic", pinned=k)
        assert pinned.converged
        worst_gap = max(worst_gap,
                        float(np.max(state_values(mdp, pinned.values) - joint_values)))

    passed = worst_gap <= 1e-9
    line = conftest.record_acceptance(
        6, passed, f"joint values vs {n_pd} pinned-pd and {n_ic} pinned-ic "
                   f"solves at every state: max(pinned - joint) = "
                   f"{worst_gap:.2e} (tol 1e-9)")
    assert passed, line


# ---------------------------------------------------------------------------
# criteria 7-9: qualitative shape of the operating-point landscape


def test_criterion_07_detection_curves_are_unimodal_and_ic_monotone():
    rc = resolve_config(None)
    scfg = rc.solver_config()
    sg = rc.state_grids()
    pd_grid = rc.action_grids().pd_levels
    ic_dbs = (-15.0, -5.0, 5.0)
    rho_rows = (0.1, 0.9)

    # the points of the default `sweep pd`, on the route it runs
    keys = [(ic_db, rho) for ic_db in ic_dbs for rho in rho_rows]
    values, _ = cli._pinned_values(rc, rc.model_params(), sg, [
        (pd, db_to_linear(ic_db), rho) for ic_db, rho in keys for pd in pd_grid], scfg)
    curves = dict(zip(keys, np.reshape(values, (len(keys), len(pd_grid)))))

    unimodal = True
    argmaxes = {}
    for key, j in curves.items():
        k = int(np.argmax(j))
        d = np.diff(j)
        unimodal &= 0 < k < len(j) - 1
        unimodal &= bool(np.all(d[:k] > 0.0)) and bool(np.all(d[k:] < 0.0))
        argmaxes[key] = pd_grid[k]

    monotone = True
    for rho in rho_rows:
        for lo, hi in zip(ic_dbs, ic_dbs[1:]):
            monotone &= bool(np.all(curves[(hi, rho)] >= curves[(lo, rho)] - 1e-12))

    peaks = sorted(set(argmaxes.values()))
    passed = unimodal and monotone
    line = conftest.record_acceptance(
        7, passed, f"6 J-vs-pd curves unimodal with interior peaks at pd in "
                   f"{peaks}, pointwise non-decreasing in ic; reference "
                   f"design quotes peaks near 0.7-0.8 (recorded, not asserted)")
    assert passed, line


def test_criterion_08_ic_sweeps_flat_at_low_pd_rising_at_high_pd():
    rc = resolve_config(None)
    scfg = rc.solver_config()
    sg = rc.state_grids()
    ic_levels = rc.action_grids().ic_levels
    rho_rows = (0.1, 0.9)

    # the points of the default `sweep ic`, on the route it runs
    values, _ = cli._pinned_values(rc, rc.model_params(), sg, [
        (pd, ic, rho) for rho in rho_rows for pd in (0.1, 0.9) for ic in ic_levels], scfg)
    flat_ok = True
    rising_ok = True
    flat_ranges = []
    for low, high in np.reshape(values, (len(rho_rows), 2, len(ic_levels))):
        rel_range = float((low.max() - low.min()) / low.mean())
        flat_ranges.append(rel_range)
        flat_ok &= rel_range <= 0.05
        rising_ok &= bool(np.all(np.diff(high) > 0.0))

    passed = flat_ok and rising_ok
    line = conftest.record_acceptance(
        8, passed, f"pd=0.1 ic-sweeps flat (rel ranges "
                   f"{[f'{v:.3f}' for v in flat_ranges]}, tol 0.05); "
                   f"pd=0.9 sweeps strictly increasing over all 21 levels")
    assert passed, line


def _operating_map(rc, pav_db: float) -> list[float]:
    """Throughput-argmax detection level per interference cap at one budget, at rho_p 0.2."""
    budget = rc.at_budget(pav_db)
    pd_levels, ic_levels = rc.action_grids().pd_levels, rc.action_grids().ic_levels
    values, _ = cli._pinned_values(budget, budget.model_params(), budget.state_grids(), [
        (pd, ic, 0.2) for ic in ic_levels for pd in pd_levels], rc.solver_config())
    return [pd_levels[k] for k in np.reshape(values, (len(ic_levels), -1)).argmax(axis=1)]


def test_criterion_09_operating_map_thresholds_and_saturates():
    rc = resolve_config(None)
    low = {db: _operating_map(rc, db) for db in (-5.0, 0.0)}
    high = {db: _operating_map(rc, db) for db in (40.0, 50.0)}

    stepped = True
    thresholds = {}
    for db, row in low.items():
        arr = np.array(row)
        d = np.diff(arr)
        stepped &= bool(np.all(d >= -1e-15))
        steps = np.nonzero(d > 1e-12)[0]
        stepped &= steps.size >= 1
        if steps.size:
            first = int(steps[0]) + 1
            thresholds[db] = -15 + first
            stepped &= 0 < first < len(row) - 1

    insensitive = high[40.0] == high[50.0]
    passed = stepped and insensitive
    line = conftest.record_acceptance(
        9, passed, f"low-budget maps monotone-stepped with interior "
                   f"thresholds at {thresholds} dB; 40 and 50 dB maps "
                   f"identical; reference map holds pd 0.7 up to about "
                   f"-10 dB (recorded, not asserted)")
    assert passed, line


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns, including under thread variation


def _run_cli(tmp_path, name: str, args: list[str]) -> tuple[int, dict[str, bytes]]:
    out = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "cogrelay", *args, "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path,
        env=conftest.cli_subprocess_env())
    assert proc.returncode in (0, 2, 3), proc.stderr
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert files, f"{name} produced no output files"
    return proc.returncode, files


def test_criterion_10_reruns_are_byte_identical(tmp_path):
    cases = [
        ("solve",
         {"solver": {"mode": "fixed_pd", "pinned_pd": 0.5, "epsilon": 1e-4}},
         ["solve"], ["solve"]),
        ("sweep_pd",
         {"sweep": {"variable": "pd", "grid": [0.2, 0.8],
                    "ic_db": [-5.0], "rho_p": [0.1]}},
         ["sweep", "--threads", "1"], ["sweep", "--threads", "3"]),
        ("sweep_pav",
         {"solver": {"epsilon": 1e-4},
          "sweep": {"variable": "pav", "grid_db": [0.0, 40.0]}},
         ["sweep", "--threads", "1"], ["sweep", "--threads", "2"]),
        ("simulate",
         {"sim": {"n_slots": 50_000, "seed": 7}},
         ["simulate"], ["simulate"]),
    ]

    all_identical = True
    details = []
    for label, doc, args_a, args_b in cases:
        cfg = tmp_path / f"{label}.json"
        cfg.write_text(json.dumps(doc))
        rc_a, files_a = _run_cli(tmp_path, f"{label}_a",
                                 args_a + ["--config", str(cfg)])
        rc_b, files_b = _run_cli(tmp_path, f"{label}_b",
                                 args_b + ["--config", str(cfg)])
        same = rc_a == rc_b and files_a == files_b
        all_identical &= same
        details.append(f"{label}: {'identical' if same else 'DIFFERS'}")

    line = conftest.record_acceptance(
        10, all_identical, f"subprocess reruns byte-compared "
                           f"({'; '.join(details)}), thread counts varied on "
                           f"the sweeps")
    assert all_identical, line
