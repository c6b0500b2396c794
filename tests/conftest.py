"""Suite-wide instrumentation.

Every in-process iterative solver run in the tests must contract: the
sup-norm residual sequence has to satisfy r_{k+1} <= discount * r_k + 1e-12,
or + 4 ulps of the largest value where those are coarser than 1e-12 (values
past about 1e3, which a float cannot resolve to 1e-12).
Every converged policy-iteration run must return a Bellman fixed point:
sup |T V - V| <= 1e-9, with T applied here through the model's kernel.
Rather than trusting each test to check this, the solver entry points (and
the references `oracles.value_iteration_dense`,
`oracles.value_iteration_lifted`, `oracles.value_iteration_full_columns`
and `oracles.evaluate_policy`) are wrapped here once, before any test
module imports them, so a violating run fails loudly at the call site no
matter which test triggered it.  Test modules import the oracles as
`oracles`, the module the wrapper patches, not as `tests.oracles`, which
would be a second, unwrapped copy.  Solver runs
inside `python -m cogrelay` child processes (criterion 10, the entry-point
test) are outside the wrappers and are not counted: run alone, those tests
report "contraction property checked on 0 solver runs".

Child processes get their environment from `cli_subprocess_env`, which puts
this checkout's `src` first on PYTHONPATH, so they run the code under test
whatever the working directory and whether or not a `cogrelay` is installed.

The acceptance tests additionally push one summary line each into
ACCEPTANCE_LINES; a terminal-summary hook prints them at the end of the run
so the report survives pytest's output capturing.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

import cogrelay
import cogrelay.cli
import cogrelay.solver
import oracles

CONTRACTION_SLACK = 1e-12
FIXED_POINT_TOL = 1e-9

RECORDED_RUNS: list[tuple[str, float, int]] = []
FIXED_POINT_RUNS: list[tuple[str, float]] = []
ACCEPTANCE_LINES: list[str] = []

_real_value_iteration = cogrelay.solver.value_iteration
_real_policy_iteration = cogrelay.solver.policy_iteration
_real_value_iteration_dense = oracles.value_iteration_dense
_real_value_iteration_lifted = oracles.value_iteration_lifted
_real_value_iteration_full_columns = oracles.value_iteration_full_columns
_real_evaluate_policy = oracles.evaluate_policy


def assert_contraction(residuals, discount: float, label: str, values) -> None:
    r = np.asarray(residuals, dtype=float)
    scale = float(np.max(np.abs(values), initial=0.0))
    if r.size >= 2:
        worst = float(np.max(r[1:] - discount * r[:-1]))
        assert worst <= max(CONTRACTION_SLACK, 4 * np.finfo(float).eps * scale), (
            f"contraction violated in {label}: "
            f"max(r_k+1 - {discount} * r_k) = {worst:.3e}")
    RECORDED_RUNS.append((label, discount, int(r.size)))


def _checked_value_iteration(mdp, cfg, mode="joint", pinned=None):
    vt, pt = _real_value_iteration(mdp, cfg, mode=mode, pinned=pinned)
    assert_contraction(vt.residuals, cfg.discount, f"value_iteration[{mode}]", vt.values)
    return vt, pt


def bellman_residual(mdp, values, discount) -> float:
    """sup |T V - V| of a per-state value table, T over all actions."""
    base, _ = cogrelay.solver._base_rewards(mdp)
    q = base + discount * oracles.continuation(mdp, values)
    backed_up = oracles.state_values(mdp, q.max(axis=-1))
    return float(np.max(np.abs(backed_up - values)))


def _checked_policy_iteration(mdp, cfg, start=None):
    vt, pt = _real_policy_iteration(mdp, cfg, start)
    if vt.converged:
        residual = bellman_residual(mdp, oracles.state_values(mdp, vt.values),
                                    cfg.discount)
        assert residual <= FIXED_POINT_TOL, (
            f"policy_iteration returned no fixed point: sup |T V - V| = {residual:.3e}")
        FIXED_POINT_RUNS.append(("policy_iteration", residual))
    return vt, pt


def _checked_value_iteration_dense(transitions, rewards, cfg, initial=None):
    vt, actions = _real_value_iteration_dense(transitions, rewards, cfg, initial)
    assert_contraction(vt.residuals, cfg.discount, "value_iteration_dense", vt.values)
    return vt, actions


def _checked_value_iteration_lifted(mdp, cfg, mode="joint", pinned=None):
    vt, pt = _real_value_iteration_lifted(mdp, cfg, mode=mode, pinned=pinned)
    assert_contraction(vt.residuals, cfg.discount, f"value_iteration_lifted[{mode}]", vt.values)
    return vt, pt


def _checked_value_iteration_full_columns(mdp, cfg, mode="joint", pinned=None, **observe):
    vt, pt = _real_value_iteration_full_columns(mdp, cfg, mode=mode, pinned=pinned, **observe)
    assert_contraction(vt.residuals, cfg.discount,
                       f"value_iteration_full_columns[{mode}]", vt.values)
    return vt, pt


def _checked_evaluate_policy(mdp, policy, cfg, reward="full"):
    vt = _real_evaluate_policy(mdp, policy, cfg, reward=reward)
    assert_contraction(vt.residuals, cfg.discount, "evaluate_policy", vt.values)
    return vt


for _ns in (cogrelay, cogrelay.solver, cogrelay.cli):
    if hasattr(_ns, "value_iteration"):
        _ns.value_iteration = _checked_value_iteration
    if hasattr(_ns, "policy_iteration"):
        _ns.policy_iteration = _checked_policy_iteration
oracles.value_iteration_dense = _checked_value_iteration_dense
oracles.value_iteration_lifted = _checked_value_iteration_lifted
oracles.value_iteration_full_columns = _checked_value_iteration_full_columns
oracles.evaluate_policy = _checked_evaluate_policy


def cli_subprocess_env() -> dict[str, str]:
    """os.environ with this checkout's absolute `src` first on PYTHONPATH."""
    src = str(Path(cogrelay.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


def record_acceptance(number: int, passed: bool, detail: str) -> str:
    line = f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
    terminalreporter.write_line(
        f"contraction property checked on {len(RECORDED_RUNS)} solver runs, "
        f"fixed-point property on {len(FIXED_POINT_RUNS)} policy-iteration runs")
