"""Command-line surface: solve, sweep, simulate, validate.

Every output is a plain CSV whose first line is a ``#``-prefixed JSON
manifest carrying the fully resolved configuration and its SHA-256 hash, so
a file is traceable to the exact run that produced it and reruns with the
same configuration and seed are byte-identical.  Wall-clock timings go to
stdout only, never into files.

Exit codes: 0 success, 1 invalid or unstable configuration, 2 solver hit its
iteration cap, 3 simulation disagrees with the analytical model.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .config import (ConfigError, ResolvedConfig, SweepSpec, _grid_index,
                     config_hash, nearest_index, resolve_config)
from .mdp import (ActionGrids, CostModel, MdpGrids, PowerPolicy, StateGrids,
                  build_spectrum_mdp, validate)
from .model import linear_to_db
from .sim import analytical_reference, simulate
from .solver import (LOOKUP_COLUMNS, SolverConfig, evaluate_policy_exact,
                     extract_lookup_table, policy_iteration, value_iteration)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITERS = 2
EXIT_STATISTICAL = 3


def _fmt(value: Any) -> str:
    if isinstance(value, (bool, int, str)):
        return str(value)
    return repr(float(value))


def _manifest_line(payload: dict[str, Any]) -> str:
    return "# " + json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _write_csv(path: Path, manifest: dict[str, Any], header: Sequence[str],
               rows: Sequence[Sequence[Any]]) -> None:
    lines = [_manifest_line(manifest), ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fail_config(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _base_manifest(command: str, rc: ResolvedConfig) -> dict[str, Any]:
    return {"command": command, "config": rc.raw, "config_sha256": rc.sha256}


def _reference_indices(grids: MdpGrids, rc: ResolvedConfig) -> tuple[int, int]:
    """Reporting point: the rho_s level nearest the configured utilisation
    and the power level nearest the stationary mean."""
    q = rc.queues()
    rs_ref = nearest_index(q.rho_s, grids.states.rho_s_levels)
    mean_ps = float(np.dot(grids.states.p_s_levels, grids.states.p_s_stationary))
    ps_ref = nearest_index(mean_ps, grids.states.p_s_levels)
    return rs_ref, ps_ref


def _checked_setup(rc: ResolvedConfig):
    """Build params and grids, turning any constraint breach into ConfigError."""
    try:
        params = rc.model_params()
        grids = rc.grids()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = validate(params, grids)
    if not report.ok:
        raise ConfigError(str(report))
    return params, grids


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        rc = resolve_config(args.config)
        params, grids = _checked_setup(rc)
        mode, pinned = rc.solver_mode()
        scfg = rc.solver_config()
    except (ConfigError, ValueError) as exc:
        return _fail_config(str(exc))

    mdp = build_spectrum_mdp(grids, params, rc.costs(),
                             reward_uses_chosen_action=rc.reward_uses_chosen_action())
    t0 = time.perf_counter()
    vt, pt = value_iteration(mdp, scfg, mode=mode, pinned=pinned)
    wall = time.perf_counter() - t0
    table = extract_lookup_table(mdp, vt, pt)

    manifest = _base_manifest("solve", rc)
    manifest.update({
        "mode": mode,
        "iterations": vt.iterations,
        "converged": vt.converged,
        "final_residual": vt.final_residual,
        "error_bound": scfg.discount * vt.final_residual / (1.0 - scfg.discount),
        "distinct_actions": int(np.unique(pt.actions).size),
        "rows": mdp.n_states,
    })
    out = _out_dir(args)
    _write_csv(out / "lookup.csv", manifest, LOOKUP_COLUMNS, table.rows)
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    status = "converged" if vt.converged else "hit max_iters"
    print(f"solve: {mdp.n_states} states, {vt.iterations} iterations, "
          f"residual {vt.final_residual:.3e}, {status} ({wall:.2f}s wall)")
    return EXIT_OK if vt.converged else EXIT_MAX_ITERS


# ---------------------------------------------------------------------------
# sweep


def _pinned_value(rc: ResolvedConfig, state_grids: StateGrids, pd: float,
                  ic: float, rho_p: float, scfg: SolverConfig) -> float:
    """Discounted throughput of holding (pd, ic) fixed, read at the
    reporting state for the requested primary utilisation."""
    grids = MdpGrids(states=state_grids, actions=ActionGrids((pd,), (ic,)))
    params = rc.model_params()
    mdp = build_spectrum_mdp(grids, params, rc.costs())
    values = evaluate_policy_exact(mdp, np.zeros(mdp.n_states, dtype=np.intp),
                                   scfg.discount, reward="throughput")
    rp_ref = _grid_index(rho_p, state_grids.rho_p_levels, "sweep.rho_p")
    rs_ref, ps_ref = _reference_indices(grids, rc)
    flat = ((rp_ref * len(state_grids.rho_s_levels) + rs_ref)
            * len(state_grids.p_s_levels) + ps_ref)
    return float(values[flat])         # singleton action: prev axes are size 1


def _pav_point(rc: ResolvedConfig, pav: float, scfg: SolverConfig) -> tuple[float, float, bool]:
    """Joint-control throughput argmax at the reporting state for one budget.

    The reference power stays pinned at the configured value so cut-offs
    keep their meaning while the budget (and the power-state grid derived
    from it) moves.  Like the other sweeps this reports the throughput
    objective; the absolute sensing/interference charges belong to the
    solve command's exported values.
    """
    base_power = rc.power()
    power = PowerPolicy(p_av=pav, mean_g_sp=base_power.mean_g_sp,
                        p_ref=base_power.reference_power)
    params = replace(rc.model_params(), power=power)
    grids = rc.grids(p_av=pav)
    report = validate(params, grids)
    if not report.ok:
        raise ConfigError(str(report))
    mdp = build_spectrum_mdp(grids, params, CostModel(s_const=0.0, c_const=0.0),
                             reward_uses_chosen_action=rc.reward_uses_chosen_action())
    vt, pt = policy_iteration(mdp, scfg, mode="joint")
    rp_ref = nearest_index(params.queues.rho_p, grids.states.rho_p_levels)
    rs_ref, ps_ref = _reference_indices(grids, rc)
    n_rs = len(grids.states.rho_s_levels)
    n_ps = len(grids.states.p_s_levels)
    n_prev = grids.shape[3] * grids.shape[4]
    flat = (((rp_ref * n_rs + rs_ref) * n_ps + ps_ref)) * n_prev
    action = int(pt.actions[flat])
    n_ic = len(grids.actions.ic_levels)
    return (grids.actions.pd_levels[action // n_ic],
            grids.actions.ic_levels[action % n_ic],
            vt.converged)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        rc = resolve_config(args.config)
        _checked_setup(rc)
        spec = rc.sweep_spec()
        scfg = rc.solver_config()
        state_grids = rc.state_grids()
    except (ConfigError, ValueError) as exc:
        return _fail_config(str(exc))

    t0 = time.perf_counter()
    all_converged = True
    try:
        if spec.variable in ("pd", "ic"):
            if spec.variable == "pd":
                header = ("pd", "ic_db", "rho_p", "J")
                points = [(pd, ic, rp) for pd in spec.grid
                          for ic in spec.ic_fixed for rp in spec.rho_p]
            else:
                header = ("ic_db", "pd", "rho_p", "J")
                points = [(pd, ic, rp) for ic in spec.grid
                          for pd in spec.pd_fixed for rp in spec.rho_p]
            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                values = list(pool.map(
                    lambda p: _pinned_value(rc, state_grids, *p, scfg), points))
            rows = []
            for (pd, ic, rp), j in zip(points, values):
                cells = {"pd": pd, "ic_db": linear_to_db(ic), "rho_p": rp, "J": j}
                rows.append(tuple(cells[name] for name in header))
        else:
            header = ("pav_db", "argmax_pd", "argmax_ic_db")
            with ThreadPoolExecutor(max_workers=args.threads) as pool:
                results = list(pool.map(lambda pav: _pav_point(rc, pav, scfg),
                                        spec.grid))
            rows = []
            for pav, (pd_opt, ic_opt, converged) in zip(spec.grid, results):
                all_converged &= converged
                rows.append((linear_to_db(pav), pd_opt, linear_to_db(ic_opt)))
    except (ConfigError, ValueError) as exc:
        return _fail_config(str(exc))
    wall = time.perf_counter() - t0

    manifest = _base_manifest("sweep", rc)
    manifest.update({
        "variable": spec.variable,
        "points": len(rows),
        "converged": all_converged,
    })
    out = _out_dir(args)
    path = out / f"sweep_{spec.variable}.csv"
    _write_csv(path, manifest, header, rows)
    print(f"sweep {spec.variable}: {len(rows)} rows -> {path} ({wall:.2f}s wall)")
    return EXIT_OK if all_converged else EXIT_MAX_ITERS


# ---------------------------------------------------------------------------
# simulate


_METRIC_LABELS = ("fa", "nfa", "md", "d")


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        rc = resolve_config(args.config)
        if args.seed is not None:
            rc.raw["sim"]["seed"] = int(args.seed)
        params, _ = _checked_setup(rc)
        cfg = rc.sim_config()
    except (ConfigError, ValueError) as exc:
        return _fail_config(str(exc))

    t0 = time.perf_counter()
    stats = simulate(cfg)
    wall = time.perf_counter() - t0
    ana = analytical_reference(cfg)

    def z_score(est: float, se: float, ref: float) -> float:
        if se == 0.0:
            # A constant sample (all hits or all misses) still agrees with
            # any rate the run could not resolve: zero successes in n slots
            # is consistent with p up to about 3/n.
            return 0.0 if abs(est - ref) <= 3.0 / max(stats.n_slots, 1) else math.inf
        return (est - ref) / se

    n = stats.n_slots
    rows: list[tuple[str, float, float, float, float]] = []

    def add(metric: str, est: float, se: float, ref: float) -> None:
        rows.append((metric, est, se, ref, z_score(est, se, ref)))

    add("mu_s", stats.mu_s, stats.mu_s_se, float(ana["mu_s"]))
    add("mu_p", stats.mu_p, stats.mu_p_se, float(ana["mu_p"]))
    for i, label in enumerate(_METRIC_LABELS):
        f = float(stats.outcome_freq[i])
        se = math.sqrt(max(f * (1.0 - f), 0.0) / n)
        add(f"outcome_{label}", f, se, float(ana["outcome_freq"][i]))
    for i, label in enumerate(_METRIC_LABELS):
        add(f"branch_mu_s_{label}", float(stats.branch_mu_s[i]),
            float(stats.branch_mu_s_se[i]), float(ana["branch_mu_s"][i]))
    for i, label in enumerate(_METRIC_LABELS):
        add(f"branch_mu_ps_{label}", float(stats.branch_mu_ps[i]),
            float(stats.branch_mu_ps_se[i]), float(ana["branch_mu_ps"][i]))

    manifest = _base_manifest("simulate", rc)
    manifest.update({"n_slots": n, "seed": stats.seed})
    out = _out_dir(args)
    path = out / "simulate.csv"
    _write_csv(path, manifest, ("metric", "estimate", "se", "analytical", "z"), rows)

    worst = max(abs(r[4]) for r in rows)
    ok = all(abs(r[4]) < 3.0 for r in rows)
    print(f"simulate: {n} slots, worst |z| = {worst:.2f} -> {path} ({wall:.2f}s wall)")
    return EXIT_OK if ok else EXIT_STATISTICAL


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        rc = resolve_config(args.config)
    except ConfigError as exc:
        return _fail_config(str(exc))

    try:
        params = rc.model_params()
        grids = rc.grids()
    except ValueError as exc:
        return _fail_config(str(exc))

    report = validate(params, grids, q=rc.raw["queues"])
    print(str(report))
    return EXIT_OK if report.ok else EXIT_CONFIG


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogrelay",
        description="Sensing-based spectrum sharing with packet relaying: "
                    "analytical throughputs, control optimisation, simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None,
                       help="JSON configuration file (defaults fill missing keys)")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory for CSV artifacts")
        p.add_argument("--seed", type=int, default=None,
                       help="override the simulation seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for sweep points")

    p_solve = sub.add_parser("solve", help="value-iterate and export the lookup table")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="evaluate operating-point sweeps")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo run with analytical z-scores")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_val = sub.add_parser("validate", help="check a configuration against constraints")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
