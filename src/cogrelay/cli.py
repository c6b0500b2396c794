"""Command-line surface: solve, sweep, simulate, validate.

Every output is a plain CSV whose first line is a ``#``-prefixed JSON
manifest carrying the fully resolved configuration and its SHA-256 hash, so
a file is traceable to the exact run that produced it and reruns with the
same configuration and seed are byte-identical, whatever `--threads` or the
BLAS thread count.  Wall-clock timings go to stdout only, never into files.

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
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .config import (ConfigError, ResolvedConfig, _grid_index, nearest_index,
                     resolve_config)
from .mdp import (ActionGrids, CostModel, MdpGrids, ModelParams, StateGrids,
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


def _fmt_column(column: Sequence[Any]) -> Sequence[str]:
    """`_fmt` of each cell.  A float64 array column formats each distinct
    value once, keyed by its bits, so -0.0 and 0.0 (and NaN payloads) stay
    apart; `repr` of the Python floats `tolist` gives is `_fmt` of each."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        return text[inverse]
    return [_fmt(v) for v in column]


def _write_csv(path: Path, manifest: dict[str, Any], header: Sequence[str],
               rows: Sequence[Sequence[Any]]) -> None:
    """Rows are a 2-D float array or a sequence of tuples; each line is
    `",".join(_fmt(v) for v in row)`, formatted column by column."""
    columns = rows.T if isinstance(rows, np.ndarray) else list(zip(*rows))
    lines = [_manifest_line(manifest), ",".join(header)]
    lines.extend(map(",".join, zip(*map(_fmt_column, columns))))
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


def _reference_block(grids: MdpGrids, rc: ResolvedConfig, rp_ref: int) -> int:
    """Flat (rho_p, rho_s, P_s) block index of the reporting point: the given
    rho_p level, the rho_s level nearest the configured utilisation and the
    power level nearest the stationary mean."""
    rs_ref = nearest_index(rc.queues().rho_s, grids.states.rho_s_levels)
    mean_ps = float(np.dot(grids.states.p_s_levels, grids.states.p_s_stationary))
    ps_ref = nearest_index(mean_ps, grids.states.p_s_levels)
    return int(np.ravel_multi_index((rp_ref, rs_ref, ps_ref), grids.shape[:3]))


def _checked_setup(rc: ResolvedConfig, p_av: float | None = None):
    """Params and grids (at budget p_av if given); a constraint breach is a ConfigError."""
    try:
        params = rc.model_params(p_av)
        grids = rc.grids(p_av)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = validate(params, grids)
    if not report.ok:
        raise ConfigError(str(report))
    return params, grids


# ---------------------------------------------------------------------------
# solve


def _action_histogram(rc: ResolvedConfig, block_actions: np.ndarray) -> dict[str, int]:
    """Number of (rho_p, rho_s, P_s) blocks per (pd, ic_db) action, keyed by
    the configured grid values."""
    grid = rc.raw["action_grids"]
    chosen, counts = np.unique(block_actions, return_counts=True)
    pd_i, ic_i = np.unravel_index(chosen, (len(grid["pd_levels"]), len(grid["ic_levels_db"])))
    return {f"pd={_fmt(grid['pd_levels'][p])},ic_db={_fmt(grid['ic_levels_db'][i])}": int(c)
            for p, i, c in zip(pd_i, ic_i, counts)}


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
    rows = extract_lookup_table(mdp, vt, pt)
    histogram = _action_histogram(rc, pt.actions)

    manifest = _base_manifest("solve", rc)
    manifest.update({
        "mode": mode,
        "iterations": vt.iterations,
        "converged": vt.converged,
        "first_residual": vt.residuals[0],
        "final_residual": vt.final_residual,
        "error_bound": scfg.discount * vt.final_residual / (1.0 - scfg.discount),
        "distinct_actions": len(histogram),
        "active_actions": vt.active_actions,
        "action_histogram": histogram,
        "rows": mdp.n_states,
    })
    out = _out_dir(args)
    _write_csv(out / "lookup.csv", manifest, LOOKUP_COLUMNS, rows)
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    status = "converged" if vt.converged else "hit max_iters"
    print(f"solve: {mdp.n_states} states, {vt.iterations} iterations, "
          f"residual {vt.final_residual:.3e}, {status} ({wall:.2f}s wall)")
    return EXIT_OK if vt.converged else EXIT_MAX_ITERS


# ---------------------------------------------------------------------------
# sweep


def _pinned_values(rc: ResolvedConfig, params: ModelParams, state_grids: StateGrids,
                   points: Sequence[tuple[float, float, float]],
                   scfg: SolverConfig) -> list[float]:
    """Discounted throughput of holding each point's (pd, ic) fixed, read at
    the reporting state for the point's primary utilisation rho_p.

    One model spans the distinct pd and ic values, sorted as its grids
    require, and prices each slot by the throughput of the held action with
    no control costs.  Each distinct (pd, ic) pair is one exact evaluation
    on it, and every point of a pair reads its J from that pair's one value
    vector."""
    pds = sorted({pd for pd, _, _ in points})
    ics = sorted({ic for _, ic, _ in points})
    grids = MdpGrids(states=state_grids, actions=ActionGrids(pds, ics))
    blocks = [_reference_block(grids, rc, _grid_index(rp, state_grids.rho_p_levels,
                                                      "sweep.rho_p"))
              for _, _, rp in points]
    mdp = build_spectrum_mdp(grids, params, CostModel(s_const=0.0, c_const=0.0),
                             reward_uses_chosen_action=True)
    n_blocks = mdp.n_states // mdp.n_actions
    solved = {}
    for pd, ic in dict.fromkeys((pd, ic) for pd, ic, _ in points):
        action = pds.index(pd) * len(ics) + ics.index(ic)
        values = evaluate_policy_exact(mdp, np.full(n_blocks, action), scfg.discount)
        # the chosen-action reward has no per-state term: J repeats each
        # block's value; a copy, so that the lifted vector is freed
        solved[pd, ic] = values[::mdp.n_actions].copy()
    return [float(solved[pd, ic][block]) for (pd, ic, _), block in zip(points, blocks)]


def _pinned_value(rc: ResolvedConfig, state_grids: StateGrids, pd: float,
                  ic: float, rho_p: float, scfg: SolverConfig) -> float:
    """Discounted throughput of holding (pd, ic) fixed, read at the
    reporting state for the requested primary utilisation."""
    return _pinned_values(rc, rc.model_params(), state_grids, [(pd, ic, rho_p)], scfg)[0]


def _pav_point(rc: ResolvedConfig, pav: float, scfg: SolverConfig) -> tuple[float, float, bool]:
    """Joint-control argmax at the reporting state for one budget.

    The model is `_checked_setup`'s at budget pav: the reference power
    stays the configured one, so cut-offs keep their meaning while the
    budget (and the power-state grid derived from it) moves.  It prices
    `solve`'s reward at zero costs, under solver.reward_uses_chosen_action:
    the throughput of the previous action, or of the chosen one, with no
    sensing or interference charge.
    """
    params, grids = _checked_setup(rc, pav)
    mdp = build_spectrum_mdp(grids, params, CostModel(s_const=0.0, c_const=0.0),
                             reward_uses_chosen_action=rc.reward_uses_chosen_action())
    vt, pt = policy_iteration(mdp, scfg)
    rp_ref = nearest_index(params.queues.rho_p, grids.states.rho_p_levels)
    pd_i, ic_i = np.unravel_index(pt.actions[_reference_block(grids, rc, rp_ref)],
                                  grids.shape[3:])
    return grids.actions.pd_levels[pd_i], grids.actions.ic_levels[ic_i], vt.converged


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        rc = resolve_config(args.config)
        params, grids = _checked_setup(rc)
        spec = rc.sweep_spec()
        scfg = rc.solver_config()
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
            values = _pinned_values(rc, params, grids.states, points, scfg)
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

    report = validate(params, grids)
    print(str(report))
    return EXIT_OK if report.ok else EXIT_CONFIG


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other input error, not argparse's 2,
    which here means the iteration cap."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    """An integer of at least 1, such as a worker-thread count."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cogrelay",
        description="Sensing-based spectrum sharing with packet relaying: "
                    "analytical throughputs, control optimisation, simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", type=Path, default=None,
                       help="JSON configuration file (defaults fill missing keys)")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory for CSV artifacts")
        p.set_defaults(func=func)
        return p

    command("solve", cmd_solve, "value-iterate and export the lookup table")
    command("sweep", cmd_sweep, "evaluate operating-point sweeps").add_argument(
        "--threads", type=positive_int, default=1,
        help="worker threads for the pav sweep's budgets; pd and ic sweeps run in one")
    command("simulate", cmd_simulate, "Monte-Carlo run with analytical z-scores").add_argument(
        "--seed", type=int, default=None, help="override the simulation seed")
    command("validate", cmd_validate, "check a configuration against constraints")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
