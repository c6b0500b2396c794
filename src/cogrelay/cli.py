"""Command-line surface: solve, sweep, simulate, validate.

Every output is a plain CSV whose first line is a ``#``-prefixed JSON
manifest carrying the fully resolved configuration and its SHA-256 hash, so
a file is traceable to the exact run that produced it and reruns with the
same configuration and seed are byte-identical, whatever `--threads` or the
BLAS thread count.  Wall-clock timings go to stdout only, never into files.
`sweep pav --threads N` cuts its budgets into up to N contiguous slices and
solves each slice in a worker process forked from the command (os.fork, so
POSIX only); every other command, and `--threads 1`, runs in this process.

Each command is a setup, `cmd_<name>(args, rc)`, that resolves and checks
everything it reads from the resolved configuration `rc` and returns the
`run` that does the work.  `main` runs the setup in its one `try`, so a
rejected configuration, or an `--out` that cannot be a directory, prints
one ``error:`` line and exits 1 before anything is solved or written;
`validate` runs every command's setup.
Setups read no numpy, which loads at the first array a `run` makes.

Exit codes: 0 success, 1 invalid or unstable configuration (or a failed
sweep worker), 2 solver hit its iteration cap, 3 simulation disagrees with
the analytical model.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ._lazy import np
from .config import (ConfigError, ResolvedConfig, _grid_index, nearest_index,
                     resolve_config)
from .mdp import (ActionGrids, CostModel, MdpGrids, ModelParams, StateGrids,
                  build_spectrum_mdp, validate)
from .model import db_to_linear, linear_to_db
from .sim import analytical_reference, estimates, simulate, z_score
from .solver import (LOOKUP_COLUMNS, SolverConfig, evaluate_policy_exact,
                     extract_lookup_table, policy_iteration, value_iteration)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITERS = 2
EXIT_STATISTICAL = 3

_BLOCK_ROWS = 4096     # lookup.csv rows per block that `solve` extracts and writes


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
               blocks: Iterable[Sequence[Sequence[Any]]]) -> None:
    """The manifest line, the header, then each block's rows: a block is a
    2-D float array or a non-empty sequence of tuples, and each line is
    `",".join(_fmt(v) for v in row)`, formatted column by column a block at
    a time, so the export holds one block's text and not the file's."""
    with path.open("w") as out:
        out.write(f"{_manifest_line(manifest)}\n{','.join(header)}\n")
        for rows in blocks:
            columns = rows.T if isinstance(rows, np.ndarray) else list(zip(*rows))
            out.write("\n".join(map(",".join, zip(*map(_fmt_column, columns)))) + "\n")


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_out(out: Path) -> None:
    """Reject an output directory that `_out_dir` could not make: the
    nearest path on it that exists is not a directory."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise ValueError(f"--out {out}: {path} exists and is not a directory")
            return


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


def _checked_setup(rc: ResolvedConfig):
    """Params and grids; a constraint breach is a ConfigError."""
    params = rc.model_params()
    grids = rc.grids()
    found = validate(params, grids)
    if found:
        raise ConfigError("; ".join(found))
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


def cmd_solve(args: argparse.Namespace, rc: ResolvedConfig) -> Callable[[], int]:
    params, grids = _checked_setup(rc)
    mode, pinned = rc.solver_mode()
    scfg = rc.solver_config()
    costs = rc.costs()

    def run() -> int:
        mdp = build_spectrum_mdp(grids, params, costs,
                                 reward_uses_chosen_action=rc.reward_uses_chosen_action())
        t0 = time.perf_counter()
        vt, pt = value_iteration(mdp, scfg, mode=mode, pinned=pinned)
        wall = time.perf_counter() - t0
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
        blocks = (extract_lookup_table(mdp, vt, pt, slice(start, start + _BLOCK_ROWS))
                  for start in range(0, mdp.n_states, _BLOCK_ROWS))
        _write_csv(out / "lookup.csv", manifest, LOOKUP_COLUMNS, blocks)
        (out / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n")

        status = "converged" if vt.converged else "hit max_iters"
        print(f"solve: {mdp.n_states} states, {vt.iterations} iterations, "
              f"residual {vt.final_residual:.3e}, {status} ({wall:.2f}s wall)")
        return EXIT_OK if vt.converged else EXIT_MAX_ITERS
    return run


# ---------------------------------------------------------------------------
# sweep


def _pinned_values(rc: ResolvedConfig, params: ModelParams, state_grids: StateGrids,
                   points: Sequence[tuple[float, float, float]],
                   scfg: SolverConfig) -> tuple[list[float], float]:
    """Discounted throughput of holding each point's (pd, ic) fixed, read at
    the reporting state for the point's primary utilisation rho_p, and the
    worst relative residual of the solves.

    One model spans the distinct pd and ic values, sorted as its grids
    require, and prices each slot by the throughput of the held action with
    no control costs.  Its actions form one stack of constant policies in
    flat-action order, evaluated exactly in one call, and every point reads
    its J from the row of its (pd, ic) pair."""
    pds = sorted({pd for pd, _, _ in points})
    ics = sorted({ic for _, ic, _ in points})
    grids = MdpGrids(states=state_grids, actions=ActionGrids(pds, ics))
    blocks = [_reference_block(grids, rc, _grid_index(rp, state_grids.rho_p_levels,
                                                      "sweep.rho_p"))
              for _, _, rp in points]
    mdp = build_spectrum_mdp(grids, params, CostModel(s_const=0.0, c_const=0.0),
                             reward_uses_chosen_action=True)
    stack = np.repeat(np.arange(mdp.n_actions)[:, None], mdp.n_states // mdp.n_actions, axis=1)
    values, residuals = evaluate_policy_exact(mdp, stack, scfg.discount)
    return ([float(values[pds.index(pd) * len(ics) + ics.index(ic), block])
             for (pd, ic, _), block in zip(points, blocks)], float(residuals.max()))


def _pinned_value(rc: ResolvedConfig, state_grids: StateGrids, pd: float,
                  ic: float, rho_p: float, scfg: SolverConfig) -> float:
    """Discounted throughput of holding (pd, ic) fixed, read at the
    reporting state for the requested primary utilisation."""
    return _pinned_values(rc, rc.model_params(), state_grids, [(pd, ic, rho_p)], scfg)[0][0]


def _pav_point(rc: ResolvedConfig, params: ModelParams, grids: MdpGrids,
               scfg: SolverConfig, start: np.ndarray | None = None
               ) -> tuple[float, float, bool, np.ndarray]:
    """Joint-control argmax at the reporting state for one budget, whether
    its solve converged, and its block policy.

    params and grids are `_checked_setup`'s of `rc.at_budget`: the
    reference power stays the configured one, so cut-offs keep their
    meaning while the budget (and the power-state grid derived from it)
    moves.  The model prices `solve`'s reward at zero costs, under
    solver.reward_uses_chosen_action: the throughput of the previous
    action, or of the chosen one, with no sensing or interference charge.
    Policy iteration starts from `start`, a block policy on the same grids,
    when one is given.
    """
    mdp = build_spectrum_mdp(grids, params, CostModel(s_const=0.0, c_const=0.0),
                             reward_uses_chosen_action=rc.reward_uses_chosen_action())
    vt, pt = policy_iteration(mdp, scfg, start)
    rp_ref = nearest_index(params.queues.rho_p, grids.states.rho_p_levels)
    pd_i, ic_i = np.unravel_index(pt.actions[_reference_block(grids, rc, rp_ref)],
                                  grids.shape[3:])
    return (grids.actions.pd_levels[pd_i], grids.actions.ic_levels[ic_i], vt.converged,
            pt.actions)


def _pav_slice(rc: ResolvedConfig, scfg: SolverConfig,
               budgets: Sequence[tuple[ModelParams, MdpGrids]]
               ) -> list[tuple[float, float, bool]]:
    """`_pav_point` of each budget's params and grids, in order, each solve
    starting from the policy the budget before it ended on: neighbouring
    budgets have nearly the same optimal policy, so a warm start saves
    Howard steps, and `policy_iteration` makes it change no float.  The
    name is looked up in this module when a budget runs, so a forked
    worker runs what the command bound to it."""
    rows, start = [], None
    for params, grids in budgets:
        pd, ic, converged, start = _pav_point(rc, params, grids, scfg, start)
        rows.append((pd, ic, converged))
    return rows


def _slices(items: Sequence[Any], n: int) -> list[Sequence[Any]]:
    """items cut into n contiguous slices in order, their lengths differing
    by at most one, the longer ones first."""
    size, extra = divmod(len(items), n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


class _WorkerError(RuntimeError):
    """A forked worker that raised, died or was killed."""


def _forked_map(task: Callable[[Any], Any], parts: Sequence[Any]) -> list[Any]:
    """[task(part) for part in parts], each call in its own child forked
    from this process, all running at once; each result comes back pickled
    through the child's pipe.  A child ends in os._exit whatever task does,
    so it never returns into the caller or flushes this process's buffered
    output.  A child that cannot start, raises, exits non-zero or is
    killed raises _WorkerError here, its message one line; every child is
    reaped, and killed first if need be, before this returns or raises."""
    import os
    import pickle
    import signal

    pids: list[int] = []
    pipes = []
    try:
        for part in parts:
            fds: tuple[int, ...] = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError as exc:
                for fd in fds:
                    os.close(fd)
                raise _WorkerError(f"worker {len(pids) + 1} of {len(parts)} "
                                   f"could not start: {exc}") from None
            read, write = fds
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    try:
                        reply, ok = task(part), True
                    except Exception as exc:
                        first_line = "".join(str(exc).splitlines()[:1])
                        reply, ok = f"raised {type(exc).__name__}: {first_line}", False
                    with open(write, "wb") as pipe:
                        pickle.dump(reply, pipe)
                    code = 0 if ok else 1
                finally:
                    os._exit(code)
            os.close(write)
            pids.append(pid)
            pipes.append(open(read, "rb"))

        results = []
        for i, pipe in enumerate(pipes):
            reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids[i], 0)[1])
            pids[i] = 0
            if code == 0:
                results.append(pickle.loads(reply))
                continue
            if code < 0:
                what = f"was killed by signal {-code}"
            else:
                what = pickle.loads(reply) if reply else f"exited with code {code}"
            raise _WorkerError(f"worker {i + 1} of {len(parts)} {what}")
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def cmd_sweep(args: argparse.Namespace, rc: ResolvedConfig) -> Callable[[], int]:
    params, grids = _checked_setup(rc)
    spec = rc.sweep_spec()
    scfg = rc.solver_config()
    if spec.variable in ("pd", "ic"):
        for rp in spec.rho_p:
            _grid_index(rp, grids.states.rho_p_levels, "sweep.rho_p")
        if spec.variable == "pd":
            header = ("pd", "ic_db", "rho_p", "J")
            points = [(pd, ic, rp) for pd in spec.grid
                      for ic in spec.ic_fixed for rp in spec.rho_p]
        else:
            header = ("ic_db", "pd", "rho_p", "J")
            points = [(pd, ic, rp) for ic in map(db_to_linear, spec.grid)
                      for pd in spec.pd_fixed for rp in spec.rho_p]
        rc.check_model_size(len({pd for pd, _, _ in points}) * len({ic for _, ic, _ in points}),
                            "sweep pd x ic values")
    else:
        header = ("pav_db", "argmax_pd", "argmax_ic_db")
        budgets = [_checked_setup(rc.at_budget(pav_db)) for pav_db in spec.grid]
        workers = min(getattr(args, "threads", 1), len(budgets))   # validate has no --threads
        if workers > 1:
            import os
            if not hasattr(os, "fork"):
                raise ValueError(f"--threads {args.threads} needs os.fork, "
                                 f"which this platform does not have")

    def run() -> int:
        t0 = time.perf_counter()
        if spec.variable in ("pd", "ic"):
            values, worst = _pinned_values(rc, params, grids.states, points, scfg)
            facts = {"converged": True, "worst_relative_residual": worst}
            rows = []
            for (pd, ic, rp), j in zip(points, values):
                cells = {"pd": pd, "ic_db": linear_to_db(ic), "rho_p": rp, "J": j}
                rows.append(tuple(cells[name] for name in header))
        else:
            task = functools.partial(_pav_slice, rc, scfg)
            if workers == 1:
                results = task(budgets)
            else:
                np.ndarray      # numpy loads here, once, and every worker inherits it
                try:
                    results = [row for part in _forked_map(task, _slices(budgets, workers))
                               for row in part]
                except _WorkerError as exc:
                    print(f"error: sweep pav {exc}", file=sys.stderr)
                    return EXIT_CONFIG
            rows = [(linear_to_db(params.power.p_av), pd_opt, linear_to_db(ic_opt))
                    for (params, _), (pd_opt, ic_opt, _) in zip(budgets, results)]
            facts = {"converged": all(converged for *_, converged in results)}
        wall = time.perf_counter() - t0

        manifest = _base_manifest("sweep", rc)
        manifest.update({
            "variable": spec.variable,
            "points": len(rows),
            **facts,
        })
        out = _out_dir(args)
        path = out / f"sweep_{spec.variable}.csv"
        _write_csv(path, manifest, header, [rows])
        print(f"sweep {spec.variable}: {len(rows)} rows -> {path} ({wall:.2f}s wall)")
        return EXIT_OK if facts["converged"] else EXIT_MAX_ITERS
    return run


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace, rc: ResolvedConfig) -> Callable[[], int]:
    if getattr(args, "seed", None) is not None:     # validate has no --seed
        rc.raw["sim"]["seed"] = int(args.seed)
    params, _ = _checked_setup(rc)
    cfg = rc.sim_config(params)

    def run() -> int:
        t0 = time.perf_counter()
        stats = simulate(cfg)
        wall = time.perf_counter() - t0
        ana = analytical_reference(cfg)
        rows = [(m, est, se, ana[m], z_score(est, se, ana[m], cfg.n_slots))
                for m, (est, se) in estimates(cfg, stats).items()]

        manifest = _base_manifest("simulate", rc)
        manifest.update({"n_slots": cfg.n_slots, "seed": cfg.seed})
        out = _out_dir(args)
        path = out / "simulate.csv"
        _write_csv(path, manifest, ("metric", "estimate", "se", "analytical", "z"), [rows])

        worst = max(abs(r[4]) for r in rows)
        ok = all(abs(r[4]) < 3.0 for r in rows)
        print(f"simulate: {cfg.n_slots} slots, worst |z| = {worst:.2f} -> {path} "
              f"({wall:.2f}s wall)")
        return EXIT_OK if ok else EXIT_STATISTICAL
    return run


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args: argparse.Namespace, rc: ResolvedConfig) -> Callable[[], int]:
    """Every command's setup, and no run."""
    for setup in (cmd_solve, cmd_sweep, cmd_simulate):
        setup(args, rc)

    def run() -> int:
        print("all constraints satisfied")
        return EXIT_OK
    return run


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other input error, not argparse's 2,
    which here means the iteration cap."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    """An integer of at least 1, such as a worker count."""
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
        help="at most this many forked worker processes for a pav sweep, each solving "
             "one contiguous slice of the budgets (POSIX); pd and ic sweeps run in this "
             "process")
    command("simulate", cmd_simulate, "Monte-Carlo run with analytical z-scores").add_argument(
        "--seed", type=int, default=None, help="override the simulation seed")
    command("validate", cmd_validate, "check a configuration against constraints")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        run = args.func(args, resolve_config(args.config))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run()


if __name__ == "__main__":
    sys.exit(main())
