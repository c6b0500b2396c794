"""cogrelay benchmark runner.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 22 --trace 0

Runs one workload's `cogrelay` commands, each in a fresh child process and
one child at a time, repeating the pass until `--seconds` of measuring is
used up (at least one pass).  Every output is checked against reference
data recorded from the seed code.  Human-readable lines come first; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

--trace 0 reports the end-to-end metrics (see BENCHMARK.json).  --trace 1
instead makes one untraced and one traced pass (the traced pass runs
`cogrelay.cli.main` in-process under `trace_child.py`) and reports the
per-layer metrics, the tracing overhead, and fails the run if tracing changed
any output byte or a value iteration failed to contract.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from common import (BENCH_DIR, BLAS_ENV, REFERENCE_FILE, ROOT, SRC, WORKLOADS,
                    Command, Tally, check_command, check_validate, cli_argv,
                    cogrelay_argv, load_reference, run_child, scratch_dir,
                    simulate_worst_z, write_config)

SETUP_REPEATS = 3                # validate runs behind setup_s, per run
IMPORT_REPEATS = 3               # import probes per traced run
RUN_LIMIT_S = 120.0              # no new pass starts after this much time in a run

# name of the throughput each workload prints: output rows, sweep points or
# simulated slots per second of the commands that produce them
RATE_ALIAS = {"solve": "rows_per_s", "sweep_pinned": "points_per_s",
              "sweep_pav": "points_per_s", "startup_sim": "slots_per_s"}
SPEC_FILE = ROOT / "BENCHMARK.json"


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of every metric a run with this --trace must report."""
    spec = json.loads(SPEC_FILE.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def log(line: str) -> None:
    print(line, flush=True)


# ---------------------------------------------------------------------------
# machine facts


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(run_dir: Path) -> dict:
    probe = run_child([sys.executable, "-c",
                       "import importlib.util; print(importlib.util.find_spec('cogrelay').origin)"],
                      run_dir / "facts.log")
    origin = probe.output.strip().splitlines()[-1] if probe.output.strip() else ""
    resolved = Path(origin).resolve() if origin else None
    src_pkg = (SRC / "cogrelay").resolve()

    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_env_children": {name: "1" for name in BLAS_ENV},
        "blas_env_inherited": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": git_commit(),
        "cogrelay_from": ("src" if resolved and src_pkg in resolved.parents
                          else f"installed copy ({origin})" if origin else "unresolved"),
    }


# ---------------------------------------------------------------------------
# running passes


def run_pass(commands: tuple[Command, ...], pass_dir: Path, seed: int, ref: dict,
             tally: Tally, traced: bool = False) -> list[dict]:
    """Run each command once in a fresh child and check its outputs."""
    pass_dir.mkdir(parents=True)
    results = []
    for cmd in commands:
        args, out = cli_argv(cmd, pass_dir, seed)
        spans = pass_dir / f"{cmd.label}.spans.json"
        argv = ([sys.executable, str(BENCH_DIR / "trace_child.py"), str(spans), *args]
                if traced else cogrelay_argv(args))
        child = run_child(argv, pass_dir / f"{cmd.label}.log", cwd=pass_dir)
        problems = check_command(cmd, child, out, ref, seed)
        tally.record(cmd.label, problems)
        results.append({"cmd": cmd, "child": child, "out": out, "spans": spans,
                        "ok": not problems})
    return results


def measure_setup(commands: tuple[Command, ...], run_dir: Path, tally: Tally) -> list[float]:
    """Walls of `validate --config <workload config>` in fresh processes."""
    walls = []
    config = write_config(commands[0], run_dir)
    for i in range(SETUP_REPEATS):
        args = ["validate", "--out", str(run_dir)]
        if config is not None:
            args += ["--config", str(config)]
        child = run_child(cogrelay_argv(args), run_dir / f"setup{i}.log", cwd=run_dir)
        tally.record(f"setup{i}", check_validate(child.output) if child.returncode == 0
                     else [f"validate exit {child.returncode}"])
        walls.append(child.wall_s)
    return walls


def end_to_end(workload: str, seed: int, seconds: float, run_dir: Path, ref: dict,
               tally: Tally, units: dict[str, str]) -> dict:
    commands = WORKLOADS[workload]
    setup = measure_setup(commands, run_dir, tally)
    walls, rates, rss_kb = [], [], 0
    started = time.perf_counter()
    while True:
        pass_dir = run_dir / f"pass{len(walls)}"
        results = run_pass(commands, pass_dir, seed, ref, tally)
        shutil.rmtree(pass_dir)
        walls.append(sum(r["child"].wall_s for r in results))
        producing = [r for r in results if r["cmd"].items]
        rates.append(sum(r["cmd"].items for r in producing)
                     / sum(r["child"].wall_s for r in producing))
        rss_kb = max([rss_kb] + [r["child"].maxrss_kb for r in results])
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(walls) > seconds or elapsed > RUN_LIMIT_S:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }
    samples = {"wall_s": f"median of {len(walls)} passes",
               "setup_s": f"median of {len(setup)} validates",
               "peak_rss_mb": f"max of {len(walls) * len(commands)} children"}
    for name, value in metrics.items():
        log(f"  {name:<16} {value:>14.6g} {units[name]:<6} ({samples[name]})")
    # items per second of the producing commands' wall; on every workload but
    # startup_sim this is the pass's item count over wall_s, so it is printed
    # and not gated a second time
    log(f"  {RATE_ALIAS[workload]:<16} {statistics.median(rates):>14.6g} 1/s    "
        f"(median of {len(rates)} passes)")
    log(f"  pass walls (s): {', '.join(f'{w:.3f}' for w in walls)}")
    return metrics


# ---------------------------------------------------------------------------
# traced run


def interval_union(intervals: list[tuple[float, float]]) -> float:
    """Length of the time covered by at least one interval."""
    total, reached = 0.0, float("-inf")
    for start, end in sorted(intervals):
        total += max(0.0, end - max(start, reached))
        reached = max(reached, end)
    return total


def import_tree(text: str) -> list[dict]:
    """Roots of the `-X importtime` tree (the report lists children first)."""
    stack: list[dict] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        node = {"name": raw.strip(), "cum_us": int(cumulative), "depth": depth,
                "children": []}
        while stack and stack[-1]["depth"] > depth:
            node["children"].insert(0, stack.pop())
        stack.append(node)
    return stack


def package_import_s(nodes: list[dict], pkg: str, exclude: str | None = None) -> float:
    """Cumulative import time of the outermost `pkg` modules, less any
    `exclude` package they pulled in."""
    def is_pkg(node, name):
        return node["name"] == name or node["name"].startswith(name + ".")

    total = 0.0
    for node in nodes:
        if is_pkg(node, pkg):
            inner = package_import_s(node["children"], exclude) if exclude else 0.0
            total += node["cum_us"] / 1e6 - inner
        else:
            total += package_import_s(node["children"], pkg, exclude)
    return total


def import_metrics(run_dir: Path) -> dict:
    bare = [run_child([sys.executable, "-c", "pass"], run_dir / "bare.log").wall_s
            for _ in range(IMPORT_REPEATS)]
    full = [run_child([sys.executable, "-c", "import cogrelay.cli"],
                      run_dir / "import.log").wall_s for _ in range(IMPORT_REPEATS)]
    probe = run_child([sys.executable, "-X", "importtime", "-c", "import cogrelay.cli"],
                      run_dir / "importtime.log")
    tree = import_tree(probe.output)
    return {
        "import.total_s": statistics.median(full) - statistics.median(bare),
        "import.scipy_s": package_import_s(tree, "scipy", exclude="numpy"),
        "import.numpy_s": package_import_s(tree, "numpy"),
    }


def layer_metrics(traced: list[dict]) -> dict:
    spans, solves = [], []
    transition_calls, transition_s = 0, 0.0
    main_s = self_s = covered_s = 0.0
    pool_busy = pool_capacity = 0.0
    for r in traced:
        rec = json.loads(r["spans"].read_text())
        transition_calls += rec["transition_calls"]
        transition_s += rec["transition_s"]
        solves += rec["solves"]
        main = next(s for s in rec["spans"] if s["name"] == "cli.main")
        spans += rec["spans"]
        lib = [(s["start"], s["end"]) for s in rec["spans"] if s["layer"] != "cli"]
        export = [(s["start"], s["end"]) for s in rec["spans"] if s["name"] == "export"]
        duration = main["end"] - main["start"]
        main_s += duration
        self_s += duration - interval_union(lib)
        covered_s += interval_union(lib + export)
        points = [s for s in rec["spans"] if s["name"] == "point"]
        if points:
            pool_busy += sum(s["cpu"] for s in points)
            pool_capacity += r["cmd"].threads * (max(s["end"] for s in points)
                                                 - min(s["start"] for s in points))

    def total(layer=None, name=None):
        return sum(s["end"] - s["start"] for s in spans
                   if (layer is None or s["layer"] == layer)
                   and (name is None or s["name"] == name) and not s["nested"])

    exact_ms = sorted((s["end"] - s["start"]) * 1e3 for s in spans
                      if s["name"] == "evaluate_policy_exact")
    vi_s = total(name="value_iteration")
    iterations = sum(s["iterations"] for s in solves)
    export_s = total(name="export")
    written = sum(f.stat().st_size for r in traced for f in r["out"].iterdir())
    sim_s = total(name="simulate")
    sims = [r for r in traced if r["cmd"].kind == "simulate"]
    return {
        "config.resolve_s": total(layer="config"),
        "mdp.build_s": total(name="build_spectrum_mdp"),
        "mdp.build_calls": sum(s["name"] == "build_spectrum_mdp" for s in spans),
        "mdp.transition_calls": transition_calls,
        "mdp.transition_s": transition_s,
        "solver.value_iteration_s": vi_s,
        "solver.iterations": iterations,
        "solver.iteration_ms": vi_s * 1e3 / iterations if iterations else 0.0,
        "solver.distinct_actions": sum(s["distinct_actions"] for s in solves),
        "solver.evaluate_exact_calls": len(exact_ms),
        "solver.evaluate_exact_ms_p50": statistics.median(exact_ms) if exact_ms else 0.0,
        "solver.evaluate_exact_ms_p90": (statistics.quantiles(exact_ms, n=10)[8]
                                         if len(exact_ms) > 1 else sum(exact_ms)),
        "solver.extract_lookup_s": total(name="extract_lookup_table"),
        "cli.main_s": main_s,
        "cli.self_s": self_s,
        "cli.export_s": export_s,
        "cli.bytes_written": written,
        "cli.export_mb_per_s": written / 1e6 / export_s if export_s else 0.0,
        "cli.pool_efficiency": pool_busy / pool_capacity if pool_capacity else 0.0,
        "sim.simulate_s": sim_s,
        "sim.slots_per_s": (sum(r["cmd"].items for r in sims) / sim_s) if sim_s else 0.0,
        "sim.analytical_reference_s": total(name="analytical_reference"),
        "sim.worst_abs_z": max((simulate_worst_z(r["out"]) for r in sims), default=0.0),
        "trace.coverage": covered_s / main_s if main_s else 0.0,
    }


def same_outputs(a: Path, b: Path) -> list[str]:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"traced run wrote {names_b}, untraced {names_a}"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return [f"traced {name} differs from untraced" for name in mismatch + errors]


def traced_run(workload: str, seed: int, run_dir: Path, ref: dict, tally: Tally,
               units: dict[str, str]) -> dict:
    commands = WORKLOADS[workload]
    metrics = import_metrics(run_dir)
    plain = run_pass(commands, run_dir / "untraced", seed, ref, tally)
    traced = run_pass(commands, run_dir / "traced", seed, ref, tally, traced=True)
    for p, t in zip(plain, traced):
        problems = same_outputs(p["out"], t["out"]) if p["ok"] and t["ok"] else []
        if t["spans"].is_file():
            rec = json.loads(t["spans"].read_text())
            problems += [f"value_iteration residuals do not contract "
                         f"(excess {s['worst_contraction_excess']:.3e})"
                         for s in rec["solves"] if not s["contracts"]]
        else:
            problems.append("traced child wrote no spans")
        tally.record(f"{t['cmd'].label}[trace-invariants]", problems)
    if tally.failed:
        return {}
    metrics.update(layer_metrics(traced))
    metrics["trace.overhead_s"] = (sum(r["child"].wall_s for r in traced)
                                   - sum(r["child"].wall_s for r in plain))
    for name, unit in units.items():
        log(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    return metrics


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    missing = [p for p in (SRC / "cogrelay" / "cli.py", REFERENCE_FILE, SPEC_FILE)
               if not p.is_file()]
    if missing:
        print(f"error: cannot run the benchmark, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    ref = load_reference()
    units = metric_units(args.trace)
    tally = Tally()
    with scratch_dir(f"{args.workload}-") as run_dir:
        facts = machine_facts(run_dir)
        log("facts: " + json.dumps(facts, sort_keys=True))
        log(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        if args.trace:
            metrics = traced_run(args.workload, args.seed, run_dir, ref, tally, units)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, run_dir, ref,
                                 tally, units)
    log(f"  {'error_rate':<16} {tally.error_rate:>14.6g} ratio  "
        f"({tally.failed} of {tally.attempted} commands)")
    for problem in tally.problems:
        log(f"  FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
