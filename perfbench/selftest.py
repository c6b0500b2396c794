"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs `solve` at the default config and the `pd` sweep once, checks that
their outputs pass, then feeds the checker corrupted copies (one flipped
greedy action, one J perturbed by one part in a million, one J set to NaN, a
solve that exited 2) and requires error_rate to rise to 1.  Also checks that simulate's exit
code 3 alone is not a failure.  Exits 0 when every expectation holds.
"""

from __future__ import annotations

import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from common import (WORKLOADS, Tally, check_command, cli_argv, cogrelay_argv,
                    load_reference, run_child, scratch_dir)

SEED = 1


def corrupt_action(out: Path) -> None:
    """Move row 1000's greedy detection level to another grid level."""
    path = out / "lookup.csv"
    lines = path.read_text().split("\n")
    header = lines[1].split(",")
    i_pd = header.index("opt_pd")
    row = lines[2 + 1000].split(",")
    row[i_pd] = "0.5" if float(row[i_pd]) != 0.5 else "0.6"
    lines[2 + 1000] = ",".join(row)
    path.write_text("\n".join(lines))


def corrupt_j(out: Path, factor: float = 1.0 + 1e-6) -> None:
    path = out / "sweep_pd.csv"
    lines = path.read_text().split("\n")
    row = lines[5].split(",")
    row[-1] = repr(float(row[-1]) * factor)
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines))


def nan_j(out: Path) -> None:
    corrupt_j(out, math.nan)


def main() -> int:
    ref = load_reference()
    solve = WORKLOADS["solve"][0]
    sweep = WORKLOADS["sweep_pinned"][0]
    failures = []
    with scratch_dir("selftest-") as work:
        runs = []
        for cmd in (solve, sweep):
            args, out = cli_argv(cmd, work, SEED)
            child = run_child(cogrelay_argv(args),
                              work / f"{cmd.label}.log", cwd=work)
            runs.append((cmd, child, out))

        clean = Tally()
        for cmd, child, out in runs:
            clean.record(cmd.label, check_command(cmd, child, out, ref, SEED))
        print(f"clean outputs: error_rate {clean.error_rate} "
              f"({clean.failed} of {clean.attempted})")
        if clean.failed:
            failures += clean.problems

        corrupted = Tally()
        for (cmd, child, out), corrupt in zip((runs[0], runs[1], runs[1]),
                                              (corrupt_action, corrupt_j, nan_j)):
            bad = out.with_name(f"{out.name}_{corrupt.__name__}")
            shutil.copytree(out, bad)
            corrupt(bad)
            corrupted.record(cmd.label, check_command(cmd, child, bad, ref, SEED))
        cmd, child, out = runs[0]
        corrupted.record("solve exit 2",
                         check_command(cmd, replace(child, returncode=2), out, ref, SEED))
        print(f"corrupted outputs: error_rate {corrupted.error_rate} "
              f"({corrupted.failed} of {corrupted.attempted})")
        for problem in corrupted.problems:
            print(f"  detected: {problem}")
        if corrupted.error_rate != 1.0:
            failures.append("a corrupted output passed the check")

        sim = WORKLOADS["startup_sim"][1]
        _, out = cli_argv(sim, work, SEED)
        (out / "simulate.csv").write_text(
            '# {}\nmetric,estimate,se,analytical,z\nmu_s,0.1,0.01,0.13,-3.0\n')
        exit3 = replace(child, returncode=3)
        if check_command(sim, exit3, out, ref, SEED):
            failures.append("simulate exit 3 with |z| < 5 counted as a failure")
        (out / "simulate.csv").write_text(
            '# {}\nmetric,estimate,se,analytical,z\nmu_s,0.1,0.01,0.16,-6.0\n')
        if not check_command(sim, exit3, out, ref, SEED):
            failures.append("simulate with |z| >= 5 passed the check")

    for failure in failures:
        print(f"SELFTEST FAILED: {failure}")
    print("selftest passed" if not failures else "selftest failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
