"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every solve and sweep command of the workloads once on the code in
this checkout and writes reference/seed_outputs.json.gz: the greedy
(opt_pd, opt_ic) of each (rho_p, rho_s, P_s) block and every state value
(rounded to 1e-7, far inside the 9.8e-5 value tolerance) for the solves,
and the rows of each sweep CSV.  Record it only from code whose outputs are
known to be right; the benchmark's correctness checks are only as good as
this file.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

from common import (REFERENCE_FILE, WORKLOADS, cli_argv, cogrelay_argv, output_csv,
                    read_csv, run_child, scratch_dir)


def solve_reference(out: Path) -> dict:
    _, header, rows = read_csv(out / "lookup.csv")
    i_pd, i_ic, i_v = (header.index(c) for c in ("opt_pd", "opt_ic", "value"))
    n_prev = 11 * 21                     # prev_pd x prev_ic levels per block
    return {
        "blocks": [[float(r[i_pd]), float(r[i_ic])] for r in rows[::n_prev]],
        "values": [round(float(r[i_v]), 7) for r in rows],
    }


def main() -> int:
    reference = {}
    with scratch_dir("reference-") as work:
        for workload in ("solve", "sweep_pinned", "sweep_pav"):
            for cmd in WORKLOADS[workload]:
                args, out = cli_argv(cmd, work, seed=0)
                child = run_child(cogrelay_argv(args),
                                  work / f"{cmd.label}.log", cwd=work)
                if child.returncode != 0:
                    print(child.output, file=sys.stderr)
                    return 1
                if cmd.kind == "solve":
                    reference[cmd.label] = solve_reference(out)
                else:
                    _, _, rows = read_csv(output_csv(cmd.kind, out))
                    reference[cmd.label] = [[float(v) for v in row] for row in rows]
                print(f"{cmd.label}: recorded ({child.wall_s:.1f}s)")
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(REFERENCE_FILE, "wb", mtime=0) as fh:
        fh.write(json.dumps(reference, sort_keys=True).encode())
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
