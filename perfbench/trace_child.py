"""Run `cogrelay.cli.main(argv)` in this process with spans around each layer.

Usage: python trace_child.py SPANS_JSON CLI_ARG...

The public functions that `cogrelay.cli` imported are replaced, in the
`cli` namespace, by wrappers that record a span (name, layer, start, end,
the calling thread's CPU time, parent span, thread) per call;
`cogrelay.mdp.transition` is wrapped with an aggregate counter of calls and
thread CPU time instead, because the pinned sweeps call it tens of thousands
of times.  Spans stay in memory and are written to SPANS_JSON once
`main` returns.  A span opened in a sweep worker thread takes the enclosing
`cli.main` span as its parent.  Wrappers return what the wrapped function
returned, untouched.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import cogrelay.cli as cli
import cogrelay.config as config
import cogrelay.mdp as mdp

CONTRACTION_SLACK = 1e-12        # the rule tests/conftest.py applies to every solve


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.root: tuple[int, str] | None = None
        self.counters: list[list[float]] = []       # per thread: [calls, CPU seconds]
        self.solves: list[tuple] = []               # (cfg, value table, policy table)

    def _stack(self) -> list[tuple[int, str]]:
        if not hasattr(self.local, "stack"):
            self.local.stack = []
        return self.local.stack

    def span(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.root
            sid = next(tracer.ids)
            stack.append((sid, layer))
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                tracer.spans.append({
                    "id": sid, "name": name, "layer": layer,
                    "start": start, "end": end, "cpu": cpu,
                    "parent": parent[0] if parent else None,
                    "nested": parent not in (None, tracer.root) and parent[1] == layer,
                    "thread": threading.get_ident()})
        return wrapper

    def counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = getattr(tracer.local, "counter", None)
            if acc is None:
                acc = tracer.local.counter = [0, 0.0]
                tracer.counters.append(acc)
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[0] += 1
                acc[1] += time.thread_time() - start
        return wrapper

    def keep_solve(self, fn):
        """Keep each value_iteration's inputs and results for the post-run checks."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(model, cfg, *args, **kwargs):
            vt, pt = fn(model, cfg, *args, **kwargs)
            tracer.solves.append((cfg, vt, pt))
            return vt, pt
        return wrapper

    def run_main(self, argv: list[str]) -> int:
        sid = next(self.ids)
        self.root = (sid, "cli")
        start, cpu = time.perf_counter(), time.thread_time()
        try:
            return cli.main(argv)
        finally:
            self.spans.append({"id": sid, "name": "cli.main", "layer": "cli",
                               "start": start, "end": time.perf_counter(),
                               "cpu": time.thread_time() - cpu,
                               "parent": None, "nested": False,
                               "thread": threading.get_ident()})


def install(tracer: Tracer) -> None:
    for name, layer in (("resolve_config", "config"), ("validate", "config"),
                        ("build_spectrum_mdp", "mdp"),
                        ("evaluate_policy_exact", "solver"),
                        ("extract_lookup_table", "solver"),
                        ("simulate", "sim"), ("analytical_reference", "sim")):
        setattr(cli, name, tracer.span(name, layer, getattr(cli, name)))
    cli.value_iteration = tracer.span(
        "value_iteration", "solver", tracer.keep_solve(cli.value_iteration))
    for method in ("model_params", "grids", "state_grids"):
        setattr(config.ResolvedConfig, method, tracer.span(
            method, "config", getattr(config.ResolvedConfig, method)))
    cli._write_csv = tracer.span("export", "cli", cli._write_csv)
    cli._pinned_value = tracer.span("point", "cli", cli._pinned_value)
    cli._pav_point = tracer.span("point", "cli", cli._pav_point)
    mdp.transition = tracer.counted(mdp.transition)


def solve_facts(tracer: Tracer) -> list[dict]:
    facts = []
    for cfg, vt, pt in tracer.solves:
        r = [float(x) for x in vt.residuals]
        worst = max((b - cfg.discount * a for a, b in zip(r, r[1:])), default=0.0)
        facts.append({"iterations": int(vt.iterations),
                      "distinct_actions": len(set(pt.actions.tolist())),
                      "worst_contraction_excess": worst,
                      "contracts": worst <= CONTRACTION_SLACK})
    return facts


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    code = tracer.run_main(argv)
    record = {
        "returncode": code,
        "spans": tracer.spans,
        "transition_calls": int(sum(c[0] for c in tracer.counters)),
        "transition_s": float(sum(c[1] for c in tracer.counters)),
        "solves": solve_facts(tracer),
    }
    with open(spans_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
