"""Every configuration leaf at each of one fixed set of edge values, through
`cli.main`: no exception escapes, every exit code is a documented one, and
`validate` exits 1 exactly when some command rejects the configuration
before it solves or simulates.  Each case also runs `validate` and `sweep`
under the ic and pav sweeps, which read keys the pd sweep does not, on the
sweep keys each of them reads (a sweep rejects any other key that is not at
its default).

Values at or past a size limit (the run length's bound in `config._BOUNDS`,
and a power-level count that fills `config.MAX_MODEL_SIZE`) must never reach
code that allocates, so they run in one child process under a memory limit
and a timeout: a lost bound then fails the test instead of hanging it or
exhausting the host.  So do three configurations whose model takes gigabytes
on the default grids."""

import contextlib
import copy
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import cogrelay.cli as cli
from cogrelay.config import _BOUNDS, DEFAULT_CONFIG, MAX_MODEL_SIZE

import conftest

# a small model that every command accepts, each in a few milliseconds
BASE = {
    "channel": {"gamma_s_db": 10.0, "gamma_p_db": 10.0, "gamma_sp_db": 7.0,
                "gamma_ps_db": 0.0, "beta_s": 0.5, "beta_p": 1.0},
    "power": {"p_av_db": 5.0, "mean_g_sp": 1.0},
    "state_grids": {"rho_p_levels": [0.1, 0.5], "rho_s_levels": [0.2, 0.6],
                    "n_power_levels": 2},
    "action_grids": {"pd_levels": [0.2, 0.8], "ic_levels_db": [-5.0, 5.0]},
    "solver": {"epsilon": 1e-3, "discount": 0.5},
    "sim": {"n_slots": 2000},
    "sweep": {"ic_db": [-5.0, 5.0], "rho_p": [0.1, 0.5]},
}

# BASE's sweep section under the ic and pav sweeps: only keys each reads,
# since a sweep rejects any other key off its default.  The sweep keys a
# case changes go on top, read or not.
VARIANTS = {"ic": {"grid_db": [-5.0, 5.0], "rho_p": [0.1, 0.5]},
            "pav": {"grid_db": [-5.0, 5.0]}}

EDGE_VALUES = (None, False, "x", {}, [], [0.5], [0.5, 0.1], [0.1, 0.1], [-1.0, 2.0],
               -1, 0, 0.5, 1, 2, 1e-300, 1e300, -1e300)

LEAVES = [f"{section}.{key}" for section, body in DEFAULT_CONFIG.items() for key in body]

COMMANDS = ("solve", "sweep", "simulate")

# `cli.main` builds its parser on each call, half the time of a small run;
# parsing leaves a parser as it was, so every case can share this one
PARSER = cli.build_parser()

# run in the child: the function of this module named by argv[1] on each
# case, as JSON on stdout
_CHILD = """\
import json, resource, sys
from pathlib import Path
import test_config_fuzz
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
run, cases, tmp = getattr(test_config_fuzz, sys.argv[1]), json.loads(sys.argv[2]), Path(sys.argv[3])
print(json.dumps([run(*case, tmp) for case in cases]))
"""


# the largest value of each sized leaf that BASE admits: the run length's
# bound, and the power levels that fill the model size cap on BASE's other
# grids (2 x 2 levels, 2 x 2 actions)
SIZED = {**{leaf: high for leaf, (_, high) in _BOUNDS.items() if high < math.inf},
         "state_grids.n_power_levels": MAX_MODEL_SIZE // (2 * 2 * 4)}


def oversized(leaf, value) -> bool:
    return (leaf in SIZED and isinstance(value, (int, float))
            and not isinstance(value, bool) and value >= SIZED[leaf])


def in_child(function: str, cases: list, tmp: Path) -> list:
    """`function(*case, tmp)` of each case, run in a child process under a
    2 GB address-space limit and a timeout."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, function, json.dumps(cases), str(tmp)],
                          capture_output=True, text=True, timeout=60,
                          cwd=Path(__file__).parent, env=conftest.cli_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def with_leaf(leaf, value) -> dict:
    doc = copy.deepcopy(BASE)
    section, key = leaf.split(".")
    doc.setdefault(section, {})[key] = value
    return doc


def exit_codes(doc, tmp: Path) -> dict[str, dict[str, int]]:
    """`cli.main`'s exit code for validate and each command on doc (key
    ""), and, unless doc sets the sweep variable, for validate and sweep
    on doc under the ic and pav sweeps (solve and simulate read no sweep key)."""
    path = tmp / "fuzz.json"
    runs = {"": ("validate",) + COMMANDS}
    if "variable" not in doc["sweep"]:
        runs.update(dict.fromkeys(("ic", "pav"), ("validate", "sweep")))
    codes = {}
    for variable, commands in runs.items():
        if variable:
            changed = {k: v for k, v in doc["sweep"].items()
                       if k not in BASE["sweep"] or BASE["sweep"][k] != v}
            path.write_text(json.dumps({**doc, "sweep": {**VARIANTS[variable], **changed,
                                                         "variable": variable}}))
        else:
            path.write_text(json.dumps(doc))
        codes[variable] = {}
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    mock.patch.object(cli, "build_parser", lambda: PARSER):
                codes[variable][command] = cli.main([command, "--config", str(path),
                                                     "--out", str(tmp / "out")])
    return codes


def check(case, codes) -> None:
    for variable, got in codes.items():
        got = {**codes[""], **got}
        assert set(got.values()) <= {0, 1, 2, 3}, (case, variable, got)
        assert (got["validate"] == 1) == any(got[c] == 1 for c in COMMANDS), \
            (case, variable, got)


def test_every_command_accepts_the_base_config(tmp_path):
    assert exit_codes(BASE, tmp_path) == {
        "": dict.fromkeys(("validate",) + COMMANDS, 0),
        "ic": {"validate": 0, "sweep": 0}, "pav": {"validate": 0, "sweep": 0}}


@pytest.mark.parametrize("leaf", LEAVES)
def test_each_edge_value_exits_with_a_documented_code(tmp_path, leaf):
    for value in EDGE_VALUES:
        if not oversized(leaf, value):
            check((leaf, value), exit_codes(with_leaf(leaf, value), tmp_path))


def test_oversized_values_are_rejected_before_anything_allocates(tmp_path):
    cases = [(leaf, value) for leaf in LEAVES for value in EDGE_VALUES
             if oversized(leaf, value)]
    assert {leaf for leaf, _ in cases} == set(SIZED)
    docs = [(with_leaf(leaf, value),) for leaf, value in cases]
    for (leaf, value), codes in zip(cases, in_child("exit_codes", docs, tmp_path), strict=True):
        check((leaf, value), codes)
        if value > SIZED[leaf]:
            assert codes[""]["validate"] == 1, (leaf, value, codes)


def errors(doc, tmp: Path) -> dict[str, list]:
    """`cli.main`'s exit code and stderr for validate, solve and sweep on doc."""
    path = tmp / "fuzz.json"
    path.write_text(json.dumps(doc))
    found = {}
    for command in ("validate", "solve", "sweep"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path), "--out", str(tmp / "out")])
        found[command] = [code, err.getvalue()]
    return found


# models of 3.0-6.0 GB of kernel on the default grids, each past the cap by one grid
GIANT_MODELS = {
    "rho_levels": ({"state_grids": {"rho_p_levels": [i / 300 for i in range(300)],
                                    "rho_s_levels": [i / 300 for i in range(300)]}},
                   "x action_grids = 83160000 cells"),
    "p_s_levels": ({"state_grids": {"p_s_levels": [(i + 1) / 1000 for i in range(2000)]}},
                   "x action_grids = 46200000 cells"),
    "pd_levels": ({"action_grids": {"pd_levels": [i / 5000 for i in range(5001)]}},
                  "x action_grids = 42008400 cells"),
}


def test_models_past_the_size_cap_are_rejected_before_anything_allocates(tmp_path):
    cases = [(doc,) for doc, _ in GIANT_MODELS.values()]
    for (name, (_, size)), found in zip(GIANT_MODELS.items(),
                                        in_child("errors", cases, tmp_path), strict=True):
        for command, (code, err) in found.items():
            assert code == 1, (name, command, err)
            assert err.startswith("error: state_grids.rho_p_levels x ") and size in err, \
                (name, command, err)
            assert len(err.splitlines()) == 1, (name, command, err)
    assert not (tmp_path / "out").exists()
