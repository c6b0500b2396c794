"""Every configuration leaf at each of one fixed set of edge values, through
`cli.main`: no exception escapes, every exit code is a documented one, and
`validate` exits 1 exactly when some command rejects the configuration
before it solves or simulates.  Each case also runs `validate` and `sweep`
under the ic and pav sweeps, which read keys the pd sweep does not.

Values at or past a finite upper bound (`config._BOUNDS`: the grid size and
the run length) must never reach code that allocates, so they run in one
child process under a memory limit and a timeout: a lost bound then fails
the test instead of hanging it or exhausting the host."""

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
from cogrelay.config import _BOUNDS, DEFAULT_CONFIG

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
    "sweep": {"grid_db": [-5.0, 5.0], "ic_db": [-5.0, 5.0], "rho_p": [0.1, 0.5]},
}

EDGE_VALUES = (None, False, "x", {}, [], [0.5], [0.5, 0.1], [0.1, 0.1], [-1.0, 2.0],
               -1, 0, 0.5, 1, 2, 1e-300, 1e300, -1e300)

LEAVES = [f"{section}.{key}" for section, body in DEFAULT_CONFIG.items() for key in body]

COMMANDS = ("solve", "sweep", "simulate")

# `cli.main` builds its parser on each call, half the time of a small run;
# parsing leaves a parser as it was, so every case can share this one
PARSER = cli.build_parser()

# run in the child: the exit codes of each case, as JSON on stdout
_CHILD = """\
import json, resource, sys
from pathlib import Path
from test_config_fuzz import exit_codes, with_leaf
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
cases, tmp = json.loads(sys.argv[1]), Path(sys.argv[2])
print(json.dumps([exit_codes(with_leaf(leaf, value), tmp) for leaf, value in cases]))
"""


SIZED = {leaf for leaf, (_, high) in _BOUNDS.items() if high < math.inf}


def oversized(leaf, value) -> bool:
    return (leaf in SIZED and isinstance(value, (int, float))
            and not isinstance(value, bool) and value >= _BOUNDS[leaf][1])


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
        path.write_text(json.dumps(
            {**doc, "sweep": {**doc["sweep"], "variable": variable}} if variable else doc))
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
    assert {leaf for leaf, _ in cases} == SIZED
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(cases), str(tmp_path)],
                          capture_output=True, text=True, timeout=60,
                          cwd=Path(__file__).parent, env=conftest.cli_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    for (leaf, value), codes in zip(cases, json.loads(proc.stdout), strict=True):
        check((leaf, value), codes)
        if value > _BOUNDS[leaf][1]:
            assert codes[""]["validate"] == 1, (leaf, value, codes)
