"""End-to-end command behaviour: files, manifests, exit codes."""

import errno
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cogrelay.cli as cli
from cogrelay.config import ResolvedConfig, config_hash, resolve_config
from cogrelay.mdp import build_spectrum_mdp
from cogrelay.model import db_to_linear, linear_to_db
from cogrelay.sim import analytical_reference, estimates, simulate
from cogrelay.solver import extract_lookup_table, value_iteration

import conftest
from oracles import state_values


def small_model() -> dict:
    return {
        "channel": {"gamma_s_db": 10.0, "gamma_p_db": 10.0, "gamma_sp_db": 7.0,
                    "gamma_ps_db": 0.0, "beta_s": 0.5, "beta_p": 1.0},
        "power": {"p_av_db": 5.0, "mean_g_sp": 1.0},
        "state_grids": {"rho_p_levels": [0.1, 0.5], "rho_s_levels": [0.2, 0.6],
                        "n_power_levels": 2},
        "action_grids": {"pd_levels": [0.2, 0.8], "ic_levels_db": [-5.0, 5.0]},
        "solver": {"epsilon": 1e-8, "discount": 0.9,
                   "mode": "fixed_pd", "pinned_pd": 0.8},
    }


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_output(path):
    """Split a CSV artifact into (manifest dict, header, data lines)."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    manifest = json.loads(lines[0][2:])
    return manifest, lines[1].split(","), lines[2:]


def test_validate_accepts_the_defaults(capsys):
    assert cli.main(["validate"]) == 0
    assert "all constraints satisfied" in capsys.readouterr().out


def test_validate_takes_out_and_writes_nothing(tmp_path, capsys):
    assert cli.main(["validate", "--out", str(tmp_path)]) == 0
    assert "all constraints satisfied" in capsys.readouterr().out
    assert not any(tmp_path.iterdir())


def test_validate_rejects_unstable_queues(tmp_path, capsys):
    cfg = write_config(tmp_path, {"queues": {"lambda_s": 0.9}})
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "constraint 1" in capsys.readouterr().err


def test_validate_reports_grid_constraint_breaches(tmp_path, capsys):
    doc = small_model()
    del doc["state_grids"]["n_power_levels"]     # explicit levels set their own number
    doc["state_grids"]["p_s_levels"] = [99.0]
    cfg = write_config(tmp_path, doc)
    assert cli.main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [constraint 2 (power range)] ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command, doc, message", [
    ("solve", {"costs": {"s_const": -1.0}}, "config key costs.s_const must lie within [0, "),
    ("solve", {"solver": {"discount": 1.0}}, "discount must lie in [0, 1)"),
    ("solve", {"solver": {"epsilon": 0.0}}, "epsilon must be positive"),
    ("solve", {"solver": {"mode": "bogus"}}, "solver.mode must be joint"),
    ("solve", {"solver": {"mode": "fixed_pd"}}, "solver.pinned_pd is required"),
    ("simulate", {"sim": {"n_slots": 0}}, "config key sim.n_slots must lie within [1, "),
    ("simulate", {"sim": {"pd": 2.0}}, "pd must be a probability"),
    ("simulate", {"sim": {"seed": -1}}, "seed must be non-negative"),
    ("sweep", {"sweep": {"variable": "x"}}, "sweep.variable must be pd, ic or pav"),
    ("sweep", {"sweep": {"rho_p": [0.1, 0.35]}}, "sweep.rho_p=0.35 is not on the configured grid"),
    ("sweep", {"sweep": {"variable": "ic", "pd": [2.0]}}, "sweep.pd must lie in [0, 1]"),
    ("simulate", {"state_grids": {"p_s_levels": [0.5, 1.0], "n_power_levels": 7}},
     "state_grids.n_power_levels is not read when state_grids.p_s_levels is given"),
], ids=["cost", "discount", "epsilon", "mode", "pinned_pd", "n_slots", "sim_pd", "seed",
        "variable", "rho_p", "ic_sweep_pd", "unread_n_power_levels"])
def test_validate_rejects_what_a_command_rejects(tmp_path, capsys, command, doc, message):
    # validate runs every command's setup: it exits 1 with the same one error
    # line as the command that reads the key, which solves and writes nothing
    cfg = write_config(tmp_path, doc)
    for argv in (["validate"], [command, "--out", str(tmp_path / "out")]):
        assert cli.main(argv + ["--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [
    {"costs": {"s_const": 0.0, "c_const": 0.0}},
    {"sweep": {"variable": "ic"}},
    {"sweep": {"variable": "pav"}},
    {"sim": {"n_slots": 10_000_000}},
], ids=["zero_costs", "sweep_ic", "sweep_pav", "sim"])
def test_validate_accepts_the_benchmark_configs(tmp_path, capsys, doc):
    assert cli.main(["validate", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == "all constraints satisfied\n"


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_a_value_error_while_running_is_not_a_config_error(tmp_path, monkeypatch, command):
    # main reports a configuration its setup rejects; a ValueError from the
    # run is a fault of the run, so it propagates instead of exiting 1
    def broken(*args, **kwargs):
        raise ValueError("raised while running")

    monkeypatch.setattr(cli, "build_spectrum_mdp", broken)
    cfg = write_config(tmp_path, sweep_doc(variable="pd", rho_p=[0.1]))
    with pytest.raises(ValueError, match="raised while running"):
        cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
    assert cli.main(["validate", "--config", cfg]) == 0     # it builds no model


def test_unknown_config_key_fails_with_dotted_path(tmp_path, capsys):
    cfg = write_config(tmp_path, {"state_grids": {"rho_p_levls": [0.1]}})
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "state_grids.rho_p_levls" in capsys.readouterr().err


@pytest.mark.parametrize("text, path", [
    ('{"channel": {"gamma_s_db": NaN}}', "channel.gamma_s_db"),
    ('{"channel": {"gamma_s_db": true}}', "channel.gamma_s_db"),
    ('{"costs": {"s_const": Infinity}}', "costs.s_const"),
])
def test_validate_rejects_non_finite_and_boolean_values(tmp_path, capsys, text, path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert cli.main(["validate", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert path in captured.err
    assert "all constraints satisfied" not in captured.out


@pytest.mark.parametrize("doc, path", [
    ({"channel": {"gamma_s_db": "10"}}, "channel.gamma_s_db"),
    ({"solver": {"epsilon": [1]}}, "solver.epsilon"),
    ({"state_grids": {"n_power_levels": 4.5}}, "state_grids.n_power_levels"),
])
def test_values_of_the_wrong_kind_exit_1_naming_the_key(tmp_path, capsys, doc, path):
    cfg = write_config(tmp_path, doc)
    for command in ("validate", "solve"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config key {path} must be")
        assert "all constraints satisfied" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, doc, path", [
    ("validate", {"action_grids": {"ic_levels_db": [-15.0, 5000.0]}},
     "action_grids.ic_levels_db[1]"),
    ("validate", {"power": {"p_ref_db": 4000.0}}, "power.p_ref_db"),
    ("validate", {"sensing": {"gamma_se_db": 4000.0}}, "sensing.gamma_se_db"),
    ("sweep", {"sweep": {"variable": "pav", "grid_db": [0.0, 4000.0]}}, "sweep.grid_db[1]"),
    ("validate", {"state_grids": {"n_power_levels": 0}}, "state_grids.n_power_levels"),
    ("validate", {"action_grids": {"ic_levels_db": [-5000.0, 5.0]}},
     "action_grids.ic_levels_db[0]"),
    ("validate", {"power": {"p_av_db": -5000.0}}, "power.p_av_db"),
    ("validate", {"channel": {"gamma_ps_db": -5000.0}}, "channel.gamma_ps_db"),
])
def test_out_of_range_values_exit_1_naming_the_key(tmp_path, capsys, command, doc, path):
    # a dB value whose linear form overflows or underflows a float and an
    # empty power grid (test_config_fuzz.py hands the size bounds' breaches
    # to commands, in a child process)
    cfg = write_config(tmp_path, doc)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config key {path} ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_solve_exports_lookup_and_manifest(tmp_path):
    cfg = write_config(tmp_path, small_model())
    out = tmp_path / "run1"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["mode"] == "fixed_pd"
    assert manifest["converged"] is True
    assert manifest["rows"] == 32
    assert manifest["config_sha256"] == config_hash(manifest["config"])

    csv_manifest, header, data = read_output(out / "lookup.csv")
    assert csv_manifest == manifest
    assert header == list(cli.LOOKUP_COLUMNS)
    assert len(data) == 32

    # the exported values are exactly the in-process solver's values
    rc = resolve_config(small_model())
    mdp = build_spectrum_mdp(rc.grids(), rc.model_params(), rc.costs())
    mode, pinned = rc.solver_mode()
    vt, _ = value_iteration(mdp, rc.solver_config(), mode=mode, pinned=pinned)
    exported = np.array([float(line.split(",")[-1]) for line in data])
    np.testing.assert_array_equal(exported, state_values(mdp, vt.values))
    # ... and the pinned detection level is respected everywhere
    assert {line.split(",")[5] for line in data} == {"0.8"}


def test_solve_manifest_reports_policy_facts(tmp_path):
    doc = small_model()
    doc["solver"].update(mode="joint", pinned_pd=None)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())

    rc = resolve_config(doc)
    mdp = build_spectrum_mdp(rc.grids(), rc.model_params(), rc.costs())
    vt, pt = value_iteration(mdp, rc.solver_config())
    assert manifest["distinct_actions"] == len(set(pt.actions.tolist()))
    d = rc.solver_config().discount
    assert manifest["first_residual"] == vt.residuals[0]
    assert manifest["error_bound"] == d * vt.final_residual / (1.0 - d)
    assert 0.0 < manifest["error_bound"] <= d * 1e-8 / (1.0 - d)
    histogram = manifest["action_histogram"]
    assert sum(histogram.values()) == mdp.n_states // mdp.n_actions
    assert len(histogram) == manifest["distinct_actions"]
    assert manifest["active_actions"] == vt.active_actions
    csv_manifest, _, _ = read_output(out / "lookup.csv")
    for key in ("first_residual", "action_histogram", "active_actions"):
        assert csv_manifest[key] == manifest[key]

    # value iteration backs up at least the columns its policy uses and at
    # most the mode's: on the default grids 231 joint columns, one pd
    # level's 21 ic columns, one ic level's 11 pd columns
    for solver, allowed in (({}, 231), ({"mode": "fixed_pd", "pinned_pd": 0.5}, 21),
                            ({"mode": "fixed_ic", "pinned_ic_db": -5.0}, 11)):
        cfg = write_config(tmp_path, {"solver": solver}, name=f"default_{allowed}.json")
        out = tmp_path / f"default_{allowed}"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["distinct_actions"] <= manifest["active_actions"] <= allowed


@pytest.mark.parametrize("costs, histogram", [
    (None, {"pd=0.0,ic_db=-15.0": 400}),
    ({"s_const": 0.0, "c_const": 0.0},
     {"pd=0.0,ic_db=-15.0": 60, "pd=0.1,ic_db=5.0": 4, "pd=0.3,ic_db=5.0": 4,
      "pd=0.4,ic_db=5.0": 16, "pd=1.0,ic_db=5.0": 316}),
])
def test_solve_manifest_action_histogram_on_the_default_grids(tmp_path, costs, histogram):
    # the default costs pin one action on all 400 blocks; zero costs spread
    # the blocks over five actions, all at the lowest or highest cap.  A
    # child process runs the solve, so the suite's count of contraction-
    # checked runs stays that of the in-process tests.
    out = tmp_path / "run"
    argv = [sys.executable, "-m", "cogrelay", "solve", "--out", str(out)]
    if costs is not None:
        argv += ["--config", write_config(tmp_path, {"costs": costs})]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path,
                          env=conftest.cli_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["action_histogram"] == histogram
    assert manifest["distinct_actions"] == len(histogram)
    assert manifest["first_residual"] > manifest["final_residual"]


def per_cell_csv(manifest, header, rows):
    """The CSV bytes of formatting every cell on its own."""
    lines = [cli._manifest_line(manifest), ",".join(header)]
    lines.extend(",".join(cli._fmt(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


def test_write_csv_formats_like_each_cell_on_its_own(tmp_path):
    nan_payload = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    edge = np.array([[-0.0, np.nan, 5e-324, 1.0],
                     [0.0, np.inf, -5e-324, 1.0],
                     [-0.0, -np.inf, nan_payload, 0.1 + 0.2],
                     [0.0, np.nan, 5e-324, 0.3]])
    rc = resolve_config(None)
    mdp = build_spectrum_mdp(rc.grids(), rc.model_params(), rc.costs())
    vt, pt = value_iteration(mdp, rc.solver_config())
    lookup = extract_lookup_table(mdp, vt, pt)
    sweep_rows = [(0.2, -5.0, 0.1, 0.123), (0.8, 5.0, 0.1, -0.0)]
    simulate_rows = [("mu_s", 0.5, 1e-3, 0.5, 0.0), ("outcome_fa", 0.0, 0.0, 0.0, -np.inf),
                     ("branch_mu_s_d", float("nan"), 0.0, 0.1, float("nan"))]
    # each table as one block, and the empty table as no block
    cases = [(edge, ("a", "b", "c", "d"), [edge]), (lookup, cli.LOOKUP_COLUMNS, [lookup]),
             (lookup[:0], cli.LOOKUP_COLUMNS, []),
             (sweep_rows, ("pd", "ic_db", "rho_p", "J"), [sweep_rows]),
             (simulate_rows, ("metric", "estimate", "se", "analytical", "z"), [simulate_rows]),
             ([(1, True, "x", np.float64(2.0))], ("i", "b", "s", "f"),
              [[(1, True, "x", np.float64(2.0))]])]
    for rows, header, blocks in cases:
        path = tmp_path / "out.csv"
        cli._write_csv(path, {"n": len(rows)}, header, blocks)
        assert path.read_bytes() == per_cell_csv({"n": len(rows)}, header, rows)
    # the edge table keeps -0.0 apart from 0.0 and formats each NaN as nan
    assert b"\n-0.0,nan,5e-324,1.0\n0.0,inf,-5e-324,1.0\n" in per_cell_csv({}, "abcd", edge)


@pytest.mark.parametrize("doc, sizes", [(small_model(), (1, 5, 1000)), (None, (1000, 100_000))],
                         ids=["small", "default"])
def test_solve_writes_the_whole_table_a_block_at_a_time(tmp_path, monkeypatch, doc, sizes):
    # S is 32 on the small model and 92,400 on the defaults: blocks of one
    # row, of a size that does not divide S, and past S each write the bytes
    # of the whole table written as one block
    rc = resolve_config(doc)
    mdp = build_spectrum_mdp(rc.grids(), rc.model_params(), rc.costs(),
                             reward_uses_chosen_action=rc.reward_uses_chosen_action())
    vt, pt = value_iteration(mdp, rc.solver_config(), *rc.solver_mode())
    table = extract_lookup_table(mdp, vt, pt)
    argv = ["solve"] + ([] if doc is None else ["--config", write_config(tmp_path, doc)])
    whole = tmp_path / "whole.csv"
    for size in sizes:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", size)
        out = tmp_path / str(size)
        assert cli.main(argv + ["--out", str(out)]) == 0
        cli._write_csv(whole, read_output(out / "lookup.csv")[0], cli.LOOKUP_COLUMNS, [table])
        assert (out / "lookup.csv").read_bytes() == whole.read_bytes()


def test_solve_exports_in_a_few_blocks_of_memory(tmp_path, monkeypatch):
    """numpy reports its buffers to tracemalloc.  Past what it holds when
    value iteration returns, a default `solve` peaks near 1.6 MiB: one
    `_BLOCK_ROWS` block of the lookup table and its text.  Extracting the
    whole (S, 8) table first peaks 16.2 MiB past it, so the bound fails on
    that."""
    solve, held = cli.value_iteration, []

    def solved(*args, **kwargs):
        result = solve(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(cli, "value_iteration", solved)
    tracemalloc.start()
    try:
        assert cli.main(["solve", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(held) == 1
    assert peak - held[0] <= 4 * 2**20


def test_solve_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, small_model())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "lookup.csv").read_bytes() == (out2 / "lookup.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_solve_iteration_cap_exit_code(tmp_path):
    doc = small_model()
    doc["solver"]["max_iters"] = 1
    doc["solver"]["epsilon"] = 1e-12
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "capped"
    assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["converged"] is False
    assert manifest["iterations"] == 1


def sweep_doc(power=(), **sweep):
    doc = small_model()
    doc["power"].update(power)
    doc["solver"] = {"epsilon": 1e-8, "discount": 0.9}
    doc["sweep"] = sweep
    return doc


def test_sweep_pd_reports_monotone_interference_relief(tmp_path):
    doc = sweep_doc(variable="pd", grid=[0.2, 0.8],
                    ic_db=[-5.0, 5.0], rho_p=[0.1])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    manifest, header, data = read_output(out / "sweep_pd.csv")
    assert manifest["variable"] == "pd"
    assert manifest["points"] == 4
    assert header == ["pd", "ic_db", "rho_p", "J"]

    j = {}
    for line in data:
        pd, ic_db, _, value = line.split(",")
        j[(pd, ic_db)] = float(value)
    for pd in ("0.2", "0.8"):
        assert j[(pd, "5.0")] >= j[(pd, "-5.0")] - 1e-12


def test_sweep_is_thread_count_invariant(tmp_path):
    doc = sweep_doc(variable="ic", grid_db=[-5.0, 0.0, 5.0],
                    pd=[0.2, 0.8], rho_p=[0.1, 0.5])
    cfg = write_config(tmp_path, doc)
    out1, out3 = tmp_path / "t1", tmp_path / "t3"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1),
                     "--threads", "1"]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(out3),
                     "--threads", "3"]) == 0
    assert (out1 / "sweep_ic.csv").read_bytes() == (out3 / "sweep_ic.csv").read_bytes()


def test_sweep_pav_exports_argmax_rows(tmp_path):
    doc = sweep_doc(variable="pav", grid_db=[0.0, 10.0])
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "pav"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, header, data = read_output(out / "sweep_pav.csv")
    assert header == ["pav_db", "argmax_pd", "argmax_ic_db"]
    assert len(data) == 2
    for line in data:
        _, pd_opt, ic_opt_db = line.split(",")
        assert float(pd_opt) in (0.2, 0.8)
        assert float(ic_opt_db) == pytest.approx(-5.0) or \
            float(ic_opt_db) == pytest.approx(5.0)


def test_sweep_pav_iteration_cap_exit_code(tmp_path):
    doc = sweep_doc(variable="pav", grid_db=[0.0, 10.0])
    doc["solver"]["discount"] = 0.98
    doc["action_grids"] = {"pd_levels": [0.2, 0.5, 0.8],
                           "ic_levels_db": [-15.0, -5.0, 5.0]}
    # the 10 dB budget takes two policy-iteration steps
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "full")]) == 0
    doc["solver"]["max_iters"] = 1
    out = tmp_path / "capped"
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc, "capped.json"),
                     "--out", str(out)]) == 2
    manifest, _, data = read_output(out / "sweep_pav.csv")
    assert manifest["converged"] is False
    assert len(data) == 2


@pytest.mark.parametrize("argv, names", [
    (["sweep", "--threads", "abc"], "--threads"),
    (["sweep", "--threads", "0"], "--threads"),
    (["solve", "--threads", "-1"], "--threads"),
    (["bogus"], "bogus"),
    (["sweep", "--threads", "-1"], "--threads"),
    (["solve", "--seed", "1"], "--seed"),
    (["simulate", "--threads", "2"], "--threads"),
    (["validate", "--seed", "1"], "--seed"),
])
def test_usage_errors_exit_1(tmp_path, capsys, argv, names):
    # 2 is reserved for a solver that hit its iteration cap
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert names in err and "error" in err
    assert not any(tmp_path.iterdir())


def test_sweep_off_grid_rho_p_fails(tmp_path, capsys):
    doc = sweep_doc(variable="pd", grid=[0.2], ic_db=[-5.0], rho_p=[0.1, 0.3])
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "sweep.rho_p=0.3 is not on the configured grid" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("sweep, power", [
    # an unsorted pd grid with a repeat, and two unsorted caps
    ({"variable": "pd", "grid": [0.8, 0.2, 0.8], "ic_db": [5.0, -5.0], "rho_p": [0.5, 0.1]}, {}),
    # an unsorted cap grid against an unsorted pd list
    ({"variable": "ic", "grid_db": [5.0, -5.0, 0.0], "pd": [0.8, 0.2], "rho_p": [0.5, 0.1]}, {}),
    # a pd x ic cross at a budget moved off the reference power, as criterion 9 reads it
    ({"variable": "pd", "grid": [0.8, 0.2], "ic_db": [5.0, -5.0], "rho_p": [0.1, 0.5]},
     {"p_av_db": -5.0, "p_ref_db": 5.0}),
], ids=["pd", "ic", "pd_at_a_moved_budget"])
def test_sweep_rows_match_one_pinned_model_per_point(tmp_path, sweep, power):
    # the sweep solves each (pd, ic) pair once on one model over all the
    # pairs; each row must be the J of that point's own one-action model,
    # in the configured order
    cfg = write_config(tmp_path, sweep_doc(power, **sweep))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    _, header, data = read_output(out / f"sweep_{sweep['variable']}.csv")

    rc = resolve_config(cfg)
    spec, scfg, sg = rc.sweep_spec(), rc.solver_config(), rc.state_grids()
    if spec.variable == "pd":
        points = [(pd, ic, rp) for pd in spec.grid for ic in spec.ic_fixed
                  for rp in spec.rho_p]
    else:
        points = [(pd, db_to_linear(ic_db), rp) for ic_db in spec.grid
                  for pd in spec.pd_fixed for rp in spec.rho_p]
    expected = []
    for pd, ic, rp in points:
        cells = {"pd": pd, "ic_db": linear_to_db(ic), "rho_p": rp,
                 "J": cli._pinned_value(rc, sg, pd, ic, rp, scfg)}
        expected.append(",".join(cli._fmt(cells[name]) for name in header))
    assert data == expected


def test_default_pinned_sweeps_solve_each_pair_once(tmp_path, monkeypatch):
    # one model, one stacked evaluation, one constant policy per distinct pair
    calls = {"build": 0, "exact": 0}
    stacks = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(mdp, stack, *args, **kwargs):
        stacks.append(np.array(stack))
        return real_exact(mdp, stack, *args, **kwargs)

    real_exact = cli.evaluate_policy_exact
    monkeypatch.setattr(cli, "build_spectrum_mdp", counted("build", cli.build_spectrum_mdp))
    monkeypatch.setattr(cli, "evaluate_policy_exact", counted("exact", recorded))
    for variable, rows, pairs in (("pd", 66, 33), ("ic", 84, 42)):
        calls.update(build=0, exact=0)
        stacks.clear()
        cfg = write_config(tmp_path, {"sweep": {"variable": variable}}, f"{variable}.json")
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, _, data = read_output(tmp_path / f"sweep_{variable}.csv")
        assert len(data) == rows
        assert calls == {"build": 1, "exact": 1}
        (stack,) = stacks
        assert stack.shape[0] == pairs
        assert np.all(stack == stack[:, :1])
        assert len(np.unique(stack[:, 0])) == pairs
        # the stack is every action of the sweep model, in flat-action order
        np.testing.assert_array_equal(stack[:, 0], np.arange(pairs))


@pytest.mark.parametrize("variable", ["pd", "ic"])
def test_pinned_sweep_manifest_reports_its_worst_relative_residual(tmp_path, variable):
    manifests = []
    for threads in ("1", "2"):
        cfg = write_config(tmp_path, {"sweep": {"variable": variable}}, f"{variable}.json")
        out = tmp_path / threads
        assert cli.main(["sweep", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
        manifests.append(read_output(out / f"sweep_{variable}.csv")[0])
    worst = manifests[0]["worst_relative_residual"]
    assert 0.0 <= worst < 1e-12
    assert manifests[0] == manifests[1]


def test_sweep_empty_grid_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_doc(variable="pd", grid=[]))
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "non-empty" in capsys.readouterr().err


@pytest.mark.parametrize("sweep, key", [
    ({"variable": "pd", "ic_db": []}, "sweep.ic_db"),
    ({"variable": "ic", "pd": []}, "sweep.pd"),
    ({"variable": "pd", "rho_p": []}, "sweep.rho_p"),
])
def test_sweep_empty_co_variable_names_its_key(tmp_path, capsys, sweep, key):
    cfg = write_config(tmp_path, {"sweep": sweep})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"error: {key} must be non-empty" in err
    assert "pd_levels" not in err
    assert not any(tmp_path.glob("*.csv"))


def run_default_sweep(tmp_path, variable, out, **env):
    """`python -m cogrelay sweep` of `variable` at the defaults into `out`, in a
    child process whose environment adds `env`."""
    cfg = write_config(tmp_path, {"sweep": {"variable": variable}}, f"{variable}.json")
    proc = subprocess.run([sys.executable, "-m", "cogrelay", "sweep", "--config", cfg,
                           "--out", str(out)], capture_output=True, text=True,
                          cwd=tmp_path, env={**conftest.cli_subprocess_env(), **env})
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.mark.parametrize("variable", ["pd", "pav"])
def test_default_sweeps_do_not_depend_on_the_blas_thread_count(tmp_path, variable):
    outs = [run_default_sweep(tmp_path, variable, tmp_path / f"blas{n}",
                              OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n)
            for n in ("1", "2")]
    names = sorted(path.name for path in outs[0].iterdir())
    assert names and names == sorted(path.name for path in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# J of the first, middle and last rows of the default pd and ic sweeps, bit
# for bit, recorded on x86-64
GOLDEN_SWEEP_J = {
    "pd": {0: "0x1.08ef6ea6a3f25p+3", 33: "0x1.176cc2ab3b2c8p+2",
           65: "0x1.a0f052f6cc4c8p+2"},
    "ic": {0: "0x1.0ec26ca1c5cd8p+3", 42: "0x1.a007a86437a74p+1",
           83: "0x1.b4fe569a69242p+2"},
}


@pytest.mark.parametrize("variable", sorted(GOLDEN_SWEEP_J))
def test_default_pinned_sweeps_keep_their_golden_values(tmp_path, variable):
    out = run_default_sweep(tmp_path, variable, tmp_path)
    _, _, data = read_output(out / f"sweep_{variable}.csv")
    golden = GOLDEN_SWEEP_J[variable]
    assert len(data) == max(golden) + 1
    for row, value in golden.items():
        assert float(data[row].split(",")[-1]) == float.fromhex(value), row


class _Forked(Exception):
    pass


def _no_fork():
    raise _Forked


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_only_the_budget_sweep_forks(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, sweep_doc(variable="pd", grid=[0.2, 0.8],
                                           ic_db=[-5.0, 5.0], rho_p=[0.1, 0.5]))
    out1, out3 = tmp_path / "t1", tmp_path / "t3"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    monkeypatch.setattr(os, "fork", _no_fork)
    assert cli.main(["sweep", "--config", cfg, "--out", str(out3),
                     "--threads", "3"]) == 0
    assert (out1 / "sweep_pd.csv").read_bytes() == (out3 / "sweep_pd.csv").read_bytes()
    pav = write_config(tmp_path, sweep_doc(variable="pav", grid_db=[0.0, 10.0]), "pav.json")
    assert cli.main(["sweep", "--config", pav, "--out", str(tmp_path / "pav1")]) == 0
    with pytest.raises(_Forked):
        cli.main(["sweep", "--config", pav, "--out", str(tmp_path / "pav3"),
                  "--threads", "3"])
    assert no_child_left()


def test_a_budget_sweep_forks_one_worker_per_budget_at_most(tmp_path, monkeypatch):
    forks = []

    def recorded():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    real_fork = os.fork
    monkeypatch.setattr(os, "fork", recorded)
    cfg = write_config(tmp_path, sweep_doc(variable="pav", grid_db=[0.0, 10.0]))
    out1, out64 = tmp_path / "t1", tmp_path / "t64"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert forks == []
    assert cli.main(["sweep", "--config", cfg, "--out", str(out64),
                     "--threads", "64"]) == 0
    assert len(forks) == 2
    assert (out1 / "sweep_pav.csv").read_bytes() == (out64 / "sweep_pav.csv").read_bytes()
    assert no_child_left()


@pytest.mark.parametrize("threads, slices", [
    (1, [5]), (2, [3, 2]), (3, [2, 2, 1]), (5, [1] * 5)])
def test_budget_slices_are_contiguous_and_near_equal(threads, slices):
    budgets = list(range(5))
    parts = cli._slices(budgets, threads)
    assert [len(part) for part in parts] == slices
    assert [b for part in parts for b in part] == budgets


def test_a_budget_sweep_without_fork_is_a_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    cfg = write_config(tmp_path, sweep_doc(variable="pav", grid_db=[0.0, 10.0]))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --threads 2 needs os.fork")
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()
    # one worker, and validate, fork nothing
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["validate", "--config", cfg]) == 0


def test_a_raising_budget_worker_fails_the_sweep(tmp_path, monkeypatch, capsys):
    # the worker reports the first line of what it raised and exits; the
    # command prints one error line, writes nothing and leaves no child behind, then runs again
    def raising(*args):
        raise ZeroDivisionError("no budget\nand a second line")

    cfg = write_config(tmp_path, sweep_doc(variable="pav", grid_db=[0.0, 10.0]))
    out = tmp_path / "out"
    argv = ["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]
    point = cli._pav_point
    monkeypatch.setattr(cli, "_pav_point", raising)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep pav worker 1 of 2 raised ZeroDivisionError: no budget\n"
    assert not out.exists()
    assert no_child_left()
    monkeypatch.setattr(cli, "_pav_point", point)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("sweep pav: 2 rows") == 1
    assert no_child_left()


def test_a_worker_that_cannot_start_fails_the_sweep(tmp_path, monkeypatch, capsys):
    # the second fork fails: the first worker is killed and reaped, and the
    # second's pipe is closed, so nothing is left open or running
    pipes, forks = [], []

    def recorded_pipe():
        pipes.append(real_pipe())
        return pipes[-1]

    def failing_fork():
        if forks:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        forks.append(real_fork())
        return forks[-1]

    real_pipe, real_fork = os.pipe, os.fork
    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", failing_fork)
    cfg = write_config(tmp_path, sweep_doc(variable="pav", grid_db=[0.0, 10.0]))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--threads", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: sweep pav worker 2 of 2 could not start: "
                            f"[Errno {errno.EAGAIN}] Resource temporarily unavailable\n")
    assert not out.exists()
    assert no_child_left()
    assert len(pipes) == 2
    for fd in (fd for pipe in pipes for fd in pipe):
        with pytest.raises(OSError):
            os.fstat(fd)


@pytest.mark.parametrize("death, reason", [
    ("os._exit(3)", "exited with code 3"),
    ("os.kill(os.getpid(), signal.SIGKILL)", "was killed by signal 9")])
def test_a_dead_budget_worker_fails_the_sweep(tmp_path, death, reason):
    # a worker that dies mid-budget fails the command at once, with one
    # error line, no output and no child left running or unreaped
    cfg = write_config(tmp_path, sweep_doc(variable="pav", grid_db=[0.0, 10.0]))
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "2"]
    code = ("import os, signal, sys\n"
            "import cogrelay.cli as cli\n"
            f"cli._pav_point = lambda *args: {death}\n"
            f"status = cli.main({argv!r})\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
            "sys.exit(status)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=conftest.cli_subprocess_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"error: sweep pav worker 1 of 2 {reason}\n"
    assert proc.stdout == "no child left\n"
    assert not (tmp_path / "out").exists()


def sim_doc(n_slots=100_000, seed=7):
    doc = small_model()
    del doc["solver"]
    doc["sim"] = {"n_slots": n_slots, "seed": seed, "pd": 0.8}
    return doc


def test_simulate_agrees_with_the_analytical_model(tmp_path):
    cfg = write_config(tmp_path, sim_doc())
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    manifest, header, data = read_output(out / "simulate.csv")
    assert header == ["metric", "estimate", "se", "analytical", "z"]
    assert manifest["n_slots"] == 100_000
    assert len(data) == 14
    for line in data:
        z = float(line.split(",")[-1])
        assert abs(z) < 3.0


def test_simulate_seed_override_and_determinism(tmp_path):
    cfg = write_config(tmp_path, sim_doc(n_slots=20_000))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1),
                     "--seed", "123"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out2),
                     "--seed", "123"]) == 0
    m1, _, _ = read_output(out1 / "simulate.csv")
    assert m1["seed"] == 123
    assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()


# the data rows of `simulate --seed 7` on `sim_doc(n_slots=20_000)`, recorded
# before the rates were derived from the slot counts; a reordered row or a
# moved bit fails here, which the |z| checks above cannot see
PINNED_SIMULATE_ROWS = [
    "mu_s,0.374885,0.0024686103051615904,0.37288673264309374,0.8094705562591734",
    "mu_p,0.13635,0.0024265065165789274,0.1349795537622167,0.5647816020356086",
    "outcome_fa,0.49955,0.003535532474041216,0.5004445267677511,-0.25301047984113734",
    "outcome_nfa,0.30285,0.003249091238331112,0.2995554732322489,1.0139840731106493",
    "outcome_md,0.038,0.0013519615379144483,0.039999999999999994,-1.479332025292094",
    "outcome_d,0.1596,0.0025896702492788537,0.16000000000000003,-0.15445981978262574",
    "branch_mu_s_fa,0.47555,0.0035313042739191993,0.47603755919182006,-0.13806773758381663",
    "branch_mu_s_nfa,0.28705,0.003198845866089831,0.2849459804087512,0.6577433484848483",
    "branch_mu_s_md,0.0346,0.0012923397386136511,0.03619349672143837,-1.233032362796324",
    "branch_mu_s_d,0.1451,0.002490441627503042,0.14477398688575355,0.13090574404400943",
    "branch_mu_ps_fa,0.4531,0.003519945951289593,0.4529282123245075,0.048804066275390454",
    "branch_mu_ps_nfa,0.27395,0.003153580484940887,0.27111321580317754,0.8995439343846836",
    "branch_mu_ps_md,0.03145,0.0012341170426665375,0.0327647493528236,-1.0653360316480536",
    "branch_mu_ps_d,0.13095,0.002385394071217584,0.13105899741129443,-0.04569367074798626",
]


def test_simulate_rows_are_pinned(tmp_path):
    cfg = write_config(tmp_path, sim_doc(n_slots=20_000))
    out = tmp_path / "pinned"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "7"]) == 0
    _, _, data = read_output(out / "simulate.csv")
    assert data == PINNED_SIMULATE_ROWS
    # the estimates and their closed forms share one key list, the CSV's rows
    rc = resolve_config(cfg)
    sim_cfg = rc.sim_config(rc.model_params())
    assert list(estimates(sim_cfg, simulate(sim_cfg))) == list(analytical_reference(sim_cfg))


def test_simulate_resolves_the_model_once(tmp_path, monkeypatch):
    calls = []
    real = ResolvedConfig.model_params

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ResolvedConfig, "model_params", counted)
    cfg = write_config(tmp_path, sim_doc(n_slots=20_000))
    out = tmp_path / "once"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    assert len(calls) == 1
    assert read_output(out / "simulate.csv")[2] == PINNED_SIMULATE_ROWS


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_an_out_that_is_not_a_directory_exits_1_before_anything_runs(tmp_path, capsys,
                                                                      command):
    # an existing file, and a path under one: the nearest existing path is
    # the file, so the directory could never be made
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    for out in (blocker, blocker / "sub"):
        assert cli.main([command, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out}: {blocker} exists and is not a directory\n"
    assert blocker.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [blocker]


@pytest.mark.parametrize("command", ["validate", "solve", "sweep", "simulate"])
def test_unreadable_config_file_exits_1_without_a_traceback(tmp_path, command):
    # a path that names nothing, and one that names a directory
    out = tmp_path / "out"
    for config in (tmp_path / "no_such.json", tmp_path):
        proc = subprocess.run([sys.executable, "-m", "cogrelay", command, "--config",
                               str(config), "--out", str(out)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=conftest.cli_subprocess_env())
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"error: config file {config} cannot be read: ")
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()


@pytest.mark.parametrize("seed, flag", [(7, "-1"), (-3, None)],
                         ids=["flag", "config"])
def test_simulate_negative_seed_fails_naming_it(tmp_path, seed, flag):
    argv = [sys.executable, "-m", "cogrelay", "simulate", "--out", str(tmp_path),
            "--config", write_config(tmp_path, sim_doc(n_slots=1000, seed=seed))]
    if flag is not None:
        argv += ["--seed", flag]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path,
                          env=conftest.cli_subprocess_env())
    assert proc.returncode == 1, proc.stderr
    assert f"error: seed must be non-negative, got {flag or seed}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.glob("*.csv"))


def test_simulate_flags_statistical_disagreement(tmp_path, monkeypatch):
    real = cli.analytical_reference

    def shifted(cfg):
        ref = dict(real(cfg))
        ref["mu_s"] = float(ref["mu_s"]) + 1.0
        return ref

    monkeypatch.setattr(cli, "analytical_reference", shifted)
    cfg = write_config(tmp_path, sim_doc(n_slots=20_000))
    out = tmp_path / "bad"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3


# run in the child: `python -m cogrelay ARGV`, then its exit code and
# whether scipy and numpy were loaded
_ENTRY_POINT = """\
import runpy, sys
sys.argv[1:] = {argv!r}
try:
    runpy.run_module("cogrelay", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code)
print("scipy" in sys.modules, "numpy._core" in sys.modules)
"""


@pytest.mark.parametrize("command, doc, code, loads_numpy", [
    (None, None, None, False),
    ("validate", None, 0, False),
    ("validate", {"sweep": {"variable": "pav"}}, 0, False),
    ("validate", {"sim": {"n_slots": 10_000_000}}, 0, False),
    ("solve", {"queues": {"lambda_s": 0.9}}, 1, False),
    ("solve", small_model(), 0, True),
], ids=["import", "validate", "validate_pav", "validate_sim", "config_error", "solve"])
def test_setup_imports_neither_scipy_nor_numpy(tmp_path, command, doc, code, loads_numpy):
    # scipy is a test dependency only, and numpy loads at the first array a
    # command's run makes: importing either would cost every validate and
    # every rejected configuration
    if command is None:
        program = ('import sys, cogrelay, cogrelay.cli\nprint(None)\n'
                   'print("scipy" in sys.modules, "numpy._core" in sys.modules)')
    else:
        argv = [command, "--out", str(tmp_path / "out")]
        if doc is not None:
            argv += ["--config", write_config(tmp_path, doc)]
        program = _ENTRY_POINT.format(argv=argv)
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                          text=True, cwd=tmp_path, env=conftest.cli_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [str(code), f"False {loads_numpy}"], \
        (proc.stdout, proc.stderr)


def test_budget_workers_start_with_numpy_loaded(tmp_path):
    # the command loads numpy before it forks, so every worker inherits it;
    # a worker that imported numpy itself would add its copy to the peak RSS.
    # Each worker reports in one write, so two reports never interleave.  A
    # worker ends without flushing the command's stdout, so the line
    # buffered before the fork, and the summary, each print once.
    cfg = write_config(tmp_path, sweep_doc(variable="pav", grid_db=[0.0, 10.0]))
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--threads", "2"]
    code = ("import os, sys\n"
            "import cogrelay.cli as cli\n"
            "point, parent = cli._pav_point, os.getpid()\n"
            "def recorded(*args):\n"
            "    loaded = 'numpy._core' in sys.modules\n"
            "    os.write(1, f'budget {os.getpid() != parent} {loaded}\\n'.encode())\n"
            "    return point(*args)\n"
            "cli._pav_point = recorded\n"
            "print('buffered before the fork')\n"
            f"sys.exit(cli.main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=conftest.cli_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    budgets = [line for line in proc.stdout.splitlines() if line.startswith("budget")]
    assert budgets == ["budget True True"] * 2, proc.stdout
    assert proc.stdout.count("buffered before the fork") == 1, proc.stdout
    assert proc.stdout.count("sweep pav: 2 rows") == 1, proc.stdout


def test_a_missing_numpy_fails_at_import(tmp_path):
    code = ("import importlib.util\n"
            "find_spec = importlib.util.find_spec\n"
            "importlib.util.find_spec = lambda name, *args: (\n"
            "    None if name == 'numpy' else find_spec(name, *args))\n"
            "import cogrelay\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=conftest.cli_subprocess_env())
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == "ModuleNotFoundError: No module named 'numpy'", \
        proc.stderr


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "cogrelay", "validate"],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=conftest.cli_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert "all constraints satisfied" in proc.stdout


DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path, env=conftest.cli_subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1, "README.md should hold one python block, the Quick start"
    proc = subprocess.run([sys.executable, "-c", blocks[0].split("```")[0]],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=conftest.cli_subprocess_env())
    assert proc.returncode == 0, proc.stderr
