"""End-to-end command behaviour: files, manifests, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

import cogrelay.cli as cli
from cogrelay.config import config_hash, resolve_config
from cogrelay.mdp import build_spectrum_mdp
from cogrelay.solver import value_iteration

import conftest


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


def test_validate_rejects_unstable_queues(tmp_path, capsys):
    cfg = write_config(tmp_path, {"queues": {"lambda_s": 0.9}})
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "constraint 1" in capsys.readouterr().err


def test_validate_reports_grid_constraint_breaches(tmp_path, capsys):
    doc = small_model()
    doc["state_grids"]["p_s_levels"] = [99.0]
    cfg = write_config(tmp_path, doc)
    assert cli.main(["validate", "--config", cfg]) == 1
    assert "constraint 2" in capsys.readouterr().out


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
    np.testing.assert_array_equal(exported, vt.values)
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
    assert manifest["error_bound"] == d * vt.final_residual / (1.0 - d)
    assert 0.0 < manifest["error_bound"] <= d * 1e-8 / (1.0 - d)


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


def sweep_doc(**sweep):
    doc = small_model()
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


def test_sweep_off_grid_rho_p_fails(tmp_path, capsys):
    doc = sweep_doc(variable="pd", grid=[0.2], ic_db=[-5.0], rho_p=[0.3])
    cfg = write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "rho_p" in capsys.readouterr().err


def test_sweep_empty_grid_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, sweep_doc(variable="pd", grid=[]))
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "non-empty" in capsys.readouterr().err


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


def test_module_entry_point_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "cogrelay", "validate"],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=conftest.cli_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert "all constraints satisfied" in proc.stdout
