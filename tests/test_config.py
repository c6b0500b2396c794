"""Strict config parsing and resolution into runtime objects."""

import dataclasses
import json
import math
import re

import pytest

import cogrelay.cli as cli
from cogrelay.config import (_BOUNDS, _NULLABLE, DEFAULT_CONFIG, ConfigError,
                             config_hash, load_config, nearest_index, resolve_config)
from cogrelay.mdp import truncated_exponential_levels
from cogrelay.model import db_to_linear


def test_empty_document_is_a_complete_run():
    rc = resolve_config(None)
    params = rc.model_params()
    assert params.queues.lambda_s == 0.5
    assert rc.grids().shape == (10, 10, 4, 11, 21)
    assert rc.grids().n_states == 92_400
    assert rc.solver_config().discount == 0.98
    assert rc.solver_mode() == ("joint", None)


def test_unknown_keys_are_rejected_with_their_path():
    with pytest.raises(ConfigError, match="state_grids.rho_p_levls"):
        load_config({"state_grids": {"rho_p_levls": [0.1]}})
    with pytest.raises(ConfigError, match="unknown config key: fudge"):
        load_config({"fudge": 1})
    # keys that fed no command are gone, not silently accepted
    for path in ("channel.n0", "sensing.n0", "sim.ic_db"):
        section, key = path.split(".")
        with pytest.raises(ConfigError, match=f"unknown config key: {path}$"):
            load_config({section: {key: 1.0}})


def test_sections_must_be_mappings():
    with pytest.raises(ConfigError, match="must be a section"):
        load_config({"channel": 5})


def test_merge_preserves_sibling_defaults():
    cfg = load_config({"queues": {"lambda_s": 0.4}})
    assert cfg["queues"]["lambda_s"] == 0.4
    assert cfg["queues"]["mu_s_max"] == 0.8
    assert cfg["channel"] == DEFAULT_CONFIG["channel"]


def test_loaded_documents_do_not_alias_the_defaults():
    cfg = load_config(None)
    cfg["queues"]["lambda_s"] = 0.9
    assert DEFAULT_CONFIG["queues"]["lambda_s"] == 0.5


def test_db_fields_resolve_to_linear_units():
    rc = resolve_config({"channel": {"gamma_s_db": 10.0},
                         "power": {"p_av_db": 5.0}})
    assert rc.channel().gamma_s == pytest.approx(10.0, rel=1e-15)
    assert rc.power().p_av == pytest.approx(10.0 ** 0.5, rel=1e-15)
    assert rc.timing().tau == pytest.approx(0.3e-3, rel=1e-15)
    assert rc.sensing().n_samples == 300


def test_beta_sp_defaults_to_beta_s():
    rc = resolve_config(None)
    assert rc.channel().beta_sp == rc.channel().beta_s
    rc = resolve_config({"channel": {"beta_sp": 0.7}})
    assert rc.channel().beta_sp == 0.7


def test_reference_power_defaults_to_budget():
    rc = resolve_config(None)
    assert rc.power().reference_power == rc.power().p_av
    rc = resolve_config({"power": {"p_ref_db": 0.0}})
    assert rc.power().reference_power == pytest.approx(1.0, rel=1e-15)


# The sections that resolve by the naming rule, the object each builds, and
# the keys it reads (None: every key of the section).
_RULE_SECTIONS = {
    "channel": (lambda rc: rc.channel(), None),
    "queues": (lambda rc: rc.queues(), None),
    "timing": (lambda rc: rc.timing(), None),
    "sensing": (lambda rc: rc.sensing(), None),
    "power": (lambda rc: rc.power(), None),
    "action_grids": (lambda rc: rc.action_grids(), None),
    "costs": (lambda rc: rc.costs(), None),
    "solver": (lambda rc: rc.solver_config(), ("epsilon", "max_iters", "discount")),
    "sim": (lambda rc: rc.sim_config(rc.model_params()), None),
}
# values apart from every library field default, so a field left unset shows
_SET_APART = {"channel": {"beta_sp": 2.0e-3}, "queues": {"mu_p_max": 0.9},
              "sensing": {"f_s_hz": 2.0e6}, "power": {"p_ref_db": 3.0},
              "costs": {"s_const": 1.5, "c_const": 0.5},
              "solver": {"epsilon": 1.0e-7, "max_iters": 1500},
              "sim": {"pf": 0.1, "pi1": 0.3}}
_UNIT_SUFFIXES = {"_db": db_to_linear, "_ms": lambda v: v * 1e-3, "_hz": lambda v: v}


@pytest.mark.parametrize("section", _RULE_SECTIONS)
def test_each_key_sets_the_library_field_it_names(section):
    # a key is its field's name plus an optional unit suffix, so a renamed
    # field or a key without one fails here and not at run time
    build, keys = _RULE_SECTIONS[section]
    rc = resolve_config(_SET_APART)
    built = build(rc)
    fields = {f.name: f for f in dataclasses.fields(built)}
    for key in keys or DEFAULT_CONFIG[section]:
        name, unit = key, lambda v: v
        for suffix, convert in _UNIT_SUFFIXES.items():
            if key.endswith(suffix):
                name, unit = key[:-len(suffix)], convert
        assert name in fields, f"{section}.{key} names no field of {type(built).__name__}"
        value = rc.raw[section][key]
        want = tuple(unit(float(v)) for v in value) if isinstance(value, list) else unit(value)
        got = getattr(built, name)
        assert got == want and type(got) is type(want), f"{section}.{key}"
        assert got != fields[name].default, f"{section}.{key} reads as the library default"


@pytest.mark.parametrize("p_ref_db", [None, 8.0])
def test_a_budget_moves_p_av_and_keeps_the_reference_power(p_ref_db):
    rc = resolve_config({"power": {"p_av_db": 5.0, "p_ref_db": p_ref_db}})
    power = rc.at_budget(-3.0).power()
    assert power.p_av == db_to_linear(-3.0)
    assert power.p_ref == rc.power().reference_power
    assert power.mean_g_sp == rc.power().mean_g_sp
    assert rc.raw["power"] == {"p_av_db": 5.0, "mean_g_sp": 6000.0, "p_ref_db": p_ref_db}


def test_solver_mode_resolution():
    rc = resolve_config({"solver": {"mode": "fixed_pd", "pinned_pd": 0.5}})
    assert rc.solver_mode() == ("fixed_pd", 5)
    rc = resolve_config({"solver": {"mode": "fixed_ic", "pinned_ic_db": -15.0}})
    assert rc.solver_mode() == ("fixed_ic", 0)


def test_solver_mode_strictness():
    with pytest.raises(ConfigError, match="pinned_pd is required"):
        resolve_config({"solver": {"mode": "fixed_pd"}}).solver_mode()
    with pytest.raises(ConfigError, match="pinned_ic_db is required"):
        resolve_config({"solver": {"mode": "fixed_ic"}}).solver_mode()
    with pytest.raises(ConfigError, match="not on the configured grid"):
        resolve_config({"solver": {"mode": "fixed_pd",
                                   "pinned_pd": 0.55}}).solver_mode()
    with pytest.raises(ConfigError, match="must be joint"):
        resolve_config({"solver": {"mode": "greedy"}}).solver_mode()


def test_sweep_spec_defaults():
    spec = resolve_config(None).sweep_spec()
    assert spec.variable == "pd"
    assert spec.grid == tuple(resolve_config(None).action_grids().pd_levels)
    assert len(spec.ic_fixed) == 3
    assert spec.pd_fixed == (0.1, 0.9)
    assert spec.rho_p == (0.1, 0.9)


def test_sweep_spec_db_grids():
    # ic and pav grids stay in dB; the sweep converts them
    spec = resolve_config({"sweep": {"variable": "ic"}}).sweep_spec()
    assert len(spec.grid) == 21
    assert min(map(db_to_linear, spec.grid)) == pytest.approx(10.0 ** -1.5, rel=1e-15)
    spec = resolve_config({"sweep": {"variable": "pav"}}).sweep_spec()
    assert len(spec.grid) == 11
    spec = resolve_config(
        {"sweep": {"variable": "pav", "grid_db": [0.0, 40.0]}}).sweep_spec()
    assert tuple(map(db_to_linear, spec.grid)) == (1.0, pytest.approx(1.0e4, rel=1e-12))


def test_sweep_spec_strictness():
    with pytest.raises(ConfigError, match="non-empty"):
        resolve_config({"sweep": {"grid": []}}).sweep_spec()
    with pytest.raises(ConfigError, match="must be pd, ic or pav"):
        resolve_config({"sweep": {"variable": "power"}}).sweep_spec()
    with pytest.raises(ConfigError, match=r"lie in \[0, 1\]"):
        resolve_config({"sweep": {"grid": [0.5, 1.5]}}).sweep_spec()
    # the budget sweep reads none of the co-variable lists
    resolve_config({"sweep": {"variable": "pav", "ic_db": [], "pd": [],
                              "rho_p": []}}).sweep_spec()


def test_sim_config_resolution_and_seed_override():
    rc = resolve_config({"sim": {"n_slots": 5000, "seed": 9, "pd": 0.6}})
    cfg = rc.sim_config(rc.model_params())
    assert (cfg.n_slots, cfg.seed, cfg.pd) == (5000, 9, 0.6)
    assert cfg.pf is None and cfg.pi1 is None
    assert cfg.params == rc.model_params()
    rc = resolve_config({"sim": {"seed": 77}})
    assert rc.sim_config(rc.model_params()).seed == 77


def test_config_hash_is_order_invariant():
    a = {"queues": {"lambda_s": 0.4, "mu_s_max": 0.8}}
    b = {"queues": {"mu_s_max": 0.8, "lambda_s": 0.4}}
    assert config_hash(load_config(a)) == config_hash(load_config(b))
    c = {"queues": {"lambda_s": 0.41}}
    assert config_hash(load_config(a)) != config_hash(load_config(c))
    rc = resolve_config(a)
    assert rc.sha256 == config_hash(rc.raw)


def test_nearest_index():
    assert nearest_index(0.23, (0.0, 0.2, 0.4)) == 1
    assert nearest_index(5.0, (0.0, 0.2, 0.4)) == 2


def test_explicit_power_levels_override_quantisation():
    rc = resolve_config({"state_grids": {"p_s_levels": [0.5, 1.5],
                                         "p_s_stationary": [0.3, 0.7]}})
    sg = rc.state_grids()
    assert sg.p_s_levels == (0.5, 1.5)
    assert sg.p_s_stationary == (0.3, 0.7)
    rc = resolve_config({"state_grids": {"p_s_levels": [0.5, 1.5]}})
    assert rc.state_grids().p_s_stationary == (0.5, 0.5)


def test_a_stationary_law_without_power_levels_is_rejected(tmp_path, capsys):
    # the default power levels carry their own law, which would silently
    # replace this one
    doc = {"state_grids": {"p_s_stationary": [0.7, 0.1, 0.1, 0.1]}}
    with pytest.raises(ConfigError, match="state_grids.p_s_stationary"):
        resolve_config(doc).state_grids()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "solve", "sweep", "simulate"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
        assert "state_grids.p_s_stationary" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_default_power_levels_follow_the_truncated_exponential():
    rc = resolve_config(None)
    p_av = rc.power().p_av
    levels, probs = truncated_exponential_levels(p_av, p_av, 4)
    sg = rc.state_grids()
    assert sg.p_s_levels == levels
    assert sg.p_s_stationary == probs
    # a budget of 10 dB is 10.0 exactly
    assert rc.at_budget(10.0).state_grids().p_s_levels == \
        truncated_exponential_levels(10.0, 10.0, 4)[0]


def test_config_files_load_and_fail_loudly(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"queues": {"lambda_s": 0.3}}))
    assert load_config(path)["queues"]["lambda_s"] == 0.3

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)

    arr = tmp_path / "array.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


@pytest.mark.parametrize("doc, path", [
    ({"channel": {"gamma_s_db": float("nan")}}, "channel.gamma_s_db"),
    ({"costs": {"s_const": float("inf")}}, "costs.s_const"),
    ({"queues": {"lambda_s": float("-inf")}}, "queues.lambda_s"),
    ({"sweep": {"grid": [0.5, float("nan")]}}, r"sweep.grid\[1\]"),
    ({"channel": {"gamma_s_db": 10 ** 400}}, "channel.gamma_s_db"),
])
def test_non_finite_values_are_rejected_with_their_path(doc, path):
    with pytest.raises(ConfigError, match=f"{path} must be finite"):
        load_config(doc)


@pytest.mark.parametrize("doc, path", [
    ({"channel": {"gamma_s_db": True}}, "channel.gamma_s_db"),
    ({"channel": {"beta_sp": False}}, "channel.beta_sp"),
    ({"state_grids": {"rho_p_levels": [0.1, True]}}, r"state_grids.rho_p_levels\[1\]"),
])
def test_booleans_are_rejected_outside_boolean_slots(doc, path):
    with pytest.raises(ConfigError, match=f"{path} must not be a boolean"):
        load_config(doc)


def test_boolean_slots_still_take_booleans():
    cfg = load_config({"solver": {"reward_uses_chosen_action": True}})
    assert cfg["solver"]["reward_uses_chosen_action"] is True


def test_json_non_finite_literals_are_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"power": {"p_ref_db": NaN}}')
    with pytest.raises(ConfigError, match="power.p_ref_db must be finite"):
        load_config(path)


@pytest.mark.parametrize("section, key, value, message", [
    ("channel", "gamma_s_db", "10", "must be a number"),
    ("channel", "gamma_s_db", None, "must be a number, got null"),
    ("channel", "beta_sp", "0.5", "must be a number"),
    ("solver", "epsilon", [1], "must be a number"),
    ("state_grids", "n_power_levels", 4.5, "must be an integer"),
    ("solver", "max_iters", "2000", "must be an integer"),
    ("state_grids", "rho_p_levels", 0.1, "must be a list of numbers"),
    ("state_grids", "rho_p_levels", [0.1, "0.5"], r"\[1\] must be a number"),
    ("sweep", "grid", {"a": 1}, "must be a list of numbers"),
    ("solver", "mode", 3, "must be a string"),
    ("solver", "reward_uses_chosen_action", 1, "must be a boolean"),
])
def test_values_of_the_wrong_kind_are_rejected_with_their_path(section, key, value,
                                                                message):
    with pytest.raises(ConfigError, match=f"{section}.{key}.*{message}"):
        load_config({section: {key: value}})


def test_slots_take_every_value_of_their_kind():
    cfg = load_config({
        "channel": {"gamma_s_db": 10, "beta_sp": 0.5},
        "state_grids": {"n_power_levels": 3.0, "rho_p_levels": [0, 0.5],
                        "p_s_levels": None},
        "solver": {"max_iters": 50, "pinned_pd": None},
        "sim": {"pi1": None},
        "sweep": {"grid": [], "variable": "ic"},
    })
    assert cfg["channel"]["gamma_s_db"] == 10
    assert resolve_config(cfg).state_grids().p_s_levels == \
        truncated_exponential_levels(10.0 ** 0.5, 10.0 ** 0.5, 3)[0]


@pytest.mark.parametrize("path", sorted(_BOUNDS))
def test_bounded_slots_take_their_bounds_and_name_the_key_past_them(path):
    section, key = path.split(".")
    low, high = _BOUNDS[path]
    for bound, past in ((low, low - 1), (high, high + 1)):
        if bound == math.inf:       # the costs have no upper bound
            continue
        assert load_config({section: {key: bound}})[section][key] == bound
        with pytest.raises(ConfigError, match=re.escape(
                f"config key {path} must lie within [{low}, {high}], got {past}")):
            load_config({section: {key: past}})


def test_every_null_default_names_what_it_reads():
    nulls = {f"{section}.{key}" for section, body in DEFAULT_CONFIG.items()
             for key, value in body.items() if value is None}
    assert nulls <= set(_NULLABLE)
    for path, kind in _NULLABLE.items():
        section, key = path.split(".")
        default = DEFAULT_CONFIG[section][key]
        assert default is None or isinstance(default, kind)
