"""Today's answers as a gate: every command's default outputs, digested.

One test runs, in this process, `solve` at the default and at zero costs,
`sweep pd`, `sweep ic` and `sweep pav` at `--threads` 1 and 2, and
`simulate --seed 7`, each on the default configuration otherwise; then
`solve` under `fixed_pd` 0.5 with the chosen-action reward and under
`fixed_ic` -5 dB at s = c = 0.1, and `sweep pav` at `--threads` 1 and 2
with the chosen-action reward.  Each
CSV's data rows (the lines after the manifest and the header) must hash to
the SHA-256 recorded in RECORDED, its header must read as recorded, and its
manifest is checked apart, key by key, so a new manifest field needs a new
entry there and no new data digest.

The digests hold on x86-64 (Linux, CPython 3.11) with numpy 2.4.6, whose
einsum and the banded eliminations round without fused multiply-add.  A
mismatch on another build means its arithmetic rounds differently: that is
an alarm to look into, not a digest to re-record.  A change that moves an
answer on purpose re-records the digests (`python tests/test_digests.py`
prints the table) and says why.
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path
from pprint import pprint

import cogrelay.cli as cli
from cogrelay.config import config_hash

# (recorded entry, argv after the command's --out, config document or None);
# a sweep's runs at --threads 1 and 2 share one entry
RUNS = [
    ("solve", ["solve"], None),
    ("solve_zero_costs", ["solve"], {"costs": {"s_const": 0.0, "c_const": 0.0}}),
    *((f"sweep_{variable}", ["sweep", "--threads", str(threads)],
       {"sweep": {"variable": variable}})
      for variable in ("pd", "ic", "pav") for threads in (1, 2)),
    ("simulate", ["simulate", "--seed", "7"], None),
    # the pinned modes and the chosen-action reward, whose solves restrict
    # the operator and read the reward vector
    ("solve_fixed_pd_chosen", ["solve"],
     {"solver": {"mode": "fixed_pd", "pinned_pd": 0.5, "reward_uses_chosen_action": True}}),
    ("solve_fixed_ic", ["solve"],
     {"solver": {"mode": "fixed_ic", "pinned_ic_db": -5.0},
      "costs": {"s_const": 0.1, "c_const": 0.1}}),
    *(("sweep_pav_chosen", ["sweep", "--threads", str(threads)],
       {"sweep": {"variable": "pav"}, "solver": {"reward_uses_chosen_action": True}})
      for threads in (1, 2)),
]

RECORDED_PLATFORM = "x86_64, numpy 2.4.6"


def observed(tmp: Path) -> list[tuple[str, dict[str, object]]]:
    """For each run and each CSV it writes, ("entry/name", facts): the header,
    the SHA-256 of the data rows and the manifest without its config, whose
    hash must match `config_sha256`.  A run that also writes manifest.json
    must write the CSV's manifest there."""
    facts = []
    for i, (entry, argv, doc) in enumerate(RUNS):
        out = tmp / str(i)
        if doc is not None:
            cfg = tmp / f"{i}.json"
            cfg.write_text(json.dumps(doc))
            argv = argv + ["--config", str(cfg)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv[:1] + ["--out", str(out)] + argv[1:])
        assert code == 0, (entry, code)
        for path in sorted(out.glob("*.csv")):
            manifest_line, header, data = path.read_bytes().split(b"\n", 2)
            manifest = json.loads(manifest_line[2:])
            assert config_hash(manifest.pop("config")) == manifest["config_sha256"], path
            side = out / "manifest.json"
            if side.exists():
                assert json.loads(side.read_text()) == json.loads(manifest_line[2:]), side
            facts.append((f"{entry}/{path.name}", {
                "header": header.decode(),
                "data_sha256": hashlib.sha256(data).hexdigest(),
                "manifest": manifest,
            }))
    return facts


RECORDED = {
    "simulate/simulate.csv": {
        "header": "metric,estimate,se,analytical,z",
        "data_sha256": "d01059c59aba5448f815c97adc2d42f12336b1ddeff7fc78ca96938582ae37bc",
        "manifest": {
            "command": "simulate",
            "config_sha256": "faa4bc13261b3078a1e5b20e7aacb246417e31bb9054da6645be633b6cd0504e",
            "n_slots": 1000000,
            "seed": 7,
        },
    },
    "solve/lookup.csv": {
        "header": "rho_p,rho_s,p_s,prev_pd,prev_ic,opt_pd,opt_ic,value",
        "data_sha256": "7e1c6865772c60ef63bb5701a1a9cd355ad1f000ef5403e534d742a406897632",
        "manifest": {
            "action_histogram": {"pd=0.0,ic_db=-15.0": 400},
            "active_actions": 1,
            "command": "solve",
            "config_sha256": "72b64c1299123806303cd5f3e6b84e2e58057ec8cb205df0c845100724b98303",
            "converged": True,
            "distinct_actions": 1,
            "error_bound": 4.8709841993677076e-05,
            "final_residual": 9.940784080342269e-07,
            "first_residual": 2.3829728937824184,
            "iterations": 534,
            "mode": "joint",
            "rows": 92400,
        },
    },
    "solve_fixed_ic/lookup.csv": {
        "header": "rho_p,rho_s,p_s,prev_pd,prev_ic,opt_pd,opt_ic,value",
        "data_sha256": "97735b49680392037dcbcdaf9df77e0ba87027ce7f4f90b8574f988a25d06cf6",
        "manifest": {
            "action_histogram": {
                "pd=0.0,ic_db=-5.0": 217,
                "pd=0.1,ic_db=-5.0": 6,
                "pd=0.2,ic_db=-5.0": 2,
                "pd=0.3,ic_db=-5.0": 3,
                "pd=0.5,ic_db=-5.0": 3,
                "pd=0.6,ic_db=-5.0": 3,
                "pd=0.7,ic_db=-5.0": 11,
                "pd=0.8,ic_db=-5.0": 6,
                "pd=0.9,ic_db=-5.0": 12,
                "pd=1.0,ic_db=-5.0": 137,
            },
            "active_actions": 10,
            "command": "solve",
            "config_sha256": "fc0e2d47ebf6374e7b3d17c1bcf297ebd63e3fb36039bd7ce8b86665410d0903",
            "converged": True,
            "distinct_actions": 10,
            "error_bound": 4.811272883209479e-05,
            "final_residual": 9.818924251447925e-07,
            "first_residual": 0.48198194137297695,
            "iterations": 540,
            "mode": "fixed_ic",
            "rows": 92400,
        },
    },
    "solve_fixed_pd_chosen/lookup.csv": {
        "header": "rho_p,rho_s,p_s,prev_pd,prev_ic,opt_pd,opt_ic,value",
        "data_sha256": "510b3fd1ccda5d819395b263c151e1f473fb81cba084d055f18c7aa8a6020bfa",
        "manifest": {
            "action_histogram": {
                "pd=0.5,ic_db=-10.0": 4,
                "pd=0.5,ic_db=-12.0": 4,
                "pd=0.5,ic_db=-15.0": 8,
                "pd=0.5,ic_db=-4.0": 8,
                "pd=0.5,ic_db=-5.0": 4,
                "pd=0.5,ic_db=-6.0": 4,
                "pd=0.5,ic_db=-7.0": 8,
                "pd=0.5,ic_db=-8.0": 4,
                "pd=0.5,ic_db=4.0": 8,
                "pd=0.5,ic_db=5.0": 348,
            },
            "active_actions": 10,
            "command": "solve",
            "config_sha256": "aa8dc66c0c91a9532721048f6f8ae795d3ebf1828e22f7763ff967f1e955f25f",
            "converged": True,
            "distinct_actions": 10,
            "error_bound": 4.8636333239926396e-05,
            "final_residual": 9.92578229386254e-07,
            "first_residual": 1.9780951152264858,
            "iterations": 677,
            "mode": "fixed_pd",
            "rows": 92400,
        },
    },
    "solve_zero_costs/lookup.csv": {
        "header": "rho_p,rho_s,p_s,prev_pd,prev_ic,opt_pd,opt_ic,value",
        "data_sha256": "f701776afe9fb66959f9a6565d8eec38cfaa0e611ad601ee1abe702ce297b61d",
        "manifest": {
            "action_histogram": {
                "pd=0.0,ic_db=-15.0": 60,
                "pd=0.1,ic_db=5.0": 4,
                "pd=0.3,ic_db=5.0": 4,
                "pd=0.4,ic_db=5.0": 16,
                "pd=1.0,ic_db=5.0": 316,
            },
            "active_actions": 25,
            "command": "solve",
            "config_sha256": "08c4fd6fa24856505590a352acf732b56e012ac4041d3ec7750e5d8d95cfed74",
            "converged": True,
            "distinct_actions": 5,
            "error_bound": 4.8340382702960435e-05,
            "final_residual": 9.865384225093976e-07,
            "first_residual": 0.38193967226158604,
            "iterations": 605,
            "mode": "joint",
            "rows": 92400,
        },
    },
    "sweep_ic/sweep_ic.csv": {
        "header": "ic_db,pd,rho_p,J",
        "data_sha256": "db7e016a13a3648f42765cb61e97cde1dde2d2ee75d7d487e7dd1cf7803551c6",
        "manifest": {
            "command": "sweep",
            "config_sha256": "0e9b19763ceb18f2e97573af720346b7ee0a5f9ba109767f758d84220901a850",
            "converged": True,
            "points": 84,
            "variable": "ic",
            "worst_relative_residual": 1.7095556600189238e-14,
        },
    },
    "sweep_pav/sweep_pav.csv": {
        "header": "pav_db,argmax_pd,argmax_ic_db",
        "data_sha256": "f195e220e5c2625a2b0da05b13c07a6c7f344cd35babe0ab10f3a358e57e6fb9",
        "manifest": {
            "command": "sweep",
            "config_sha256": "18bdffbc54b08998bfaaedf85f8d9cf8e5145b4aede882f88a6b5ba46f86da07",
            "converged": True,
            "points": 11,
            "variable": "pav",
        },
    },
    "sweep_pav_chosen/sweep_pav.csv": {
        "header": "pav_db,argmax_pd,argmax_ic_db",
        "data_sha256": "f195e220e5c2625a2b0da05b13c07a6c7f344cd35babe0ab10f3a358e57e6fb9",
        "manifest": {
            "command": "sweep",
            "config_sha256": "260120734d13b48242bfafcaab9d4ffe4081a8cc9875517001a5c19144951876",
            "converged": True,
            "points": 11,
            "variable": "pav",
        },
    },
    "sweep_pd/sweep_pd.csv": {
        "header": "pd,ic_db,rho_p,J",
        "data_sha256": "ad7cdba114c39694be1a103dc25a296f73eedf1c18bc2413501d074b5b9a7af4",
        "manifest": {
            "command": "sweep",
            "config_sha256": "72b64c1299123806303cd5f3e6b84e2e58057ec8cb205df0c845100724b98303",
            "converged": True,
            "points": 66,
            "variable": "pd",
            "worst_relative_residual": 1.6037364918736732e-14,
        },
    },
}


def test_every_command_keeps_its_recorded_outputs(tmp_path):
    facts = observed(tmp_path)
    where = f"recorded on {RECORDED_PLATFORM}; this is {platform.machine()}"
    assert {name for name, _ in facts} == set(RECORDED), where
    for name, got in facts:
        want = RECORDED[name]
        assert got["header"] == want["header"], (name, where)
        for key in sorted(set(got["manifest"]) | set(want["manifest"])):
            assert got["manifest"].get(key) == want["manifest"].get(key), (name, key, where)
        assert got["data_sha256"] == want["data_sha256"], (name, where)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pprint(dict(observed(Path(tmp))), width=100)
