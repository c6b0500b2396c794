"""Cross-check the slot simulator against the closed-form throughputs.

Runs a seeded 200k-slot simulation at a mixed operating point and compares
every metric of `simulate.csv` (the secondary and primary throughputs, the
sensing-outcome frequencies and the per-outcome branch rates) with its
analytical value, scored as the `simulate` command scores it. Everything
should land within a few standard errors; rerunning with the same seed
reproduces the numbers bit for bit.
"""

from cogrelay import SimConfig, analytical_reference, estimates, simulate
from cogrelay.config import resolve_config
from cogrelay.sim import z_score

params = resolve_config(None).model_params()
cfg = SimConfig(n_slots=200_000, seed=20250801, params=params, pd=0.8, pi1=0.4)

stats = simulate(cfg)
ref = analytical_reference(cfg)

print(f"{cfg.n_slots} slots, seed {cfg.seed}, pd={cfg.pd}, "
      f"pf={cfg.resolved_pf:.4f}, pi1={cfg.resolved_pi1}")
print()
print(f"{'metric':<16} {'simulated':>10} {'analytic':>10} {'z':>6}")
for metric, (est, se) in estimates(cfg, stats).items():
    z = z_score(est, se, ref[metric], cfg.n_slots)
    print(f"{metric:<16} {est:10.6f} {ref[metric]:10.6f} {z:6.2f}")

print()
print("slot accounting:", stats.counts)
