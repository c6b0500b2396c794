"""Solve the default joint control problem and inspect the policy.

Builds the full 92,400-state model (queue occupancies, power level, previous
action), runs value iteration over all 231 (pd, ic) pairs, and prints a few
rows of the resulting lookup table. With the default sensing and interference
penalties the controller settles on the cheapest action everywhere; dropping
the penalties shows it spreading over the grid to chase throughput.
"""

import time

import numpy as np

from cogrelay import CostModel, build_spectrum_mdp, resolve_config, value_iteration
from cogrelay.solver import LOOKUP_COLUMNS, extract_lookup_table

rc = resolve_config(None)


def solve(costs):
    mdp = build_spectrum_mdp(rc.grids(), rc.model_params(), costs)
    t0 = time.perf_counter()
    vt, policy = value_iteration(mdp, rc.solver_config())
    print(f"converged: {vt.converged} after {vt.iterations} iterations "
          f"({time.perf_counter() - t0:.1f}s), "
          f"final residual {vt.final_residual:.2e}")
    return mdp, vt, policy


def pd_histogram(mdp, policy):
    """Number of (rho_p, rho_s, P_s) blocks per chosen pd level."""
    pd_i, _ = np.unravel_index(policy.actions, mdp.grids.shape[3:])
    counts = np.bincount(pd_i, minlength=len(mdp.grids.actions.pd_levels))
    return "  ".join(f"{lvl:3.1f}:{n:d}"
                     for lvl, n in zip(mdp.grids.actions.pd_levels, counts))


print(f"default costs (sensing {rc.costs().s_const}, "
      f"interference {rc.costs().c_const})")
mdp, vt, policy = solve(rc.costs())
print(f"states: {mdp.n_states}, actions: {mdp.n_actions}")

rows = extract_lookup_table(mdp, vt, policy)
print()
print("  ".join(f"{c:>7}" for c in LOOKUP_COLUMNS))
rng = np.random.default_rng(11)
for i in sorted(rng.choice(mdp.n_states, size=8, replace=False)):
    print("  ".join(f"{v:7.3f}" for v in rows[i]))

print()
print("chosen pd histogram (blocks):", pd_histogram(mdp, policy))

print()
print("zero costs (pure throughput)")
mdp0, vt0, policy0 = solve(CostModel(0.0, 0.0))
print("chosen pd histogram (blocks):", pd_histogram(mdp0, policy0))
