"""Sweep the pinned operating point: reward vs detection level per cap.

Pins the controller to one (pd, ic) pair at a time, evaluates the resulting
stationary policy exactly at a reference state, and sweeps pd for a few
interference caps; each curve is one model and one stacked exact solve.
The curves are unimodal: too little detection draws collisions and relay
duty, too much wastes idle slots. Raising the cap shifts the whole curve up
and moves the peak toward sharper detection.
"""

import numpy as np

from cogrelay import resolve_config
from cogrelay.cli import _pinned_values

rc = resolve_config(None)
scfg = rc.solver_config()
params = rc.model_params()
grids = rc.state_grids()
pd_levels = rc.action_grids().pd_levels
rho_p = 0.2

for ic_db in (-15.0, -5.0, 5.0):
    ic = 10.0 ** (ic_db / 10.0)
    curve, _ = _pinned_values(rc, params, grids, [(pd, ic, rho_p) for pd in pd_levels], scfg)
    best = int(np.argmax(curve))
    bar_unit = max(curve) / 40.0
    print(f"interference cap {ic_db:+.0f} dB (rho_p={rho_p})")
    for k, (pd, j) in enumerate(zip(pd_levels, curve)):
        mark = " <- peak" if k == best else ""
        print(f"  pd={pd:3.1f}  J={j:9.5f}  {'#' * int(j / bar_unit)}{mark}")
    print()
