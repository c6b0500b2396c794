"""Slot-level Monte-Carlo simulation of the sensing/relaying link pair.

The simulator draws, per slot: the primary's activity (busy with one fixed
probability pi_1 for the whole run), the sensing decision, one Rayleigh fade
per link, and the backlog state of the secondary and relay queues.  A
single primary-link fade decides everything on that side: the direct packet
survives when the fade clears the interference-penalised cut-off, and the
slot is a relaying slot when the fade is below the plain cut-off.
Secondary own traffic is served only outside relaying slots, which is
exactly the split the closed-form throughput expressions integrate over, so
the empirical averages here are an independent check of those formulas.

All indicator averages come with binomial standard errors, the slot counts
behind them stay in the one tally `SimStats.counts`, and a run is a pure
function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mdp import ModelParams, sensing_outcome_distribution
from .sensing import false_alarm_from_detection

__all__ = [
    "SimConfig",
    "SimStats",
    "simulate",
    "analytical_reference",
]

_CHUNK = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """One reproducible Monte-Carlo run.

    pd fixes the detector operating point; pf defaults to the energy
    detector's false-alarm rate at that point and can be overridden to probe
    corner regimes.  pi1 defaults to the primary utilisation rho_p.  The
    channel cut-offs in params already reflect whatever power constraint
    applies, so the run takes no interference cap of its own.
    """

    n_slots: int
    seed: int
    params: ModelParams
    pd: float
    pf: float | None = None
    pi1: float | None = None

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be at least 1, got {self.n_slots}")
        if not 0.0 <= self.pd <= 1.0:
            raise ValueError(f"pd must be a probability, got {self.pd}")
        if self.pf is not None and not 0.0 <= self.pf <= 1.0:
            raise ValueError(f"pf must be a probability, got {self.pf}")
        if self.pi1 is not None and not 0.0 <= self.pi1 <= 1.0:
            raise ValueError(f"pi1 must be a probability, got {self.pi1}")

    @property
    def resolved_pf(self) -> float:
        if self.pf is not None:
            return self.pf
        return false_alarm_from_detection(self.pd, self.params.sensing)

    @property
    def resolved_pi1(self) -> float:
        if self.pi1 is not None:
            return self.pi1
        return self.params.queues.rho_p


@dataclass
class SimStats:
    """Empirical averages of one run, each with its standard error.

    `counts` holds slot counts: "busy", "qs" and "qps" (primary active,
    secondary and relay queues backlogged), "own_delivered", "pu_delivered",
    "direct_served" (busy slots whose direct primary packet survived), and
    "relayed_busy" / "relayed_total" (relay deliveries in busy / all slots).
    """

    n_slots: int
    seed: int
    pd: float
    pf: float
    pi1: float
    mu_s: float
    mu_s_se: float
    mu_p: float
    mu_p_se: float
    outcome_freq: np.ndarray        # (4,) canonical order
    branch_mu_s: np.ndarray         # (4,) own-link branch rates
    branch_mu_s_se: np.ndarray
    branch_mu_ps: np.ndarray        # (4,) relay-link branch rates
    branch_mu_ps_se: np.ndarray
    counts: dict[str, int]


def _se(successes: int, n: int) -> float:
    p = successes / n
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def simulate(cfg: SimConfig) -> SimStats:
    """Run the slot simulation and aggregate indicator averages.

    Per slot and in this fixed draw order: activity, sensing decision, the
    two queue backlogs, then the three link fades (secondary, relay,
    primary), all from one seeded generator, so identical configurations are
    bit-identical.
    """
    q = cfg.params.queues
    for lam, mu, name in ((q.lambda_s, q.mu_s_max, "lambda_s"),
                          (q.lambda_p, q.mu_p_max, "lambda_p"),
                          (q.lambda_ps, q.mu_ps_max, "lambda_ps")):
        if lam > mu:
            raise ValueError(f"unstable queue (constraint 1): {name}={lam} exceeds {mu}")

    ch = cfg.params.channel
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.n_slots
    pd, pf = cfg.pd, cfg.resolved_pf
    rho_s, rho_ps = q.rho_s, q.rho_ps

    c = {k: 0 for k in (
        "busy", "qs", "qps", "own_delivered", "pu_delivered",
        "direct_served", "relayed_busy", "relayed_total")}
    n_outcome = np.zeros(4, dtype=np.int64)
    n_branch_s = np.zeros(4, dtype=np.int64)
    n_branch_ps = np.zeros(4, dtype=np.int64)

    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        busy = rng.random(m) < cfg.resolved_pi1
        declared = rng.random(m) < np.where(busy, pd, pf)
        qs = rng.random(m) < rho_s
        qps = rng.random(m) < rho_ps
        x_s = rng.exponential(1.0, m)
        x_sp = rng.exponential(1.0, m)
        x_p = rng.exponential(1.0, m)

        # canonical outcome order: FA=0, NFA=1, MD=2, D=3
        outcome = np.where(busy, np.where(declared, 3, 2), np.where(declared, 0, 1))
        cutoff = np.where(declared, ch.beta_sp, ch.beta_s) * (1.0 + ch.gamma_ps * busy)
        own_pass = x_s >= cutoff / ch.gamma_s
        relay_pass = x_sp >= cutoff / ch.gamma_sp

        outage = x_p < ch.beta_p / ch.gamma_p
        direct_ok = busy & (x_p >= ch.beta_p * (1.0 + ch.gamma_sp) / ch.gamma_p)
        relaying = outage & qps
        relay_delivered = relaying & relay_pass
        own_delivered = ~outage & qs & own_pass

        n_outcome += np.bincount(outcome, minlength=4)
        n_branch_s += np.bincount(outcome[own_pass], minlength=4)
        n_branch_ps += np.bincount(outcome[relay_pass], minlength=4)
        c["busy"] += int(busy.sum())
        c["qs"] += int(qs.sum())
        c["qps"] += int(qps.sum())
        c["own_delivered"] += int(own_delivered.sum())
        c["pu_delivered"] += int((direct_ok | relay_delivered).sum())
        c["direct_served"] += int(direct_ok.sum())
        c["relayed_busy"] += int((relay_delivered & busy).sum())
        c["relayed_total"] += int(relay_delivered.sum())
        done += m

    frame = cfg.params.timing.data_fraction
    return SimStats(
        n_slots=n, seed=cfg.seed, pd=pd, pf=pf, pi1=cfg.resolved_pi1,
        mu_s=frame * c["own_delivered"] / n,
        mu_s_se=frame * _se(c["own_delivered"], n),
        mu_p=c["pu_delivered"] / n,
        mu_p_se=_se(c["pu_delivered"], n),
        outcome_freq=n_outcome / n,
        branch_mu_s=n_branch_s / n,
        branch_mu_s_se=np.array([_se(int(k), n) for k in n_branch_s]),
        branch_mu_ps=n_branch_ps / n,
        branch_mu_ps_se=np.array([_se(int(k), n) for k in n_branch_ps]),
        counts=c,
    )


def analytical_reference(cfg: SimConfig) -> dict[str, float | np.ndarray]:
    """Closed-form companions of every SimStats estimate, for z-scoring."""
    from .model import (OUTCOME_ORDER, primary_throughput, relay_branch,
                        secondary_branch, secondary_throughput)

    ch, q, timing = cfg.params.channel, cfg.params.queues, cfg.params.timing
    pd, pf, pi1 = cfg.pd, cfg.resolved_pf, cfg.resolved_pi1
    branch_s = np.array([secondary_branch(o, pf, pd, pi1, ch) for o in OUTCOME_ORDER])
    branch_ps = np.array([relay_branch(o, pf, pd, pi1, ch) for o in OUTCOME_ORDER])
    return {
        "mu_s": secondary_throughput(float(branch_s.sum()), timing, q, ch),
        "mu_p": primary_throughput(float(branch_ps.sum()), q, ch, pi1),
        "outcome_freq": sensing_outcome_distribution(pi1, pd, pf),
        "branch_mu_s": branch_s,
        "branch_mu_ps": branch_ps,
    }
