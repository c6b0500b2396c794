"""Slot-level Monte-Carlo simulation of the sensing/relaying link pair.

The simulator draws, per slot: the primary's activity, the sensing decision,
one Rayleigh fade per link, and the backlog state of the secondary and relay
queues.  A single primary-link fade decides everything on that side: the
direct packet survives when the fade clears the interference-penalised
cut-off, and the slot is a relaying slot when the fade is below the plain
cut-off.  Secondary own traffic is served only outside relaying slots, which
is exactly the split the closed-form throughput expressions integrate over,
so the empirical averages here are an independent check of those formulas.

All indicator averages come with binomial standard errors, and a run is a
pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .mdp import ModelParams, sensing_outcome_distribution
from .sensing import false_alarm_from_detection

__all__ = [
    "Pi1Chain",
    "SimConfig",
    "SimStats",
    "ChiSquareCheck",
    "simulate",
    "outcome_frequency_check",
    "analytical_reference",
]

_CHUNK = 1 << 20

# 0.999 quantiles of the chi-square law at the only dof the outcome check can
# reach (four outcomes in at most two activity groups): the square of a
# normal quantile for one, an exponential of mean 2 for two
_CHI2_999 = {1: NormalDist().inv_cdf(0.9995) ** 2, 2: -2.0 * math.log(0.001)}


@dataclass(frozen=True)
class Pi1Chain:
    """Two-level Markov chain for the primary activity probability.

    Each slot the chain sits at one of two pi_1 levels; p_up is the chance of
    switching from the low level to the high one, p_down the reverse.
    """

    levels: tuple[float, float]
    p_up: float
    p_down: float

    def __post_init__(self) -> None:
        lo, hi = self.levels
        for v in (lo, hi):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"chain levels must be probabilities, got {self.levels}")
        for name, v in (("p_up", self.p_up), ("p_down", self.p_down)):
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")

    @property
    def stationary(self) -> tuple[float, float]:
        total = self.p_up + self.p_down
        return (self.p_down / total, self.p_up / total)

    @property
    def mean_pi1(self) -> float:
        w = self.stationary
        return w[0] * self.levels[0] + w[1] * self.levels[1]


@dataclass(frozen=True)
class SimConfig:
    """One reproducible Monte-Carlo run.

    pd fixes the detector operating point; pf defaults to the energy
    detector's false-alarm rate at that point and can be overridden to probe
    corner regimes.  pi1 defaults to the primary utilisation rho_p.  ic is
    carried along for reporting; the channel cut-offs in params already
    reflect whatever power constraint applies.
    """

    n_slots: int
    seed: int
    params: ModelParams
    pd: float
    ic: float | None = None
    pf: float | None = None
    pi1: float | None = None
    pi1_chain: Pi1Chain | None = None

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
        if self.pi1_chain is not None:
            return self.pi1_chain.mean_pi1
        if self.pi1 is not None:
            return self.pi1
        return self.params.queues.rho_p


@dataclass
class SimStats:
    """Empirical averages of one run, each with its standard error."""

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
    busy_frac: float
    qs_frac: float
    qps_frac: float
    slots_busy: int
    slots_direct_served: int
    slots_relayed_busy: int
    slots_busy_unserved: int
    slots_relayed_total: int
    counts: dict[str, int] = field(default_factory=dict)


def _se(successes: int, n: int) -> float:
    p = successes / n
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _chain_path(chain: Pi1Chain, n: int, rng: np.random.Generator) -> np.ndarray:
    """Level indices of the two-state chain, started from its stationary law.

    Sequential by nature; chunked callers restart each chunk from the
    stationary draw, which keeps every slot's marginal law exact.
    """
    u = rng.random(n)
    path = np.empty(n, dtype=np.int8)
    state = 1 if u[0] < chain.stationary[1] else 0
    path[0] = state
    for t in range(1, n):
        if state == 0:
            state = 1 if u[t] < chain.p_up else 0
        else:
            state = 0 if u[t] < chain.p_down else 1
        path[t] = state
    return path


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

    chain_levels = None
    if cfg.pi1_chain is not None:
        chain_levels = np.asarray(cfg.pi1_chain.levels)

    c = {k: 0 for k in (
        "busy", "qs", "qps", "own_delivered", "pu_delivered",
        "direct_served", "relayed_busy", "relayed_total")}
    n_outcome = np.zeros(4, dtype=np.int64)
    n_branch_s = np.zeros(4, dtype=np.int64)
    n_branch_ps = np.zeros(4, dtype=np.int64)

    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        if chain_levels is not None:
            pi1_arr = chain_levels[_chain_path(cfg.pi1_chain, m, rng)]
            busy = rng.random(m) < pi1_arr
        else:
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
        busy_frac=c["busy"] / n,
        qs_frac=c["qs"] / n,
        qps_frac=c["qps"] / n,
        slots_busy=c["busy"],
        slots_direct_served=c["direct_served"],
        slots_relayed_busy=c["relayed_busy"],
        slots_busy_unserved=c["busy"] - c["direct_served"] - c["relayed_busy"],
        slots_relayed_total=c["relayed_total"],
        counts=dict(c),
    )


@dataclass(frozen=True)
class ChiSquareCheck:
    """Goodness-of-fit of observed sensing outcomes, conditioned on activity."""

    statistic: float
    dof: int
    threshold: float
    passed: bool


def outcome_frequency_check(cfg: SimConfig, stats: SimStats | None = None) -> ChiSquareCheck:
    """Chi-square test of the sensing-outcome counts against their law.

    Conditions on the realised busy/idle split, so the expected counts are
    n_idle * (Pf, 1-Pf) and n_busy * (1-Pd, Pd); a detector with Pd=1, Pf=0
    is deterministic given the activity and must score exactly zero.
    """
    if cfg.n_slots < 10_000:
        raise ValueError(f"need at least 1e4 slots for a stable check, got {cfg.n_slots}")
    if cfg.pi1_chain is not None:
        raise ValueError("the conditional check assumes a constant pi1; "
                         "test chain runs against the stationary mix instead")
    if stats is None:
        stats = simulate(cfg)
    n_busy = stats.slots_busy
    n_idle = stats.n_slots - n_busy
    observed = stats.outcome_freq * stats.n_slots
    expected = np.array([
        n_idle * stats.pf, n_idle * (1.0 - stats.pf),
        n_busy * (1.0 - stats.pd), n_busy * stats.pd,
    ])

    live = expected > 0.0
    if np.any(~live & (observed > 0.5)):
        return ChiSquareCheck(statistic=math.inf, dof=0, threshold=0.0, passed=False)
    groups = int(n_idle > 0) + int(n_busy > 0)
    dof = int(live.sum()) - groups
    statistic = float(np.sum((observed[live] - expected[live]) ** 2 / expected[live]))
    if dof < 1:
        return ChiSquareCheck(statistic=statistic, dof=0, threshold=0.0,
                              passed=statistic <= 1e-9)
    threshold = _CHI2_999[dof]
    return ChiSquareCheck(statistic=statistic, dof=dof, threshold=threshold,
                          passed=statistic <= threshold)


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
