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

The tally takes one pass per chunk of slots.  Each slot's facts fold into
one 8-bit code: the sensing outcome (FA=0, NFA=1, MD=2, D=3) in bits 0-1,
and one bit each for the own-link and relay-link passes, the two queue
backlogs, the primary outage and the direct primary delivery.  One
`bincount` per chunk adds the codes to a 256-bin histogram, and every count
is then the sum of the bins whose codes satisfy its condition.

A run's result is its slot counts, `SimStats.counts`; `estimates` derives
every indicator average and its binomial standard error from them, and
`analytical_reference` gives each one's closed form under the same key.  A
run is a pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import np
from .mdp import ModelParams, sensing_outcome_distribution
from .model import (OUTCOME_ORDER, primary_throughput, relay_branch,
                    secondary_branch, secondary_throughput)
from .sensing import false_alarm_from_detection

__all__ = [
    "SimConfig",
    "SimStats",
    "simulate",
    "estimates",
    "analytical_reference",
    "z_score",
]

_CHUNK = 1 << 20

# flag bits of a slot code, above the outcome in bits 0-1
_OWN, _RELAY, _QS, _QPS, _OUTAGE, _DIRECT = 4, 8, 16, 32, 64, 128

# the sensing outcomes in OUTCOME_ORDER, as they appear in count and metric keys
_OUTCOME_LABELS = ("fa", "nfa", "md", "d")


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
    """The slot counts of one run of `n_slots` slots.

    `counts` holds "busy", "qs" and "qps" (primary active, secondary and
    relay queues backlogged), "own_delivered", "pu_delivered",
    "direct_served" (busy slots whose direct primary packet survived),
    "relayed_busy" / "relayed_total" (relay deliveries in busy / all slots),
    and for each sensing outcome o in fa, nfa, md, d: "outcome_<o>" (slots
    with that outcome) and "own_pass_<o>" / "relay_pass_<o>" (those whose
    own-link / relay-link fade cleared the outcome's cut-off).
    """

    n_slots: int
    counts: dict[str, int]


def _se(successes: int, n: int) -> float:
    p = successes / n
    return math.sqrt(p * (1.0 - p) / n)


def _fold(code: np.ndarray, flag: np.ndarray, bit: int) -> None:
    """Add the 0/1 slot flags to the slot codes as `bit` (overwrites flag)."""
    flag *= bit
    code += flag


def simulate(cfg: SimConfig) -> SimStats:
    """Run the slot simulation and aggregate indicator averages.

    The run goes in chunks of `_CHUNK` slots (the last one shorter).  Each
    chunk draws seven whole-chunk arrays from one PCG64(seed) generator, in
    this fixed order: activity, sensing decision, the two queue backlogs
    (secondary, relay), then the three link fades (secondary, relay,
    primary).  Identical configurations are therefore bit-identical, and
    `_CHUNK` and the draw order together fix every `simulate.csv`: changing
    either changes all outputs.
    """
    ch, q = cfg.params.channel, cfg.params.queues
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    n = cfg.n_slots
    pd, pf, pi1 = cfg.pd, cfg.resolved_pf, cfg.resolved_pi1

    # per-outcome cut-offs in OUTCOME_ORDER, each computed as the per-slot
    # expression beta(declared) * (1 + gamma_ps * busy) / gamma would compute it
    cutoff = [(ch.beta_sp if o.declared_busy else ch.beta_s)
              * (1.0 + ch.gamma_ps * float(o.primary_busy)) for o in OUTCOME_ORDER]
    declare_below = np.array([pf, pd])      # indexed by busy
    own_cut = np.array([c / ch.gamma_s for c in cutoff])
    relay_cut = np.array([c / ch.gamma_sp for c in cutoff])
    outage_below = ch.beta_p / ch.gamma_p
    direct_from = ch.beta_p * (1.0 + ch.gamma_sp) / ch.gamma_p

    size = min(n, _CHUNK)
    x_buf, cut_buf = np.empty(size), np.empty(size)
    flag_buf, outcome_buf, code_buf = (np.empty(size, np.uint8) for _ in range(3))
    hist = np.zeros(256, dtype=np.int64)

    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        x, cut = x_buf[:m], cut_buf[:m]
        flag, outcome, code = flag_buf[:m], outcome_buf[:m], code_buf[:m]

        rng.random(out=x)
        np.less(x, pi1, out=outcome)                    # busy
        rng.random(out=x)
        # every index is in range; "clip" skips take's costly bounds check
        np.take(declare_below, outcome, out=cut, mode="clip")
        np.less(x, cut, out=flag)                       # declared busy
        np.equal(outcome, flag, out=flag)               # declared as it is
        outcome *= 2
        outcome += flag                                 # FA=0, NFA=1, MD=2, D=3
        np.copyto(code, outcome)

        rng.random(out=x)
        _fold(code, np.less(x, q.rho_s, out=flag), _QS)
        rng.random(out=x)
        _fold(code, np.less(x, q.rho_ps, out=flag), _QPS)
        rng.standard_exponential(out=x)
        np.take(own_cut, outcome, out=cut, mode="clip")
        _fold(code, np.greater_equal(x, cut, out=flag), _OWN)
        rng.standard_exponential(out=x)
        np.take(relay_cut, outcome, out=cut, mode="clip")
        _fold(code, np.greater_equal(x, cut, out=flag), _RELAY)
        rng.standard_exponential(out=x)
        _fold(code, np.less(x, outage_below, out=flag), _OUTAGE)
        _fold(code, np.greater_equal(x, direct_from, out=flag), _DIRECT)

        hist += np.bincount(code, minlength=256)
        done += m

    # every tally is a sum of histogram bins over a mask of slot codes
    codes = np.arange(256)
    busy = codes & 2 > 0                # outcomes MD and D
    own, relay, qs, qps, outage, direct = (
        codes & bit > 0 for bit in (_OWN, _RELAY, _QS, _QPS, _OUTAGE, _DIRECT))
    direct_ok = busy & direct
    relay_delivered = outage & qps & relay
    c = {k: int(hist[mask].sum()) for k, mask in (
        ("busy", busy), ("qs", qs), ("qps", qps),
        ("own_delivered", ~outage & qs & own),
        ("pu_delivered", direct_ok | relay_delivered),
        ("direct_served", direct_ok),
        ("relayed_busy", relay_delivered & busy),
        ("relayed_total", relay_delivered))}
    by_outcome = hist.reshape(64, 4)    # rows: codes >> 2, columns: the outcome
    for name, rows in (("outcome", slice(None)), ("own_pass", own[::4]),
                       ("relay_pass", relay[::4])):
        c.update(zip([f"{name}_{o}" for o in _OUTCOME_LABELS],
                     by_outcome[rows].sum(axis=0).tolist()))
    return SimStats(n_slots=n, counts=c)


def estimates(cfg: SimConfig, stats: SimStats) -> dict[str, tuple[float, float]]:
    """(estimate, standard error) of every metric, in `simulate.csv` row order.

    Each estimate is a slot rate k / n of one count k: the throughputs
    "mu_s" (scaled by the data fraction of the frame) and "mu_p", then per
    outcome o the outcome frequency "outcome_<o>" and the own-link and
    relay-link branch rates "branch_mu_s_<o>" and "branch_mu_ps_<o>".
    """
    n, c = stats.n_slots, stats.counts
    rates = [("mu_s", cfg.params.timing.data_fraction, c["own_delivered"]),
             ("mu_p", 1.0, c["pu_delivered"])]
    rates += [(f"{metric}_{o}", 1.0, c[f"{count}_{o}"])
              for metric, count in (("outcome", "outcome"), ("branch_mu_s", "own_pass"),
                                    ("branch_mu_ps", "relay_pass"))
              for o in _OUTCOME_LABELS]
    return {m: (scale * k / n, scale * _se(k, n)) for m, scale, k in rates}


def analytical_reference(cfg: SimConfig) -> dict[str, float]:
    """Closed form of every `estimates` metric, under the same keys."""
    ch, q, timing = cfg.params.channel, cfg.params.queues, cfg.params.timing
    pd, pf, pi1 = cfg.pd, cfg.resolved_pf, cfg.resolved_pi1
    branch_s = np.array([secondary_branch(o, pf, pd, pi1, ch) for o in OUTCOME_ORDER])
    branch_ps = np.array([relay_branch(o, pf, pd, pi1, ch) for o in OUTCOME_ORDER])
    ref = {"mu_s": secondary_throughput(float(branch_s.sum()), timing, q, ch),
           "mu_p": primary_throughput(float(branch_ps.sum()), q, ch, pi1)}
    for metric, values in (("outcome", sensing_outcome_distribution(pi1, pd, pf)),
                           ("branch_mu_s", branch_s), ("branch_mu_ps", branch_ps)):
        ref.update(zip([f"{metric}_{o}" for o in _OUTCOME_LABELS], values.tolist()))
    return ref


def z_score(est: float, se: float, ref: float, n_slots: int) -> float:
    """(est - ref) / se, the signed distance of an estimate from its closed form.

    A constant sample (all hits or all misses, se = 0) still agrees with any
    rate the run could not resolve: zero successes in n slots is consistent
    with p up to about 3/n, so it scores 0 within 3/n of ref and inf beyond.
    """
    if se == 0.0:
        return 0.0 if abs(est - ref) <= 3.0 / n_slots else math.inf
    return (est - ref) / se
