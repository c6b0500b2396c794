"""Closed-form throughput model for a sensing-based spectrum-sharing link pair.

A secondary transmitter senses the primary user's channel at the start of
each slot and transmits with full power when the channel is declared idle,
or with an interference-constrained power when it is declared busy.  On top
of its own traffic the secondary relays primary packets whenever the direct
primary link is in outage.  All links are Rayleigh block-fading, so every
success probability is an exponential in (cut-off / mean SNR).

The four sensing outcomes are indexed by two bits: the true channel state
(0 idle / 1 busy) followed by the sensing decision (0 idle / 1 busy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


def db_to_linear(x_db: float) -> float:
    """Convert a dB power ratio to linear scale."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a linear power ratio to dB."""
    if x <= 0.0:
        raise ValueError(f"dB conversion requires a positive value, got {x}")
    return 10.0 * math.log10(x)


class SensingOutcome(Enum):
    """Joint (true state, sensing decision) outcome of one sensing interval."""

    NO_FALSE_ALARM = "00"   # idle, declared idle: full-power transmission
    FALSE_ALARM = "01"      # idle, declared busy: constrained transmission
    MISSED_DETECTION = "10"  # busy, declared idle: full power, interfered
    DETECTION = "11"        # busy, declared busy: constrained, interfered

    @property
    def primary_busy(self) -> bool:
        return self.value[0] == "1"

    @property
    def declared_busy(self) -> bool:
        return self.value[1] == "1"


OUTCOME_ORDER = (
    SensingOutcome.FALSE_ALARM,
    SensingOutcome.NO_FALSE_ALARM,
    SensingOutcome.MISSED_DETECTION,
    SensingOutcome.DETECTION,
)
"""Canonical ordering of outcome probabilities used throughout the package."""


@dataclass(frozen=True)
class ChannelParams:
    """Mean SNRs and outage cut-offs of the four links.

    gamma_s   mean SNR, secondary Tx -> secondary Rx
    gamma_p   mean SNR, primary Tx -> primary Rx
    gamma_sp  mean SNR, secondary Tx -> primary Rx (relay / interference path)
    gamma_ps  mean interference-to-noise ratio, primary Tx -> secondary Rx
    beta_s    cut-off SNR for full-power secondary transmission
    beta_sp   cut-off SNR for constrained secondary transmission
    beta_p    cut-off SNR for the primary link
    """

    gamma_s: float
    gamma_p: float
    gamma_sp: float
    gamma_ps: float
    beta_s: float
    beta_sp: float
    beta_p: float

    def __post_init__(self) -> None:
        for name in ("gamma_s", "gamma_p", "gamma_sp"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.gamma_ps < 0.0:
            raise ValueError(f"gamma_ps must be non-negative, got {self.gamma_ps}")
        for name in ("beta_s", "beta_sp", "beta_p"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


@dataclass(frozen=True)
class QueueParams:
    """Arrival rates and service capacities of the three queues (packets/slot).

    Arrivals are Bernoulli per slot, so every lambda must lie in [0, 1].
    The ratio lambda / mu_max is the utilisation that weights the throughput
    formulas; lambda above mu_max would make it exceed 1 and is rejected
    outright, while the saturated boundary lambda = mu_max (a queue that is
    always backlogged) stays constructible.  Strict stability is checked by
    the validation layer, which reports rather than raises.
    """

    lambda_s: float
    mu_s_max: float
    lambda_p: float = 0.0
    mu_p_max: float = 1.0
    lambda_ps: float = 0.0
    mu_ps_max: float = 1.0

    def __post_init__(self) -> None:
        for lam_name, mu_name in (
            ("lambda_s", "mu_s_max"),
            ("lambda_p", "mu_p_max"),
            ("lambda_ps", "mu_ps_max"),
        ):
            lam = getattr(self, lam_name)
            mu = getattr(self, mu_name)
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"{lam_name} must be a per-slot probability in [0, 1], got {lam}")
            if mu <= 0.0:
                raise ValueError(f"{mu_name} must be positive, got {mu}")
            if lam > mu:
                raise ValueError(
                    f"unstable queue (constraint 1): {lam_name}={lam} "
                    f"must not exceed {mu_name}={mu}"
                )

    @property
    def rho_s(self) -> float:
        return self.lambda_s / self.mu_s_max

    @property
    def rho_p(self) -> float:
        return self.lambda_p / self.mu_p_max

    @property
    def rho_ps(self) -> float:
        return self.lambda_ps / self.mu_ps_max


@dataclass(frozen=True)
class SensingTiming:
    """Split of one slot of length t_frame into sensing (tau) and data."""

    tau: float
    t_frame: float

    def __post_init__(self) -> None:
        if self.t_frame <= 0.0:
            raise ValueError(f"t_frame must be positive, got {self.t_frame}")
        if not 0.0 <= self.tau < self.t_frame:
            raise ValueError(
                f"tau must satisfy 0 <= tau < t_frame, got tau={self.tau}, t_frame={self.t_frame}"
            )

    @property
    def data_fraction(self) -> float:
        """Fraction of the slot left for data transmission."""
        return (self.t_frame - self.tau) / self.t_frame


def success_probability(beta: float, gamma: float, gamma_interf: float = 0.0) -> float:
    """Probability that a Rayleigh link clears its cut-off.

    With exponentially distributed instantaneous SNR of mean ``gamma`` and a
    constant interferer of mean INR ``gamma_interf``, the packet survives when
    the fade exceeds beta * (1 + gamma_interf), i.e. with probability
    exp(-beta * (1 + gamma_interf) / gamma).
    """
    if beta < 0.0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if gamma_interf < 0.0:
        raise ValueError(f"gamma_interf must be non-negative, got {gamma_interf}")
    return math.exp(-beta * (1.0 + gamma_interf) / gamma)


def _check_probs(pf: float, pd: float, pi1: float) -> None:
    for name, val in (("pf", pf), ("pd", pd), ("pi1", pi1)):
        if not 0.0 <= val <= 1.0:
            raise ValueError(f"{name} must be a probability in [0, 1], got {val}")


def _branch_rate(
    outcome: SensingOutcome, pf: float, pd: float, pi1: float, ch: ChannelParams,
    gamma: float,
) -> float:
    """Outcome probability times the success probability of a link of mean SNR gamma.

    Declared-idle outcomes use the full-power cut-off beta_s, declared-busy
    outcomes the constrained cut-off beta_sp; busy outcomes additionally
    suffer the primary's interference at the receiving end.
    """
    _check_probs(pf, pd, pi1)
    busy = outcome.primary_busy
    p_declared = pd if busy else pf
    weight = ((pi1 if busy else 1.0 - pi1)
              * (p_declared if outcome.declared_busy else 1.0 - p_declared))
    beta = ch.beta_sp if outcome.declared_busy else ch.beta_s
    interf = ch.gamma_ps if busy else 0.0
    return weight * success_probability(beta, gamma, interf)


def secondary_branch(
    outcome: SensingOutcome, pf: float, pd: float, pi1: float, ch: ChannelParams
) -> float:
    """Per-outcome secondary rate over the secondary link (own traffic).

    Returns the product of the outcome probability and the link success
    probability at the secondary receiver's mean SNR gamma_s.
    """
    return _branch_rate(outcome, pf, pd, pi1, ch, ch.gamma_s)


def relay_branch(
    outcome: SensingOutcome, pf: float, pd: float, pi1: float, ch: ChannelParams
) -> float:
    """Per-outcome relaying rate over the secondary-to-primary link.

    Same structure as :func:`secondary_branch` but the packet travels to the
    primary receiver, so the mean SNR is gamma_sp.
    """
    return _branch_rate(outcome, pf, pd, pi1, ch, ch.gamma_sp)


def secondary_throughput(
    branch_rate: float, timing: SensingTiming, q: QueueParams, ch: ChannelParams
) -> float:
    """Secondary own-traffic throughput for one sensing-outcome branch.

    The branch rate is discounted by the data fraction of the slot, the
    probability that the secondary queue is backlogged, and the probability
    that the primary link is *not* in outage (when it is, the secondary
    relays instead of serving its own queue).
    """
    if not 0.0 <= branch_rate <= 1.0:
        raise ValueError(f"branch_rate must lie in [0, 1], got {branch_rate}")
    no_outage = success_probability(ch.beta_p, ch.gamma_p)
    return timing.data_fraction * branch_rate * q.rho_s * no_outage


def primary_throughput(
    relay_rate: float, q: QueueParams, ch: ChannelParams, pi1: float
) -> float:
    """Primary throughput: direct deliveries plus relayed deliveries.

    The direct term is the probability that the primary transmits and its
    link survives the secondary's interference.  The relay term applies only
    when the direct link is in outage and the relay queue is backlogged.
    """
    if not 0.0 <= relay_rate <= 1.0:
        raise ValueError(f"relay_rate must lie in [0, 1], got {relay_rate}")
    if not 0.0 <= pi1 <= 1.0:
        raise ValueError(f"pi1 must be a probability in [0, 1], got {pi1}")
    direct = success_probability(ch.beta_p, ch.gamma_p, ch.gamma_sp) * pi1
    outage = 1.0 - success_probability(ch.beta_p, ch.gamma_p)
    return direct + relay_rate * q.rho_ps * outage
