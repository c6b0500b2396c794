"""Energy-detector operating characteristic for the sensing interval.

For an energy detector integrating n complex samples at sensing SNR
gamma_se, fixing the detection probability pd determines the false-alarm
probability and the decision threshold in closed form:

    pf  = Q( Qinv(pd) * sqrt(2*gamma_se + 1) + sqrt(n) * gamma_se )
    eta = Qinv(pd) * sqrt((2*gamma_se + 1) / n) + gamma_se + 1

where Q is the Gaussian tail function and the threshold eta is in units of
the noise power.  Boundary values pd = 0 and pd = 1 map to pf = 0 and
pf = 1 by convention (a detector that never or always fires needs no
threshold margin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

_STANDARD_NORMAL = NormalDist()


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def q_inverse(p: float) -> float:
    """Inverse of the Gaussian tail function on the open interval (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse requires 0 < p < 1, got {p}")
    return -_STANDARD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class SensingConfig:
    """Detector operating point: sensing SNR, duration and sampling rate.

    The integration length is n_samples = round(tau * f_s), floored at one
    sample so a short sensing interval still yields a usable detector.
    """

    gamma_se: float
    tau: float
    f_s: float = 1e6

    def __post_init__(self) -> None:
        if self.gamma_se <= 0.0:
            raise ValueError(f"gamma_se must be positive, got {self.gamma_se}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.f_s <= 0.0:
            raise ValueError(f"f_s must be positive, got {self.f_s}")

    @property
    def n_samples(self) -> int:
        return max(1, round(self.tau * self.f_s))


def false_alarm_from_detection(pd: float, cfg: SensingConfig) -> float:
    """False-alarm probability of the detector pinned at detection level pd."""
    if not 0.0 <= pd <= 1.0:
        raise ValueError(f"pd must be a probability in [0, 1], got {pd}")
    if pd == 0.0:
        return 0.0
    if pd == 1.0:
        return 1.0
    arg = q_inverse(pd) * math.sqrt(2.0 * cfg.gamma_se + 1.0) + math.sqrt(cfg.n_samples) * cfg.gamma_se
    pf = q_function(arg)
    return min(1.0, max(0.0, pf))


def threshold_from_detection(pd: float, cfg: SensingConfig) -> float:
    """Energy threshold, in units of the noise power, that achieves pd."""
    if not 0.0 < pd < 1.0:
        raise ValueError(f"threshold is defined for 0 < pd < 1, got {pd}")
    scale = math.sqrt((2.0 * cfg.gamma_se + 1.0) / cfg.n_samples)
    return q_inverse(pd) * scale + cfg.gamma_se + 1.0


def detection_from_threshold(eta: float, cfg: SensingConfig) -> float:
    """Detection probability achieved by energy threshold eta, in units of
    the noise power (inverse map)."""
    if eta <= 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    scale = math.sqrt((2.0 * cfg.gamma_se + 1.0) / cfg.n_samples)
    arg = (eta - cfg.gamma_se - 1.0) / scale
    return q_function(arg)
