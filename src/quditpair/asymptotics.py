"""Large-S asymptotics of the coherent-state squared I-concurrence."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import (
    SpinMagnitude,
    _float_or_array,
    central_binomial_weight,
    stirling_central_weight,
)

# largest two_s for which the non-decaying M = 0 weight is taken exactly
_EXACT_M0_LIMIT = 512


def erf(x: float | np.ndarray) -> float | np.ndarray:
    """Gauss error function, math.erf over each element; x may be an array.

    Array results are bitwise equal to scalar calls.
    """
    x = np.asarray(x, dtype=np.float64)
    values = np.fromiter(map(math.erf, x.ravel().tolist()), np.float64, count=x.size)
    return _float_or_array(values.reshape(x.shape))


def c2_coherent_asymptotic(s: SpinMagnitude, tau: float | np.ndarray) -> float | np.ndarray:
    """Smooth large-S envelope of the coherent-state C^2 at tau = J t.

    (2S+1)/(2S) [1 - (1 + tau^2)^(-1/2) (1 - erf sqrt((tau^2 + 1)/(8S))) - q]

    where q is the non-decaying central weight 2^(-4S) C(4S, 2S), taken
    exactly for two_s <= 512 and as 1/sqrt(2 pi S) beyond.  Valid for
    t much smaller than the recurrence time; the periodic revivals are
    deliberately absent.  tau may be an array.
    """
    if s.two_s < 2:
        raise ValueError("asymptotic form needs two_s >= 2")
    if s.two_s <= _EXACT_M0_LIMIT:
        m0 = central_binomial_weight(s.two_s)
    else:
        m0 = stirling_central_weight(s.two_s)
    tau = np.asarray(tau, dtype=np.float64)
    pref = (s.two_s + 1.0) / s.two_s
    g = 1.0 / np.sqrt(1.0 + tau * tau)
    tail = 1.0 - erf(np.sqrt((tau * tau + 1.0) / (4.0 * s.two_s)))
    return _float_or_array(pref * (1.0 - g * tail - m0))


@dataclass(frozen=True)
class MinimaConfig:
    """Echo-train truncation: Gaussian dips for M = 2 .. m_max, n = 1 .. M."""

    m_max: int = 4

    def __post_init__(self) -> None:
        if isinstance(self.m_max, bool) or not isinstance(self.m_max, int) or self.m_max < 2:
            raise ValueError(f"m_max must be an integer >= 2, got {self.m_max!r}")


def c2_coherent_asymptotic_minima(
    s: SpinMagnitude, tau: float | np.ndarray, cfg: MinimaConfig | None = None
) -> float | np.ndarray:
    """Asymptotic C^2 including the echo minima near tau = 2 pi S n / M.

    Subtracts from the smooth envelope a train of Gaussians

        (2S+1)/(2S) (2/sqrt(2 pi S)) sum_{M=2}^{m_max} sum_{n=1}^{M}
            exp{-(M^2/2S) [1 + (tau - 2 pi S n / M)^2]}

    so each predicted dip position shows a local minimum.  tau may be an
    array.
    """
    if cfg is None:
        cfg = MinimaConfig()
    if cfg.m_max > s.two_s:
        raise ValueError(f"m_max={cfg.m_max} exceeds 2S={s.two_s}")
    tau = np.asarray(tau, dtype=np.float64)
    base = c2_coherent_asymptotic(s, tau)
    train = np.zeros_like(tau)
    for m in range(2, cfg.m_max + 1):
        rate = m * m / float(s.two_s)  # M^2 / 2S
        for n in range(1, m + 1):
            center = math.pi * s.two_s * n / m  # 2 pi S n / M
            dist = tau - center
            train = train + np.exp(-rate * (1.0 + dist * dist))
    pref = (s.two_s + 1.0) / s.two_s
    return _float_or_array(base - pref * (2.0 / math.sqrt(math.pi * s.two_s)) * train)
