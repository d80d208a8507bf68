"""Mean transverse-spin signals of the coupled pair.

The normalized signal F(tau) = sum_n |C_n|^2 exp(i tau n / S) depends only on
the level populations of the spectator spin; tau = J t throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import SpinMagnitude, _float_or_array, _ladder, signed_cos_pow
from .state_prep import SingleSpinState

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class SpectralWeights:
    """Level populations |C_m|^2 in k-index order; non-negative, sum 1."""

    s: SpinMagnitude
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.s.d,):
            raise ValueError(f"expected {self.s.d} weights, got shape {w.shape}")
        if np.any(w < 0.0):
            raise ValueError("weights must be non-negative")
        total = float(np.sum(w))
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_state(cls, state: SingleSpinState) -> SpectralWeights:
        return cls(state.s, np.abs(state.amps) ** 2)


def f_general(w: SpectralWeights, tau: float) -> complex:
    """Dephasing signal sum_n w_n exp(i tau n / S) for arbitrary weights."""
    phi = (tau / w.s.two_s) * w.s.two_m_values()
    re = math.fsum(w.weights * np.cos(phi))
    im = math.fsum(w.weights * np.sin(phi))
    return complex(re, im)


def denom_s1_plus(psi: SingleSpinState) -> complex:
    """Initial raising expectation <psi|S+|psi> = sum_m C*_m C_{m-1} sqrt((S-m+1)(S+m))."""
    lv = _ladder(psi.s.two_s, psi.s.two_m_values()[1:])
    terms = np.conj(psi.amps[1:]) * psi.amps[:-1] * lv
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def mean_s1x(psi1: SingleSpinState, psi2: SingleSpinState, tau: float) -> float:
    """Unnormalized transverse signal Re[F(tau) <S1+>_0] at tau = J t.

    Spin 2's level populations set the dephasing spectrum; spin 1 supplies
    the initial raising expectation.
    """
    if psi1.s != psi2.s:
        raise ValueError("both states must share the same spin magnitude")
    f = f_general(SpectralWeights.from_state(psi2), tau)
    return float((f * denom_s1_plus(psi1)).real)


def f_coherent(s: SpinMagnitude, tau: float | np.ndarray) -> float | np.ndarray:
    """Closed-form signal for the coherent state: cos(tau / 2S) ** 2S; tau may be an array."""
    if s.two_s < 1:
        raise ValueError("signal needs two_s >= 1")
    return signed_cos_pow(np.asarray(tau, dtype=np.float64) / s.two_s, s.two_s)


def f_uniform(s: SpinMagnitude, tau: float | np.ndarray) -> float | np.ndarray:
    """Closed-form signal for the uniform state: sin((2S+1) x) / (d sin x), x = tau / 2S.

    The removable singularities at x = k pi are evaluated by their Dirichlet
    limit: unit magnitude, sign (-1)^(k (d-1)).  tau may be an array.
    """
    if s.two_s < 1:
        raise ValueError("signal needs two_s >= 1")
    d = s.d
    x = np.asarray(tau, dtype=np.float64) / s.two_s
    sin_x = np.sin(x)
    k = np.round(x / math.pi)
    delta = x - k * math.pi
    sign = np.where((s.two_s % 2 == 1) & (k % 2 == 1), -1.0, 1.0)
    dd = float(d * d - 1)
    # Dirichlet-kernel limit with a 3-term Taylor tail in delta
    near = sign * (1.0 - dd * delta**2 / 6.0 + dd * (3.0 * d * d - 7.0) * delta**4 / 360.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = np.sin(d * x) / (d * sin_x)
    return _float_or_array(np.where(np.abs(sin_x) < 1e-8, near, far))


def f_gaussian_approx(s: SpinMagnitude, tau: float | np.ndarray) -> float | np.ndarray:
    """Large-S Gaussian envelope exp(-tau^2 / 4S) of the coherent signal; tau may be an array."""
    if s.two_s < 1:
        raise ValueError("signal needs two_s >= 1")
    tau = np.asarray(tau, dtype=np.float64)
    return _float_or_array(np.exp(-tau * tau / (2.0 * s.two_s)))


def f_sinc_approx(tau: float | np.ndarray) -> float | np.ndarray:
    """Large-S limit sin(tau) / tau of the uniform signal; tau may be an array."""
    tau = np.asarray(tau, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = np.sin(tau) / tau
    return _float_or_array(np.where(np.abs(tau) < 1e-8, 1.0 - tau * tau / 6.0, far))
