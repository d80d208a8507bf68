"""Spin-1 purity of the evolved pair and the squared I-concurrence.

C^2 = d/(d-1) (1 - Tr rho1^2).  Closed forms for the coherent and uniform
initial states are evaluated in log space so they remain finite and fast at
very large S.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .spin_core import LN2, SpinMagnitude, _float_or_array, central_binomial_weight, log_binomial
from .observables import SpectralWeights

PURITY_SLACK = 1e-9

_KINDS = ("coherent", "uniform")


def c_squared(purity_value: float | np.ndarray, d: int) -> float | np.ndarray:
    """Squared I-concurrence d/(d-1) (1 - purity), clipped into [0, 1].

    Purity slightly outside [1/d, 1] from rounding (within 1e-9) is clipped;
    anything further out is rejected.  ``purity_value`` may be an array, in
    which case every element is checked.
    """
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d!r}")
    lo = 1.0 / d
    p = np.asarray(purity_value, dtype=np.float64)
    outside = (p < lo - PURITY_SLACK) | (p > 1.0 + PURITY_SLACK)
    if np.any(outside):
        raise ValueError(f"purity {float(p[outside][0])!r} outside [{lo}, 1]")
    p = np.minimum(np.maximum(p, lo), 1.0)
    return _float_or_array(d * (1.0 - p) / (d - 1.0))


class _ClosedConstants(NamedTuple):
    """Per-spin constants of both closed-form purities; the arrays are read-only."""

    m_over_two_s: np.ndarray  # M / 2S for M = 1 .. 2S
    log_weights: np.ndarray  # ln[C(4S, 2S + M) 2^(-4S)]
    multiplicity: np.ndarray  # d - M
    central_weight: float  # 2^(-4S) C(4S, 2S)
    coherent_terms: int  # coherent terms summed: up to the last weight that is not 0.0


@functools.lru_cache(maxsize=1)
def _closed_constants(two_s: int) -> _ClosedConstants:
    # One entry: sweeps and figure columns call one spin for a block of taus
    # at a time, so a single entry hits on every call after the first.
    mm = np.arange(1, two_s + 1)
    four_s = 2 * two_s
    arrays = (mm / two_s, log_binomial(four_s, two_s + mm) - four_s * LN2, two_s + 1.0 - mm)
    for a in arrays:
        a.flags.writeable = False
    # the weights fall with M; past the last one that is not 0.0 in float64,
    # every coherent term is exactly 0.0
    coherent_terms = int(np.flatnonzero(np.exp(arrays[1]) > 0.0)[-1]) + 1
    return _ClosedConstants(*arrays, central_binomial_weight(two_s), coherent_terms)


def purity_coherent_closed(s: SpinMagnitude, tau: float) -> float:
    """Closed-form coherent-state purity.

    Tr rho1^2 = 2^(1-4S) sum_{M=1}^{2S} C(4S, 2S+M) cos(M tau / 2S)^(4S)
                + 2^(-4S) C(4S, 2S)

    evaluated with log-space binomials, so it never overflows.  Every term is
    non-negative (4S is even), so the pairwise sum is accurate to a few ulps
    relative.  Terms whose weight alone underflows to 0.0 (M beyond about
    sqrt(745 2S)) are 0.0 at every tau, since |cos| <= 1, and are skipped.
    """
    if s.two_s < 1:
        raise ValueError("purity needs two_s >= 1")
    const = _closed_constants(s.two_s)
    n = const.coherent_terms
    with np.errstate(divide="ignore"):
        log_cos = np.log(np.abs(np.cos(tau * const.m_over_two_s[:n])))
    # cos == 0 gives exp(-inf) = 0, which kills the term
    terms = np.exp(const.log_weights[:n] + (2 * s.two_s) * log_cos)
    return 2.0 * float(terms.sum()) + const.central_weight


def _fejer_ratio(y: np.ndarray, d: int) -> np.ndarray:
    # (1 - cos(d y)) / (1 - cos y) = [sin(d y / 2) / sin(y / 2)]^2, through the
    # reduced distance eps to the nearest y = 2 pi k.  sin(eps / 2) is zero only
    # at eps == 0 exactly, where the removable singularity takes its limit d^2;
    # anywhere else the quotient of sines is accurate however small eps is.
    k = np.round(y / (2.0 * math.pi))
    eps = y - 2.0 * math.pi * k
    den = np.sin(0.5 * eps)
    singular = den == 0.0
    ratio = (np.sin(0.5 * d * eps) / np.where(singular, 1.0, den)) ** 2
    return np.where(singular, float(d * d), ratio)


def purity_uniform_closed(s: SpinMagnitude, tau: float) -> float:
    """Closed-form uniform-state purity.

    Tr rho1^2 = (2/d^4) sum_{M=1}^{d-1} (d - M) (1 - cos(tau M d / S))
                / (1 - cos(tau M / S)) + 1/d

    with each ratio taken through its removable singularities.  The terms are
    non-negative, so the pairwise sum is accurate to a few ulps relative.
    """
    if s.two_s < 1:
        raise ValueError("purity needs two_s >= 1")
    d = s.d
    const = _closed_constants(s.two_s)
    y = (2.0 * tau) * const.m_over_two_s  # tau M / S
    terms = const.multiplicity * _fejer_ratio(y, d)
    return 2.0 * float(terms.sum()) / d**4 + 1.0 / d


class _SpectralGrid(NamedTuple):
    """Per-spin integer phase grid of the spectral purity; the array is read-only."""

    baby: int  # B = isqrt(d): level j = a B + b with 0 <= b < B
    giant: int  # A = ceil(d / B) giant steps
    steps: np.ndarray  # rows b M (b < B), then a B M (a < A), for M = 1 .. d-1


@functools.lru_cache(maxsize=1)
def _spectral_grid(two_s: int) -> _SpectralGrid:
    # One entry, as for _closed_constants: a column calls one spin at a time.
    d = two_s + 1
    baby = math.isqrt(d)
    giant = -(-d // baby)
    rows = np.concatenate((np.arange(baby), baby * np.arange(giant)))  # b, then a B
    steps = (rows[:, None] * np.arange(1, d)).astype(np.float64)  # exact integers below d^2
    steps.flags.writeable = False
    return _SpectralGrid(baby, giant, steps)


def purity_spectral(
    w1: SpectralWeights, w2: SpectralWeights, tau: float | np.ndarray
) -> float | np.ndarray:
    """Spin-1 purity of the evolved product state from the level weights alone.

    rho1[m1, m2] = C_{m1} C*_{m2} F2(tau (m1 - m2)), so

        Tr rho1^2 = R1_0 + 2 sum_{M=1}^{d-1} R1_M |F2(tau M)|^2

    with R1 the autocorrelation of spin 1's weights and F2 spin 2's signal.
    |F2(tau M)| = |sum_j w2_j z^j| with z = exp(i theta M), theta = tau / S and
    j = m + S (the dropped common phase cancels).  Baby-step/giant-step with
    j = a B + b: one matmul gives sum_b w2[a B + b] exp(i theta b M) for every
    a, and a weighted sum over a with exp(i theta a B M) finishes.  Every phase
    is theta times an exact integer, so no phase error accumulates; the result
    is accurate to about d ulps absolute.  O(d^2) multiply-adds and
    O(d^1.5) sines and cosines per tau.  tau may be an array: each element is
    computed by the same code as a scalar call, so the values are bitwise
    equal to scalar calls.
    """
    if w1.s != w2.s:
        raise ValueError("both weight sets must share the same spin magnitude")
    d = w1.s.d
    grid = _spectral_grid(w1.s.two_s)
    corr = np.correlate(w1.weights, w1.weights, mode="full")[d - 1 :]  # R1_M, M = 0 .. d-1
    blocks = np.zeros(grid.giant * grid.baby)
    blocks[:d] = w2.weights
    blocks = blocks.reshape(grid.giant, grid.baby)  # w2[a B + b]
    scale = 2.0 / w1.s.two_s
    taus = np.asarray(tau, dtype=np.float64)
    values = np.empty(taus.shape)
    for i, t in enumerate(taus.ravel().tolist()):
        phase = (scale * t) * grid.steps
        z = np.empty(phase.shape, dtype=np.complex128)
        z.real = np.cos(phase)
        z.imag = np.sin(phase)
        inner = blocks @ z[: grid.baby]
        f = np.sum(z[grid.baby :] * inner, axis=0)
        values.flat[i] = corr[0] + 2.0 * float(corr[1:] @ (f.real**2 + f.imag**2))
    return _float_or_array(values)


def small_time_coefficient(kind: str, s: SpinMagnitude) -> float:
    """Quadratic growth constant a in C^2 ~ a tau^2 near tau = 0.

    Returns (2S+1)/(4S) for the coherent state and (d+1) d^3 / (144 S^2) for
    the uniform state.  Caution: the uniform constant understates the curve;
    the coefficient a quadratic fit of the exact uniform C^2 actually yields
    is d (d+1)^2 (d-1) / (72 S^2), larger by the factor 2 (d^2 - 1) / d^2.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if s.two_s < 1:
        raise ValueError("coefficient needs two_s >= 1")
    if kind == "coherent":
        return (s.two_s + 1.0) / (2.0 * s.two_s)
    d = s.d
    return (d + 1.0) * d**3 / (36.0 * s.two_s**2)


def time_average(kind: str, s: SpinMagnitude) -> float:
    """Average of C^2 over one recurrence period.

    coherent: (2S+1)/(2S) (1 - 2^(-4S) C(4S, 2S))^2
    uniform:  1 - 1/d
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if s.two_s < 1:
        raise ValueError("average needs two_s >= 1")
    if kind == "coherent":
        q = central_binomial_weight(s.two_s)
        return (s.two_s + 1.0) / s.two_s * (1.0 - q) ** 2
    return 1.0 - 1.0 / s.d
