"""The spectral purity engine against the dense-tensor oracle and exact identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quditpair import (
    SingleSpinState,
    SpectralWeights,
    SpinMagnitude,
    SystemConfig,
    c_squared,
    coherent_x,
    ground_state,
    oracle_evolve,
    oracle_purity,
    purity_spectral,
    rotate_y,
    time_average,
    uniform_state,
)

KINDS = ("coherent", "uniform", "tilted", "random")


@st.composite
def single_state(draw, s: SpinMagnitude) -> SingleSpinState:
    kind = draw(st.sampled_from(KINDS))
    if kind == "coherent":
        return coherent_x(s)
    if kind == "uniform":
        return uniform_state(s)
    if kind == "tilted":
        theta = draw(st.floats(min_value=0.0, max_value=math.pi))
        return rotate_y(ground_state(s), theta)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    w = np.random.default_rng(seed).random(s.d)
    return SingleSpinState(s, np.sqrt(w / w.sum()))


@st.composite
def distinct_pair(draw, max_two_s: int = 128):
    s = SpinMagnitude(draw(st.integers(min_value=1, max_value=max_two_s)))
    psi1, psi2 = draw(single_state(s)), draw(single_state(s))
    w1, w2 = SpectralWeights.from_state(psi1), SpectralWeights.from_state(psi2)
    assume(not np.allclose(w1.weights, w2.weights))
    return s, psi1, psi2, w1, w2


def special_taus(s: SpinMagnitude) -> np.ndarray:
    """tau = 0 and the half and whole periods 2 pi S k, each with both float neighbours."""
    centres = [math.pi * s.two_s * k for k in range(5)]
    near = [math.nextafter(t, toward) for t in centres for toward in (-math.inf, math.inf)]
    return np.array(centres + near)


@settings(max_examples=40)
@given(distinct_pair())
def test_engine_matches_partial_trace(case):
    s, psi1, psi2, w1, w2 = case
    cfg = SystemConfig(s)
    taus = special_taus(s)
    engine = purity_spectral(w1, w2, taus)
    for tau, value in zip(taus.tolist(), engine.tolist()):
        ref = oracle_purity(oracle_evolve(psi1, psi2, tau, cfg))
        assert abs(value - ref) < 1e-12, (s.two_s, tau, value, ref)


@given(distinct_pair(max_two_s=40), st.floats(min_value=0.0, max_value=1.0))
def test_engine_matches_partial_trace_inside_the_period(case, fraction):
    s, psi1, psi2, w1, w2 = case
    tau = fraction * 2.0 * math.pi * s.two_s
    ref = oracle_purity(oracle_evolve(psi1, psi2, tau, SystemConfig(s)))
    assert abs(purity_spectral(w1, w2, tau) - ref) < 1e-12


def period_mean(w1: SpectralWeights, w2: SpectralWeights) -> float:
    # N > 2 (d-1)^2 equispaced taus over one period 4 pi S: the mean of
    # cos(tau M K / S) over them is 1 when M K = 0 and 0 otherwise
    d, two_s = w1.s.d, w1.s.two_s
    n = 2 * (d - 1) ** 2 + 1
    taus = 2.0 * math.pi * two_s * np.arange(n) / n
    return float(np.mean(purity_spectral(w1, w2, taus)))


@given(distinct_pair(max_two_s=20))
def test_period_mean_is_exact(case):
    _, _, _, w1, w2 = case
    q1, q2 = float(w1.weights @ w1.weights), float(w2.weights @ w2.weights)
    assert abs(period_mean(w1, w2) - (q1 + q2 - q1 * q2)) < 1e-13


@pytest.mark.parametrize("kind", ["coherent", "uniform"])
@pytest.mark.parametrize("two_s", [1, 2, 5, 10, 20])
def test_period_mean_reproduces_time_average(kind, two_s):
    s = SpinMagnitude(two_s)
    w = SpectralWeights.from_state(coherent_x(s) if kind == "coherent" else uniform_state(s))
    assert abs(c_squared(period_mean(w, w), s.d) - time_average(kind, s)) < 1e-13
