"""Layers that accept a tau array agree bitwise with their scalar calls."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditpair import (
    MinimaConfig,
    SpectralWeights,
    SpinMagnitude,
    c2_coherent_asymptotic,
    c2_coherent_asymptotic_minima,
    c_squared,
    coherent_x,
    erf,
    f_coherent,
    f_gaussian_approx,
    f_sinc_approx,
    f_uniform,
    log_binomial,
    purity_coherent_closed,
    purity_spectral,
    purity_uniform_closed,
    signed_cos_pow,
    uniform_state,
)
from quditpair import cli
from quditpair.entanglement import PURITY_SLACK, _closed_constants, _spectral_grid
from quditpair.spin_core import _log_binomial_pmf

TWO_S = st.integers(min_value=1, max_value=300)


@st.composite
def spin_and_taus(draw, min_two_s=1):
    """A spin and taus that include the singular points tau = 2 pi S k and their neighbours."""
    two_s = draw(st.integers(min_value=min_two_s, max_value=300))
    period = 2.0 * math.pi * two_s
    singular = [math.pi * two_s * k for k in range(-2, 5)]
    near = [math.nextafter(t, toward) for t in singular for toward in (-math.inf, math.inf)]
    drawn = draw(st.lists(st.floats(min_value=-period, max_value=2.0 * period), max_size=12))
    return SpinMagnitude(two_s), np.array(drawn + singular + near + [0.0, 1e-9, -1e-9])


def assert_matches_scalar_calls(fn, taus):
    values = fn(taus)
    assert isinstance(values, np.ndarray) and values.shape == taus.shape
    for i, tau in enumerate(taus.tolist()):
        scalar = fn(tau)
        assert type(scalar) is float
        assert np.array_equal(values[i], scalar, equal_nan=True), (tau, values[i], scalar)


def spectral_layer(s):
    w1 = SpectralWeights.from_state(coherent_x(s))
    w2 = SpectralWeights.from_state(uniform_state(s))
    return lambda t: purity_spectral(w1, w2, t)


LAYERS = {
    "f_coherent": lambda s: lambda t: f_coherent(s, t),
    "f_uniform": lambda s: lambda t: f_uniform(s, t),
    "f_gaussian_approx": lambda s: lambda t: f_gaussian_approx(s, t),
    "f_sinc_approx": lambda s: f_sinc_approx,
    "signed_cos_pow": lambda s: lambda t: signed_cos_pow(t / s.two_s, s.two_s),
    "erf": lambda s: lambda t: erf(t / s.two_s),
    "purity_spectral": spectral_layer,
}


@pytest.mark.parametrize("layer", sorted(LAYERS))
@given(spin_and_taus())
def test_elementwise_equals_scalar(layer, case):
    s, taus = case
    assert_matches_scalar_calls(LAYERS[layer](s), taus)


@given(spin_and_taus(min_two_s=2))
def test_asymptotic_elementwise_equals_scalar(case):
    s, taus = case
    assert_matches_scalar_calls(lambda t: c2_coherent_asymptotic(s, t), taus)


@given(spin_and_taus(min_two_s=4), st.integers(min_value=2, max_value=6))
def test_echo_train_elementwise_equals_scalar(case, m_max):
    s, taus = case
    cfg = MinimaConfig(min(m_max, s.two_s))
    assert_matches_scalar_calls(lambda t: c2_coherent_asymptotic_minima(s, t, cfg), taus)


@given(TWO_S)
def test_log_binomial_row_equals_scalar_calls(n):
    ks = np.arange(-2, n + 3)
    row = log_binomial(n, ks)
    for i, k in enumerate(ks.tolist()):
        scalar = log_binomial(n, k)
        assert type(scalar) is float and row[i] == scalar


@given(st.integers(min_value=0, max_value=10000))
def test_pmf_row_equals_one_element_calls(n):
    ks = np.unique(np.linspace(0, n, 40).astype(int))
    row = _log_binomial_pmf(n, ks)
    for i in range(ks.size):
        assert np.array_equal(row[i], _log_binomial_pmf(n, ks[i : i + 1])[0])


def test_log_binomial_rejects_float_array():
    with pytest.raises(ValueError):
        log_binomial(4, np.array([1.0, 2.0]))


@given(TWO_S, st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
def test_c_squared_elementwise_equals_scalar(two_s, fractions):
    d = two_s + 1
    purities = np.array([1.0 / d + f * (1.0 - 1.0 / d) for f in fractions])
    assert_matches_scalar_calls(lambda p: c_squared(p, d), purities)


@given(TWO_S, st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30), st.data())
def test_c_squared_array_raises_on_any_bad_element(two_s, fractions, data):
    d = two_s + 1
    purities = np.array([1.0 / d + f * (1.0 - 1.0 / d) for f in fractions])
    i = data.draw(st.integers(min_value=0, max_value=len(fractions) - 1))
    purities[i] = data.draw(st.sampled_from([1.0 + 2 * PURITY_SLACK, 1.0 / d - 2 * PURITY_SLACK]))
    with pytest.raises(ValueError):
        c_squared(purities, d)


@given(TWO_S)
def test_c_squared_array_clips_within_slack(two_s):
    d = two_s + 1
    inside = 0.5 * (1.0 + 1.0 / d)
    purities = np.array([1.0 + 0.5 * PURITY_SLACK, inside, 1.0 / d - 0.5 * PURITY_SLACK])
    c2 = c_squared(purities, d)
    assert c2[0] == 0.0
    assert c2[1] == c_squared(inside, d)
    assert c2[2] == 1.0


@pytest.mark.parametrize("pur", [purity_coherent_closed, purity_uniform_closed])
@given(TWO_S, TWO_S, st.floats(min_value=0.0, max_value=50.0))
def test_closed_purity_cache_keyed_by_spin(pur, two_s_a, two_s_b, tau):
    a, b = SpinMagnitude(two_s_a), SpinMagnitude(two_s_b)
    fresh = {}
    for s in (a, b):
        _closed_constants.cache_clear()
        fresh[s.two_s] = pur(s, tau)
    for s in (a, b, a, b, b, a):
        assert pur(s, tau) == fresh[s.two_s]


def test_closed_constants_are_read_only():
    const = _closed_constants(7)
    for values in (const.m_over_two_s, const.log_weights, const.multiplicity,
                   _spectral_grid(7).steps):
        with pytest.raises(ValueError):
            values[0] = 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--two-s", "6", "--tau-max", "40.0"],
        ["sweep", "--two-s", "5", "--tau-max", "40.0", "--state", "uniform"],
        ["sweep", "--two-s", "300", "--tau-max", "30", "--method", "closed", "--state", "uniform"],
        ["figure", "fig2a"],
        ["figure", "fig4"],
    ],
)
def test_blocks_write_the_same_bytes_as_single_rows(argv, tmp_path, monkeypatch):
    samples = ["--samples", str(2 * cli._ROW_BLOCK + 3)]
    blocked, single = tmp_path / "blocked.csv", tmp_path / "single.csv"
    assert cli.main(argv + samples + ["--output", str(blocked)]) == 0
    monkeypatch.setattr(cli, "_ROW_BLOCK", 1)
    assert cli.main(argv + samples + ["--output", str(single)]) == 0
    assert blocked.read_bytes() == single.read_bytes()
