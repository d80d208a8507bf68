from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditpair import (
    SpinMagnitude,
    central_binomial_weight,
    ladder_element,
    log_binomial,
    operator_matrix,
    signed_cos_pow,
    stirling_central_weight,
)
from quditpair.spin_core import _log_binomial_pmf

from oracles import cos_power_reference, log_binomial_reference


class TestSpinMagnitude:
    def test_half_integer_round_trip(self):
        assert SpinMagnitude.from_s(0.5).two_s == 1
        assert SpinMagnitude.from_s(2).two_s == 4
        assert SpinMagnitude.from_s(4.5).two_s == 9

    def test_dimension_and_s(self):
        s = SpinMagnitude(9)
        assert s.d == 10
        assert s.s == 4.5

    def test_projections_ascend(self):
        s = SpinMagnitude(3)
        assert list(s.two_m_values()) == [-3, -1, 1, 3]
        assert list(s.m_values()) == [-1.5, -0.5, 0.5, 1.5]

    def test_rejects_non_half_integer(self):
        for s in (0.3, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                SpinMagnitude.from_s(s)

    def test_rejects_negative_and_non_integer(self):
        with pytest.raises(ValueError):
            SpinMagnitude(-1)
        with pytest.raises(ValueError):
            SpinMagnitude(1.5)
        with pytest.raises(ValueError):
            SpinMagnitude(True)

    def test_frozen(self):
        s = SpinMagnitude(2)
        with pytest.raises(AttributeError):
            s.two_s = 3


class TestLadderElement:
    def test_spin_half(self):
        assert ladder_element(SpinMagnitude(1), 0.5) == 1.0

    def test_spin_one(self):
        s = SpinMagnitude(2)
        assert ladder_element(s, 1) == pytest.approx(math.sqrt(2), rel=1e-15)
        assert ladder_element(s, 0) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_out_of_range(self):
        s = SpinMagnitude(2)
        with pytest.raises(ValueError):
            ladder_element(s, -1)  # m - 1 would leave the ladder
        with pytest.raises(ValueError):
            ladder_element(s, 2)

    def test_rejects_wrong_parity(self):
        with pytest.raises(ValueError):
            ladder_element(SpinMagnitude(1), 0)
        with pytest.raises(ValueError):
            ladder_element(SpinMagnitude(2), 0.4)

    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_symmetry_about_half(self, two_s, data):
        # sqrt((S - m + 1)(S + m)) is invariant under m <-> 1 - m
        s = SpinMagnitude(two_s)
        two_m = data.draw(
            st.integers(min_value=-two_s + 2, max_value=two_s).filter(
                lambda v: (v - two_s) % 2 == 0
            )
        )
        mirror = 2 - two_m
        if -two_s + 2 <= mirror <= two_s:
            assert ladder_element(s, two_m / 2) == ladder_element(s, mirror / 2)


class TestOperatorMatrix:
    def test_z_spin_half(self):
        z = operator_matrix(SpinMagnitude(1), "z")
        assert np.allclose(z, np.diag([-0.5, 0.5]))

    def test_x_spin_half(self):
        x = operator_matrix(SpinMagnitude(1), "x")
        assert np.allclose(x, np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_z_spin_one(self):
        z = operator_matrix(SpinMagnitude(2), "z")
        assert np.allclose(z, np.diag([-1.0, 0.0, 1.0]))

    def test_axis_case_insensitive(self):
        s = SpinMagnitude(3)
        assert np.array_equal(operator_matrix(s, "X"), operator_matrix(s, "x"))

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            operator_matrix(SpinMagnitude(1), "w")

    @pytest.mark.parametrize("two_s", range(1, 21))
    def test_x_is_half_sum_of_ladders(self, two_s):
        s = SpinMagnitude(two_s)
        x = operator_matrix(s, "x")
        plus = operator_matrix(s, "plus")
        minus = operator_matrix(s, "minus")
        assert np.array_equal(x, (plus + minus) / 2.0)

    @pytest.mark.parametrize("two_s", range(1, 21))
    def test_commutator(self, two_s):
        s = SpinMagnitude(two_s)
        x = operator_matrix(s, "x")
        y = operator_matrix(s, "y")
        z = operator_matrix(s, "z")
        assert np.max(np.abs(x @ y - y @ x - 1j * z)) < 1e-12

    @pytest.mark.parametrize("two_s", range(1, 21))
    def test_casimir(self, two_s):
        s = SpinMagnitude(two_s)
        total = sum(
            operator_matrix(s, axis) @ operator_matrix(s, axis)
            for axis in ("x", "y", "z")
        )
        expected = s.s * (s.s + 1.0) * np.eye(s.d)
        assert np.max(np.abs(total - expected)) < 1e-12

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_hermitian(self, axis):
        m = operator_matrix(SpinMagnitude(7), axis)
        assert np.max(np.abs(m - m.conj().T)) == 0.0

    def test_ladders_are_adjoint(self):
        s = SpinMagnitude(6)
        plus = operator_matrix(s, "plus")
        minus = operator_matrix(s, "minus")
        assert np.array_equal(plus.conj().T, minus)

    def test_raising_action(self):
        # S+ sends |m> to ladder_element(m + 1) |m + 1>
        s = SpinMagnitude(4)
        plus = operator_matrix(s, "plus")
        e1 = np.zeros(s.d, dtype=complex)
        e1[1] = 1.0  # m = -1
        out = plus @ e1
        assert out[2] == ladder_element(s, 0)
        assert np.count_nonzero(out) == 1


class TestLogBinomial:
    def test_small_values(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-15)
        assert log_binomial(0, 0) == 0.0

    def test_out_of_range_is_minus_inf(self):
        assert log_binomial(5, -1) == -math.inf
        assert log_binomial(5, 6) == -math.inf

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            log_binomial(-1, 0)
        with pytest.raises(ValueError):
            log_binomial(4.0, 2)
        with pytest.raises(ValueError):
            log_binomial(4, 2.0)

    def test_symmetric_in_k(self):
        for n in (7, 40, 1001):
            for k in range(n + 1):
                assert log_binomial(n, k) == log_binomial(n, n - k)

    @pytest.mark.parametrize("n", [2, 3, 64, 129, 4095, 4096, 4097, 8193, 40000])
    def test_pmf_row_exactly_symmetric(self, n):
        row = _log_binomial_pmf(n, np.arange(n + 1))
        assert np.array_equal(row, row[::-1])

    def test_exact_for_small_n(self):
        for n in range(61):
            for k in range(n + 1):
                assert math.isclose(
                    log_binomial(n, k), log_binomial_reference(n, k), rel_tol=1e-12
                )

    def test_large_argument(self):
        got = log_binomial(4000, 2000)
        assert math.isclose(got, log_binomial_reference(4000, 2000), rel_tol=1e-10)

    @given(st.integers(min_value=1, max_value=3000), st.data())
    def test_matches_big_integer(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        assert math.isclose(
            log_binomial(n, k), log_binomial_reference(n, k), rel_tol=1e-10, abs_tol=1e-12
        )


class TestSignedCosPow:
    def test_power_zero(self):
        assert signed_cos_pow(1.234, 0) == 1.0
        assert signed_cos_pow(math.pi / 2, 0) == 1.0

    def test_trivial_points(self):
        assert signed_cos_pow(0.0, 100) == 1.0
        assert signed_cos_pow(math.pi, 3) == -1.0

    def test_large_power(self):
        assert math.isclose(signed_cos_pow(math.pi / 3, 40), 0.5**40, rel_tol=1e-12)

    def test_near_zero_cosine_underflows_cleanly(self):
        assert abs(signed_cos_pow(math.pi / 2, 3)) < 1e-45

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            signed_cos_pow(1.0, -1)
        with pytest.raises(ValueError):
            signed_cos_pow(1.0, 2.0)

    @given(
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=0, max_value=50),
    )
    def test_matches_naive_powering(self, x, p):
        if abs(math.cos(x)) > 1e-3:
            assert math.isclose(
                signed_cos_pow(x, p), cos_power_reference(x, p), rel_tol=1e-10
            )


class TestCentralWeights:
    def test_small_values(self):
        assert central_binomial_weight(0) == 1.0
        assert central_binomial_weight(1) == pytest.approx(0.5, rel=1e-14)
        assert central_binomial_weight(2) == pytest.approx(0.375, rel=1e-14)

    def test_matches_big_integer(self):
        for n in (5, 50, 300):
            exact = math.comb(2 * n, n) / 4.0**n
            assert math.isclose(central_binomial_weight(n), exact, rel_tol=1e-12)

    @pytest.mark.parametrize("n", [3, 15, 16, 97, 1000, 2048, 2049, 4096, 7919, 12345, 20000])
    def test_within_2e_15_relative_of_exact_ratio(self, n):
        exact = Fraction(math.comb(2 * n, n), 4**n)
        assert abs(Fraction(central_binomial_weight(n)) - exact) <= Fraction(2e-15) * exact

    def test_stirling_form(self):
        assert stirling_central_weight(4) == 1.0 / math.sqrt(4 * math.pi)

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 100, 1000])
    def test_stirling_estimate_error(self, n):
        # leading correction is -1/(8n), so the ratio sits within 1/(8n) of 1
        ratio = central_binomial_weight(n) / stirling_central_weight(n)
        assert abs(ratio - 1.0) <= 1.0 / (8.0 * n)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            central_binomial_weight(-1)
        with pytest.raises(ValueError):
            stirling_central_weight(0)
