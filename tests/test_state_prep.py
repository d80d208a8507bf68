from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from quditpair import (
    SingleSpinState,
    SpinMagnitude,
    coherent_x,
    ground_state,
    operator_matrix,
    qft,
    remove_global_phase,
    rotate_y,
    uniform_state,
)
from quditpair.state_prep import NORM_TOL

SPINS = [SpinMagnitude(two_s) for two_s in (1, 2, 3, 5, 9, 20, 41)]


class TestSingleSpinState:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            SingleSpinState(SpinMagnitude(2), np.array([1.0, 0.0]))

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            SingleSpinState(SpinMagnitude(1), np.array([1.0, 1.0]))

    def test_coerces_to_complex(self):
        st_ = SingleSpinState(SpinMagnitude(1), np.array([1.0, 0.0]))
        assert st_.amps.dtype == np.complex128

    def test_frozen(self):
        st_ = ground_state(SpinMagnitude(1))
        with pytest.raises(AttributeError):
            st_.s = SpinMagnitude(2)


class TestGroundState:
    def test_spin_half(self):
        assert np.array_equal(ground_state(SpinMagnitude(1)).amps, [0.0, 1.0])

    def test_spin_one(self):
        assert np.array_equal(ground_state(SpinMagnitude(2)).amps, [0.0, 0.0, 1.0])

    def test_weight_at_top_projection(self):
        amps = ground_state(SpinMagnitude(9)).amps
        assert amps[9] == 1.0
        assert np.count_nonzero(amps) == 1


class TestCoherentX:
    def test_spin_half(self):
        amps = coherent_x(SpinMagnitude(1)).amps
        assert np.allclose(amps, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)

    def test_spin_one(self):
        amps = coherent_x(SpinMagnitude(2)).amps
        assert np.allclose(amps, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-15)

    @pytest.mark.parametrize("s", SPINS, ids=lambda s: f"two_s={s.two_s}")
    def test_eigenvector_of_sx_with_maximal_eigenvalue(self, s):
        sx = operator_matrix(s, "x")
        amps = coherent_x(s).amps
        assert np.max(np.abs(sx @ amps - s.s * amps)) < 1e-10

    @pytest.mark.parametrize("two_s", range(1, 51))
    def test_reflection_symmetry_exact(self, two_s):
        amps = coherent_x(SpinMagnitude(two_s)).amps
        assert np.array_equal(amps, amps[::-1])

    @pytest.mark.parametrize("two_s", [*range(1, 20001, 97), 740, 20000])
    def test_normalized_at_large_spin(self, two_s):
        # the constructor raises "not normalized" past NORM_TOL
        amps = coherent_x(SpinMagnitude(two_s)).amps
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= NORM_TOL

    def test_matches_uniform_at_spin_half(self):
        # same state, but sqrt(C(1,k))/2**0.5 and 2**-0.5 round differently
        s = SpinMagnitude(1)
        assert np.allclose(coherent_x(s).amps, uniform_state(s).amps, atol=1e-15)


class TestUniformState:
    @pytest.mark.parametrize("two_s", [1, 2, 9])
    def test_all_entries_equal(self, two_s):
        s = SpinMagnitude(two_s)
        amps = uniform_state(s).amps
        assert np.all(amps == 1.0 / math.sqrt(s.d))


@pytest.mark.parametrize("two_s", range(1, 51))
def test_constructors_unit_norm(two_s):
    s = SpinMagnitude(two_s)
    for state in (ground_state(s), coherent_x(s), uniform_state(s)):
        assert abs(np.sum(np.abs(state.amps) ** 2) - 1.0) < 1e-12


class TestRotateY:
    def test_zero_angle_is_identity(self, random_state):
        st_ = random_state(SpinMagnitude(7))
        out = rotate_y(st_, 0.0)
        assert np.max(np.abs(out.amps - st_.amps)) < 1e-12

    @pytest.mark.parametrize("two_s", range(1, 41))
    def test_quarter_turn_prepares_coherent_state(self, two_s):
        s = SpinMagnitude(two_s)
        rotated = rotate_y(ground_state(s), math.pi / 2)
        assert np.max(np.abs(remove_global_phase(rotated.amps) - coherent_x(s).amps)) < 1e-10

    def test_inverse_rotation(self, random_state):
        st_ = random_state(SpinMagnitude(9))
        back = rotate_y(rotate_y(st_, 0.8342), -0.8342)
        assert np.max(np.abs(back.amps - st_.amps)) < 1e-10

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_norm_preserved(self, theta):
        st_ = coherent_x(SpinMagnitude(6))
        out = rotate_y(st_, theta)
        assert abs(np.sum(np.abs(out.amps) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("s", SPINS, ids=lambda s: f"two_s={s.two_s}")
    def test_coherent_state_transverse_expectation(self, s):
        sx = operator_matrix(s, "x")
        amps = coherent_x(s).amps
        assert abs(np.vdot(amps, sx @ amps).real - s.s) < 1e-10


class TestQft:
    def test_lowest_basis_vector_maps_to_uniform(self):
        s = SpinMagnitude(4)
        e0 = np.zeros(s.d, dtype=complex)
        e0[0] = 1.0
        out = qft(SingleSpinState(s, e0))
        assert np.max(np.abs(out.amps - 1.0 / math.sqrt(s.d))) < 1e-15

    @pytest.mark.parametrize("two_s", range(1, 21))
    def test_ground_state_gets_uniform_magnitudes(self, two_s):
        s = SpinMagnitude(two_s)
        mags = np.abs(qft(ground_state(s)).amps)
        assert np.max(np.abs(mags - 1.0 / math.sqrt(s.d))) < 1e-12

    def test_fourth_power_is_identity(self, random_state):
        st_ = random_state(SpinMagnitude(11))
        out = st_
        for _ in range(4):
            out = qft(out)
        assert np.max(np.abs(out.amps - st_.amps)) < 1e-10

    @pytest.mark.parametrize("two_s", range(1, 51))
    def test_norm_preserved(self, two_s):
        s = SpinMagnitude(two_s)
        out = qft(coherent_x(s))
        assert abs(np.sum(np.abs(out.amps) ** 2) - 1.0) < 1e-12


class TestRemoveGlobalPhase:
    def test_phase_is_stripped(self, random_state):
        amps = random_state(SpinMagnitude(6)).amps
        twisted = amps * np.exp(1j * 2.1547)
        assert np.max(np.abs(remove_global_phase(twisted) - remove_global_phase(amps))) < 1e-12

    def test_pivot_entry_is_real_positive(self, random_state):
        out = remove_global_phase(random_state(SpinMagnitude(6)).amps)
        pivot = out[np.argmax(np.abs(out))]
        assert pivot.imag == pytest.approx(0.0, abs=1e-15)
        assert pivot.real > 0

    def test_zero_vector_unchanged(self):
        zeros = np.zeros(3, dtype=complex)
        assert np.array_equal(remove_global_phase(zeros), zeros)
