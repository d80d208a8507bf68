from __future__ import annotations

import math

import numpy as np
import pytest

from quditpair import (
    JointState,
    SpinMagnitude,
    SystemConfig,
    c_squared,
    coherent_x,
    evolve_joint,
    evolve_product,
    purity,
    recurrence_period,
    reduced_density,
    remove_global_phase,
    uniform_state,
)


class TestSystemConfig:
    def test_period_examples(self):
        assert SystemConfig(SpinMagnitude(1), 1.0).period() == pytest.approx(2 * math.pi)
        assert SystemConfig(SpinMagnitude(9), 1.0).period() == pytest.approx(18 * math.pi)
        assert SystemConfig(SpinMagnitude(2), 2.0).period() == pytest.approx(2 * math.pi)

    def test_recurrence_period_helper(self):
        cfg = SystemConfig(SpinMagnitude(5), 0.7)
        assert recurrence_period(cfg) == cfg.period()

    def test_rejects_bad_coupling(self):
        with pytest.raises(ValueError):
            SystemConfig(SpinMagnitude(1), 0.0)
        with pytest.raises(ValueError):
            SystemConfig(SpinMagnitude(1), -1.0)

    @pytest.mark.parametrize("j", [math.inf, math.nan])
    def test_rejects_non_finite_coupling(self, j):
        with pytest.raises(ValueError):
            SystemConfig(SpinMagnitude(1), j)

    def test_rejects_spinless_pair(self):
        with pytest.raises(ValueError):
            SystemConfig(SpinMagnitude(0), 1.0)


class TestJointState:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            JointState(SpinMagnitude(1), np.array([1.0, 0.0]))

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            JointState(SpinMagnitude(1), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_matrix_reshape(self):
        amps = np.zeros(4, dtype=complex)
        amps[1] = 1.0  # (k1, k2) = (0, 1)
        js = JointState(SpinMagnitude(1), amps)
        assert js.matrix()[0, 1] == 1.0


class TestEvolveProduct:
    def test_zero_time_is_tensor_product(self, random_state):
        s = SpinMagnitude(4)
        cfg = SystemConfig(s, 1.0)
        a, b = random_state(s), random_state(s)
        joint = evolve_product(a, b, 0.0, cfg)
        assert np.array_equal(joint.amps, np.outer(a.amps, b.amps).ravel())

    def test_rejects_mismatched_spins(self):
        cfg = SystemConfig(SpinMagnitude(2), 1.0)
        with pytest.raises(ValueError):
            evolve_product(coherent_x(SpinMagnitude(2)), coherent_x(SpinMagnitude(4)), 0.1, cfg)
        with pytest.raises(ValueError):
            evolve_product(coherent_x(SpinMagnitude(4)), coherent_x(SpinMagnitude(4)), 0.1, cfg)

    @pytest.mark.parametrize("two_s", range(1, 11))
    def test_full_period_recurrence_up_to_global_phase(self, two_s, random_state):
        s = SpinMagnitude(two_s)
        cfg = SystemConfig(s, 1.3)
        a, b = random_state(s), random_state(s)
        start = evolve_product(a, b, 0.0, cfg)
        end = evolve_product(a, b, cfg.period(), cfg)
        assert (
            np.max(np.abs(remove_global_phase(end.amps) - remove_global_phase(start.amps)))
            < 1e-10
        )

    def test_half_integer_period_phase_is_minus_one(self):
        # at t = T every phase is exp(i pi (2m)(2n)) = -1 for odd (2m)(2n)
        s = SpinMagnitude(1)
        cfg = SystemConfig(s, 1.0)
        a = coherent_x(s)
        start = evolve_product(a, a, 0.0, cfg)
        end = evolve_product(a, a, cfg.period(), cfg)
        assert np.max(np.abs(end.amps + start.amps)) < 1e-12

    def test_spin_half_maximal_entanglement_at_quarter_period(self):
        s = SpinMagnitude(1)
        cfg = SystemConfig(s, 1.0)
        a = coherent_x(s)
        joint = evolve_product(a, a, math.pi / 2, cfg)
        c2 = c_squared(purity(reduced_density(joint)), s.d)
        assert c2 == pytest.approx(1.0, abs=1e-10)


class TestEvolveJoint:
    def test_zero_time_is_identity(self, random_state):
        s = SpinMagnitude(3)
        cfg = SystemConfig(s, 1.0)
        joint = evolve_product(random_state(s), random_state(s), 0.4, cfg)
        out = evolve_joint(joint, 0.0, cfg)
        assert np.array_equal(out.amps, joint.amps)

    def test_composition_of_times(self, random_state):
        s = SpinMagnitude(5)
        cfg = SystemConfig(s, 0.9)
        a, b = random_state(s), random_state(s)
        two_step = evolve_joint(evolve_product(a, b, 1.1, cfg), 2.3, cfg)
        one_step = evolve_product(a, b, 3.4, cfg)
        assert np.max(np.abs(two_step.amps - one_step.amps)) < 1e-12

    def test_rejects_mismatched_spin(self):
        s = SpinMagnitude(2)
        joint = evolve_product(coherent_x(s), coherent_x(s), 0.0, SystemConfig(s, 1.0))
        with pytest.raises(ValueError):
            evolve_joint(joint, 0.1, SystemConfig(SpinMagnitude(4), 1.0))

    @pytest.mark.parametrize("two_s", [1, 4])
    def test_norm_stable_over_many_steps(self, two_s):
        # 1e4 sequential phase multiplications each add ~1 ulp of |exp| bias
        s = SpinMagnitude(two_s)
        cfg = SystemConfig(s, 1.0)
        state = evolve_product(coherent_x(s), uniform_state(s), 0.0, cfg)
        step = cfg.period() / 1e4
        for _ in range(10_000):
            state = evolve_joint(state, step, cfg)
        assert abs(float(np.sum(np.abs(state.amps) ** 2)) - 1.0) < 1e-11

    def test_single_step_norm_is_tight(self, random_state):
        s = SpinMagnitude(4)
        cfg = SystemConfig(s, 1.0)
        joint = evolve_product(random_state(s), random_state(s), 0.0, cfg)
        out = evolve_joint(joint, cfg.period() * 0.37, cfg)
        assert abs(float(np.sum(np.abs(out.amps) ** 2)) - 1.0) < 1e-12
