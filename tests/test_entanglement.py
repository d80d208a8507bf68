from __future__ import annotations

import math

import numpy as np
import pytest

from quditpair import (
    SpectralWeights,
    SpinMagnitude,
    SystemConfig,
    c_squared,
    coherent_x,
    evolve_product,
    oracle_evolve,
    oracle_purity,
    purity_coherent_closed,
    purity_spectral,
    purity_uniform_closed,
    small_time_coefficient,
    time_average,
    uniform_state,
)
from quditpair.entanglement import _closed_constants

SPINS = [1, 2, 3, 5, 9]


def closed_purity(kind: str, s: SpinMagnitude, tau: float) -> float:
    if kind == "coherent":
        return purity_coherent_closed(s, tau)
    return purity_uniform_closed(s, tau)


def prepare(kind: str, s: SpinMagnitude):
    return coherent_x(s) if kind == "coherent" else uniform_state(s)


def evolved_purity(kind: str, s: SpinMagnitude, tau: float) -> float:
    psi = prepare(kind, s)
    cfg = SystemConfig(s, j=1.0)
    joint = evolve_product(psi, psi, tau, cfg)
    return oracle_purity(joint)


class TestPurityAndCSquared:
    def test_c_squared_endpoints(self):
        assert c_squared(1.0, 5) == 0.0
        assert c_squared(1 / 7, 7) == pytest.approx(1.0)
        assert c_squared(0.75, 2) == pytest.approx(0.5)

    def test_c_squared_clips_roundoff_overshoot(self):
        assert c_squared(1.0 + 0.5e-9, 3) == 0.0

    def test_c_squared_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            c_squared(1.0 + 2e-9, 3)
        with pytest.raises(ValueError):
            c_squared(0.1, 3)
        with pytest.raises(ValueError):
            c_squared(0.5, 1)


class TestClosedForms:
    @pytest.mark.parametrize("kind", ["coherent", "uniform"])
    @pytest.mark.parametrize("two_s", SPINS + [100, 20000])
    def test_unity_at_zero(self, kind, two_s):
        assert abs(closed_purity(kind, SpinMagnitude(two_s), 0.0) - 1.0) < 1e-9

    @pytest.mark.parametrize("kind", ["coherent", "uniform"])
    def test_spin_half_closed_form(self, kind):
        # both preparations coincide at d = 2: P = (1 + cos^2 tau)/2
        s = SpinMagnitude(1)
        for tau in np.linspace(0.0, 2 * math.pi, 61):
            tau = float(tau)
            expect = 0.5 * (1.0 + math.cos(tau) ** 2)
            assert abs(closed_purity(kind, s, tau) - expect) < 1e-12

    @pytest.mark.parametrize("kind", ["coherent", "uniform"])
    @pytest.mark.parametrize("two_s", SPINS)
    def test_three_routes_agree(self, kind, two_s):
        s = SpinMagnitude(two_s)
        psi = prepare(kind, s)
        w = SpectralWeights.from_state(psi)
        cfg = SystemConfig(s, j=1.0)
        for tau in np.linspace(0.0, 2 * math.pi * s.s, 200):
            tau = float(tau)
            closed = closed_purity(kind, s, tau)
            brute = oracle_purity(oracle_evolve(psi, psi, tau, cfg))
            assert abs(closed - brute) < 1e-10
            assert abs(closed - purity_spectral(w, w, tau)) < 1e-10

    @pytest.mark.parametrize("kind", ["coherent", "uniform"])
    @pytest.mark.parametrize("two_s", [12, 20])
    def test_matches_evolved_reduction(self, kind, two_s):
        s = SpinMagnitude(two_s)
        for tau in np.linspace(0.1, 6.0, 14):
            tau = float(tau)
            assert abs(closed_purity(kind, s, tau) - evolved_purity(kind, s, tau)) < 1e-10

    def test_reflection_symmetry(self):
        s = SpinMagnitude(5)
        period = 2 * math.pi * s.two_s
        for kind in ("coherent", "uniform"):
            for tau in (0.7, 3.1, 9.0):
                left = closed_purity(kind, s, tau)
                right = closed_purity(kind, s, period - tau)
                assert abs(left - right) < 1e-10

    @pytest.mark.parametrize("kind", ["coherent", "uniform"])
    def test_purity_within_physical_range(self, kind):
        for two_s in SPINS:
            s = SpinMagnitude(two_s)
            taus = np.linspace(0.0, 2 * math.pi * s.s, 301)
            vals = np.array([closed_purity(kind, s, float(t)) for t in taus])
            assert np.all(vals <= 1.0 + 1e-11)
            assert np.all(vals >= 1.0 / s.d - 1e-11)

    def test_spectral_route_rejects_mismatched_spins(self):
        w1 = SpectralWeights.from_state(uniform_state(SpinMagnitude(2)))
        w2 = SpectralWeights.from_state(uniform_state(SpinMagnitude(3)))
        with pytest.raises(ValueError):
            purity_spectral(w1, w2, 0.5)

    @pytest.mark.parametrize("two_s", [537, 538, 2000, 20000])
    def test_coherent_sum_skips_only_zero_terms(self, two_s):
        # weights that underflow to 0.0 are skipped; below 2S = 538 none do
        const = _closed_constants(two_s)
        n = const.coherent_terms
        assert (n == two_s) == (two_s < 538)
        assert not np.any(np.exp(const.log_weights[n:]))
        s = SpinMagnitude(two_s)
        for tau in (0.0, 0.3, 7.0, math.pi * two_s, 25.0):
            with np.errstate(divide="ignore"):
                log_cos = np.log(np.abs(np.cos(tau * const.m_over_two_s)))
            full = 2.0 * math.fsum(np.exp(const.log_weights + 2 * two_s * log_cos))
            expect = full + const.central_weight
            assert abs(purity_coherent_closed(s, tau) - expect) <= 1e-15 * expect

    def test_uniform_near_removable_singularity_at_classical_scale(self):
        # y = M tau / S lands within 1.4e-6 of a multiple of 2 pi here, where
        # the Fejer ratio is below its limit d^2 by ~(d eps)^2 / 12; the
        # reference is a 30-digit mpmath evaluation of the closed form
        s = SpinMagnitude(19867)
        c2 = c_squared(purity_uniform_closed(s, 7.986950880780051), s.d)
        assert abs(c2 - 0.9999706405447685) < 1e-12

    def test_uniform_preparation_entangles_faster_at_larger_spin(self):
        # the uniform state's quadratic C^2 coefficient scales like S^2, so
        # its sup over an early window grows with spin (the coherent state's
        # coefficient tends to 1/2 instead)
        def sup_c2(two_s: int) -> float:
            s = SpinMagnitude(two_s)
            taus = np.linspace(0.0, 0.5, 201)
            return max(
                c_squared(purity_uniform_closed(s, float(t)), s.d) for t in taus
            )

        assert sup_c2(9) > sup_c2(3)


class TestSmallTimeCoefficient:
    def test_coherent_spin_half(self):
        # C^2 = sin^2 tau for a pair of two-level systems, so the leading
        # quadratic coefficient is exactly 1
        assert small_time_coefficient("coherent", SpinMagnitude(1)) == pytest.approx(1.0)

    def test_uniform_large_spin_scaling(self):
        s = SpinMagnitude(300)
        assert small_time_coefficient("uniform", s) == pytest.approx(s.s**2 / 9, rel=0.05)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            small_time_coefficient("thermal", SpinMagnitude(2))

    @staticmethod
    def fitted_coefficient(kind: str, two_s: int) -> float:
        s = SpinMagnitude(two_s)
        taus = np.linspace(1e-4, 1e-3, 25)
        c2 = np.array(
            [
                c_squared(closed_purity(kind, s, float(t)), s.d)
                for t in taus
            ]
        )
        coeff = np.polyfit(taus**2, c2, 1)[0]
        return float(coeff)

    @pytest.mark.parametrize("two_s", [2, 9, 20])
    def test_coherent_matches_quadratic_growth(self, two_s):
        fitted = self.fitted_coefficient("coherent", two_s)
        stated = small_time_coefficient("coherent", SpinMagnitude(two_s))
        assert fitted == pytest.approx(stated, rel=1e-3)

    @pytest.mark.xfail(
        strict=True,
        reason="the quoted uniform-preparation coefficient (d+1)d^3/(144 S^2) "
        "does not match the measured quadratic growth of C^2; the measured "
        "coefficient is d(d+1)^2(d-1)/(72 S^2), larger by 2(d^2-1)/d^2",
    )
    @pytest.mark.parametrize("two_s", [2, 9, 20])
    def test_uniform_matches_quadratic_growth(self, two_s):
        fitted = self.fitted_coefficient("uniform", two_s)
        stated = small_time_coefficient("uniform", SpinMagnitude(two_s))
        assert fitted == pytest.approx(stated, rel=1e-3)

    @pytest.mark.parametrize("two_s", [2, 9, 20])
    def test_uniform_measured_growth_pinned(self, two_s):
        # regression pin for the true uniform quadratic coefficient
        s = SpinMagnitude(two_s)
        d = s.d
        fitted = self.fitted_coefficient("uniform", two_s)
        true_coeff = d * (d + 1) ** 2 * (d - 1) / (72 * s.s**2)
        stated = small_time_coefficient("uniform", s)
        assert fitted == pytest.approx(true_coeff, rel=1e-3)
        assert fitted / stated == pytest.approx(2 * (d**2 - 1) / d**2, rel=1e-3)


class TestTimeAverage:
    def test_spin_half_values(self):
        s = SpinMagnitude(1)
        assert time_average("coherent", s) == pytest.approx(0.5, abs=1e-12)
        assert time_average("uniform", s) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            time_average("ground", SpinMagnitude(2))

    def test_uniform_is_one_minus_inverse_dimension(self):
        for two_s in SPINS:
            s = SpinMagnitude(two_s)
            assert time_average("uniform", s) == pytest.approx(1 - 1 / s.d, abs=1e-12)

    @pytest.mark.parametrize("kind", ["coherent", "uniform"])
    @pytest.mark.parametrize("two_s", [1, 2, 5, 10])
    def test_matches_quadrature_over_one_period(self, kind, two_s):
        s = SpinMagnitude(two_s)
        taus = np.linspace(0.0, 2 * math.pi * s.two_s, 4097)
        c2 = np.array([c_squared(closed_purity(kind, s, float(t)), s.d) for t in taus])
        avg = np.trapezoid(c2, taus) / taus[-1]
        assert abs(avg - time_average(kind, s)) < 1e-6
