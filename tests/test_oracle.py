from __future__ import annotations

import ast
import math
import pathlib

import numpy as np
import pytest

import quditpair
from quditpair import (
    SingleSpinState,
    SpinMagnitude,
    SystemConfig,
    c_squared,
    coherent_x,
    dense_hamiltonian,
    evolve_product,
    ground_state,
    mean_s1x,
    oracle_evolve,
    oracle_mean_s1x,
    oracle_purity,
)


class TestDenseHamiltonian:
    def test_two_level_diagonal(self):
        h = dense_hamiltonian(SpinMagnitude(1), j=1.0)
        assert np.allclose(h, [-0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_coupling_scales_linearly(self):
        s = SpinMagnitude(4)
        assert np.allclose(dense_hamiltonian(s, j=3.0), 3.0 * dense_hamiltonian(s, j=1.0))

    def test_aligned_extremes(self):
        # both spins maximal: energy -J S
        s = SpinMagnitude(6)
        h = dense_hamiltonian(s, j=2.0)
        assert h[-1] == pytest.approx(-2.0 * s.s)
        assert h[0] == pytest.approx(-2.0 * s.s)


class TestOracleEvolve:
    def test_zero_time_is_tensor_product(self):
        s = SpinMagnitude(3)
        psi = coherent_x(s)
        joint = oracle_evolve(psi, psi, 0.0, SystemConfig(s))
        assert np.allclose(joint.amps, np.kron(psi.amps, psi.amps), atol=1e-15)

    def test_norm_preserved(self, random_state):
        s = SpinMagnitude(4)
        joint = oracle_evolve(random_state(s), random_state(s), 2.7, SystemConfig(s))
        assert np.linalg.norm(joint.amps) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("two_s", [1, 2, 3, 5])
    def test_agrees_with_production_evolution(self, two_s, rng, random_state):
        s = SpinMagnitude(two_s)
        cfg = SystemConfig(s, j=1.4)
        for _ in range(25):
            a, b = random_state(s), random_state(s)
            t = float(rng.uniform(-20.0, 20.0))
            brute = oracle_evolve(a, b, t, cfg)
            fast = evolve_product(a, b, t, cfg)
            assert np.allclose(brute.amps, fast.amps, atol=1e-12)

    def test_rejects_oversized_spin(self):
        s = SpinMagnitude(129)
        with pytest.raises(ValueError):
            oracle_evolve(ground_state(s), ground_state(s), 0.1, SystemConfig(s))

    def test_rejects_mismatched_config(self):
        with pytest.raises(ValueError):
            oracle_evolve(
                ground_state(SpinMagnitude(2)),
                ground_state(SpinMagnitude(2)),
                0.1,
                SystemConfig(SpinMagnitude(3)),
            )


class TestOracleObservables:
    def test_mean_s1x_initial(self):
        s = SpinMagnitude(9)
        joint = oracle_evolve(coherent_x(s), coherent_x(s), 0.0, SystemConfig(s))
        assert oracle_mean_s1x(joint) == pytest.approx(s.s, abs=1e-10)

    def test_mean_s1x_vanishes_for_ground_pair(self):
        s = SpinMagnitude(5)
        joint = oracle_evolve(ground_state(s), ground_state(s), 1.3, SystemConfig(s))
        assert abs(oracle_mean_s1x(joint)) < 1e-12

    @pytest.mark.parametrize("two_s", [1, 2, 5])
    def test_mean_s1x_matches_spectral_route(self, two_s, rng, random_state):
        # real amplitudes on spin 1 (the documented contract); spin 2 is free
        s = SpinMagnitude(two_s)
        cfg = SystemConfig(s, j=1.0)
        raw = rng.normal(size=s.d)
        a = SingleSpinState(s, raw / np.linalg.norm(raw))
        b = random_state(s)
        for tau in np.linspace(0.0, 10.0, 23):
            tau = float(tau)
            joint = oracle_evolve(a, b, tau, cfg)
            assert abs(oracle_mean_s1x(joint) - mean_s1x(a, b, tau)) < 1e-10

    def test_purity_of_product(self):
        s = SpinMagnitude(4)
        joint = oracle_evolve(coherent_x(s), coherent_x(s), 0.0, SystemConfig(s))
        assert oracle_purity(joint) == pytest.approx(1.0, abs=1e-12)

    def test_two_level_checkpoint(self):
        s = SpinMagnitude(1)
        joint = oracle_evolve(coherent_x(s), coherent_x(s), math.pi / 4, SystemConfig(s))
        p = oracle_purity(joint)
        assert p == pytest.approx(0.75, abs=1e-10)
        assert c_squared(p, 2) == pytest.approx(0.5, abs=1e-10)


class TestStructuralIndependence:
    def test_brute_force_module_avoids_analytic_code_paths(self):
        # the reference implementation must not import the code it validates
        path = pathlib.Path(quditpair.__file__).with_name("oracle.py")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed_modules = {"spin_core", "evolution", "state_prep"}
        allowed_names = {
            "spin_core": None,  # any name: elementary operators only
            "evolution": {"JointState", "SystemConfig"},
            "state_prep": {"SingleSpinState"},
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = (node.module or "").lstrip(".")
            if module in ("dataclasses", "__future__"):
                continue
            assert module in allowed_modules, f"unexpected import: {module}"
            names = allowed_names[module]
            if names is not None:
                got = {alias.name for alias in node.names}
                assert got <= names, f"{module} leaks {got - names}"
