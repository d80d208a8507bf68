"""Brute-force reference dynamics for cross-validation.

Everything here works from the dense diagonal Hamiltonian and explicit
tensor algebra; none of the closed-form or spectral code paths are imported,
so agreement with them is evidence, not circularity.  Intended for S <= 64.
"""

from __future__ import annotations

import numpy as np

from .spin_core import SpinMagnitude, operator_matrix
from .evolution import JointState, SystemConfig
from .state_prep import SingleSpinState

_MAX_TWO_S = 128


def dense_hamiltonian(s: SpinMagnitude, j: float = 1.0) -> np.ndarray:
    """Diagonal of -(J/S) S1z S2z over the flattened (k1, k2) basis."""
    two_m = s.two_m_values().astype(np.float64)
    mn = np.outer(two_m, two_m) / 4.0  # exact quarter-integers
    return (-(2.0 * j / s.two_s) * mn).ravel()


def _check_size(s: SpinMagnitude) -> None:
    if s.two_s > _MAX_TWO_S:
        raise ValueError(f"brute-force path is limited to two_s <= {_MAX_TWO_S}, got {s.two_s}")


def oracle_evolve(
    psi1: SingleSpinState, psi2: SingleSpinState, t: float, cfg: SystemConfig
) -> JointState:
    """Evolve by multiplying the tensor product with exp(-i t H) elementwise."""
    if psi1.s != cfg.s or psi2.s != cfg.s:
        raise ValueError("states and configuration must share the same spin magnitude")
    _check_size(cfg.s)
    h = dense_hamiltonian(cfg.s, cfg.j)
    product = np.kron(psi1.amps, psi2.amps)
    return JointState(cfg.s, product * np.exp(-1j * t * h))


def oracle_mean_s1x(joint: JointState) -> float:
    """<Psi| S1x (x) I |Psi> recomputed with the explicit operator matrix."""
    _check_size(joint.s)
    sx = operator_matrix(joint.s, "x")
    a = joint.matrix()
    return float(np.trace(a.conj().T @ (sx @ a)).real)


def oracle_purity(joint: JointState) -> float:
    """Tr rho1^2 from an explicit partial trace over spin 2."""
    _check_size(joint.s)
    a = joint.matrix()
    rho = np.einsum("ik,jk->ij", a, a.conj())
    return float(np.einsum("ij,ij->", rho, rho.conj()).real)
