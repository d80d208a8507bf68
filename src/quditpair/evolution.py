"""Exact time evolution of product states under the Ising coupling -(J/S) S1z S2z."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import SpinMagnitude
from .state_prep import NORM_TOL, SingleSpinState


@dataclass(frozen=True)
class SystemConfig:
    """Two identical spins s coupled with strength j > 0."""

    s: SpinMagnitude
    j: float = 1.0

    def __post_init__(self) -> None:
        if self.s.two_s < 1:
            raise ValueError("the coupled pair needs two_s >= 1")
        if not (math.isfinite(self.j) and self.j > 0.0):
            raise ValueError(f"coupling j must be positive and finite, got {self.j}")

    def period(self) -> float:
        """Recurrence time T = 4 pi S / J."""
        return 2.0 * math.pi * self.s.two_s / self.j


@dataclass(frozen=True)
class JointState:
    """Joint amplitudes over (k1, k2), flattened row-major; unit norm."""

    s: SpinMagnitude
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.s.d * self.s.d,):
            raise ValueError(f"expected {self.s.d ** 2} joint amplitudes, got shape {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"joint state is not normalized: sum |A|^2 = {norm_sq!r}")
        object.__setattr__(self, "amps", amps)

    def matrix(self) -> np.ndarray:
        """Amplitudes as a d x d array A[k1, k2]."""
        return self.amps.reshape(self.s.d, self.s.d)


def evolve_product(
    psi1: SingleSpinState, psi2: SingleSpinState, t: float, cfg: SystemConfig
) -> JointState:
    """Evolve psi1 (x) psi2 for time t: amplitude C1_m C2_n exp(i t m n J / S).

    The phase exponents come from exact integer products (2m)(2n), so no
    float error accumulates in the m n grid.
    """
    if psi1.s != cfg.s or psi2.s != cfg.s:
        raise ValueError("states and configuration must share the same spin magnitude")
    # integer grid (2 m)(2 n); the physical phase is t J m n / S = t J (2m)(2n) / (2 two_s)
    two_m = cfg.s.two_m_values()
    factor = t * cfg.j / (2.0 * cfg.s.two_s)
    phases = np.exp(1j * factor * np.outer(two_m, two_m))
    joint = np.outer(psi1.amps, psi2.amps) * phases
    return JointState(cfg.s, joint.ravel())
