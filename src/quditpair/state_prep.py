"""Initial single-spin states and the preparation unitaries that produce them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import LN2, SpinMagnitude, log_binomial, operator_matrix

NORM_TOL = 1e-12


@dataclass(frozen=True)
class SingleSpinState:
    """Amplitudes C_m over m = -S .. S in k = m + S order; unit norm."""

    s: SpinMagnitude
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (self.s.d,):
            raise ValueError(f"expected {self.s.d} amplitudes, got shape {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: sum |C|^2 = {norm_sq!r}")
        object.__setattr__(self, "amps", amps)


def ground_state(s: SpinMagnitude) -> SingleSpinState:
    """Maximal-projection state |m = S> (all weight at k = 2S)."""
    amps = np.zeros(s.d, dtype=np.complex128)
    amps[-1] = 1.0
    return SingleSpinState(s, amps)


def coherent_x(s: SpinMagnitude) -> SingleSpinState:
    """Transverse spin coherent state, C_m = 2**(-S) sqrt(C(2S, S + m)).

    Amplitudes are assembled in log space so large S stays finite; the
    binomial symmetry C_m = C_{-m} is exact.
    """
    logw = log_binomial(s.two_s, np.arange(s.d))
    amps = np.exp(0.5 * logw - 0.5 * s.two_s * LN2).astype(np.complex128)
    return SingleSpinState(s, amps)


def uniform_state(s: SpinMagnitude) -> SingleSpinState:
    """Uniform superposition of all d projections, C_m = d**(-1/2)."""
    amps = np.full(s.d, 1.0 / math.sqrt(s.d), dtype=np.complex128)
    return SingleSpinState(s, amps)


def rotate_y(state: SingleSpinState, theta: float) -> SingleSpinState:
    """Apply exp(-i theta S_y) through the eigendecomposition of S_y.

    rotate_y(ground_state(s), pi/2) reproduces coherent_x(s) up to a global
    phase.
    """
    sy = operator_matrix(state.s, "y")
    evals, evecs = np.linalg.eigh(sy)
    phases = np.exp(-1j * theta * evals)
    amps = evecs @ (phases * (evecs.conj().T @ state.amps))
    return SingleSpinState(state.s, amps)


def qft(state: SingleSpinState) -> SingleSpinState:
    """Apply the d-level Fourier unitary W[j, k] = d**(-1/2) omega^(j k).

    omega = exp(2 pi i / d) and j, k run over the k-index order 0 .. d - 1.
    qft(ground_state(s)) has all amplitude magnitudes equal to d**(-1/2).
    """
    d = state.s.d
    idx = np.arange(d)
    w = np.exp((2j * np.pi / d) * np.outer(idx, idx)) / math.sqrt(d)
    return SingleSpinState(state.s, w @ state.amps)


def remove_global_phase(amps: np.ndarray) -> np.ndarray:
    """Divide out the phase of the largest-magnitude entry.

    Used for comparisons that should ignore a global phase; an all-zero
    input is returned unchanged.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    idx = int(np.argmax(np.abs(amps)))
    pivot = amps[idx]
    if pivot == 0:
        return amps.copy()
    return amps * (abs(pivot) / pivot)
