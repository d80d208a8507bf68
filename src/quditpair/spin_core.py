"""Spin bookkeeping, angular-momentum matrices, and numerically safe combinatorics.

The spin magnitude S is stored exactly as the integer ``two_s = 2S`` so that
half-integer spins never pass through floating point.  Basis states are ordered
by k = m + S (k = 0 .. 2S, projection m ascending).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

LN2 = math.log(2.0)

_AXES = ("x", "y", "z", "plus", "minus")


def _float_or_array(values: np.ndarray) -> float | np.ndarray:
    # a 0-d result goes back to the caller as a Python float
    return float(values) if values.ndim == 0 else values



@dataclass(frozen=True)
class SpinMagnitude:
    """Spin magnitude S, held as the exact integer two_s = 2S."""

    two_s: int

    def __post_init__(self) -> None:
        if isinstance(self.two_s, bool) or not isinstance(self.two_s, (int, np.integer)):
            raise ValueError(f"two_s must be an integer, got {self.two_s!r}")
        if self.two_s < 0:
            raise ValueError(f"two_s must be non-negative, got {self.two_s}")
        object.__setattr__(self, "two_s", int(self.two_s))

    @classmethod
    def from_s(cls, s: float) -> SpinMagnitude:
        """Build from S itself; S must be a non-negative half-integer."""
        if not math.isfinite(s):
            raise ValueError(f"S must be finite, got {s}")
        two_s = round(2.0 * s)
        if 2.0 * s != two_s:
            raise ValueError(f"S must be a half-integer, got {s}")
        return cls(int(two_s))

    @property
    def s(self) -> float:
        return 0.5 * self.two_s

    @property
    def d(self) -> int:
        """Hilbert-space dimension 2S + 1."""
        return self.two_s + 1

    def two_m_values(self) -> np.ndarray:
        """Doubled projections 2m in k-index order (ascending)."""
        return np.arange(-self.two_s, self.two_s + 1, 2)

    def m_values(self) -> np.ndarray:
        """Projections m = -S .. S in k-index order."""
        return 0.5 * self.two_m_values()


def _ladder(two_s: int, two_m: int | np.ndarray) -> float | np.ndarray:
    """sqrt((S - m + 1)(S + m)) = sqrt((2S - 2m + 2)(2S + 2m)) / 2 from the doubled 2m.

    The product under the square root is formed in integer arithmetic, so
    half-integer spins lose nothing; ``two_m`` may be an integer array.
    """
    prod = (two_s - two_m + 2) * (two_s + two_m)
    return _float_or_array(np.sqrt(np.asarray(prod, dtype=np.float64)) / 2.0)


def ladder_element(s: SpinMagnitude, m: float) -> float:
    """Raising matrix element <m|S+|m-1> = sqrt((S - m + 1)(S + m)).

    ``m`` must be one of the spin's projections with m - 1 also in range,
    i.e. m in {-S + 1, ..., S}.
    """
    two_m = round(2.0 * m)
    if 2.0 * m != two_m:
        raise ValueError(f"m must be a half-integer, got {m}")
    two_m = int(two_m)
    if (two_m - s.two_s) % 2 != 0:
        raise ValueError(f"m={m} is not a projection of S={s.s}")
    if not (-s.two_s + 2 <= two_m <= s.two_s):
        raise ValueError(f"m={m} out of ladder range for S={s.s}")
    return _ladder(s.two_s, two_m)


def operator_matrix(s: SpinMagnitude, axis: str) -> np.ndarray:
    """Spin operator S_axis for axis in {"x", "y", "z", "plus", "minus"}.

    S+ carries ladder_element at [k, k-1] (it raises m by one); the choice is
    fixed by requiring exp(-i (pi/2) S_y) to map the ground state onto the
    transverse coherent state.
    """
    key = axis.lower() if isinstance(axis, str) else axis
    if key not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    if key == "z":
        return np.diag(s.m_values()).astype(np.complex128)
    # entry i couples k=i+1 (projection m) to k=i (projection m-1)
    lv = _ladder(s.two_s, s.two_m_values()[1:])
    plus = np.diag(lv, k=-1).astype(np.complex128)
    if key == "plus":
        return plus
    minus = plus.T.copy()
    if key == "minus":
        return minus
    if key == "x":
        return (plus + minus) / 2.0
    return (plus - minus) / 2j


def log_binomial(n: int, k: int | np.ndarray) -> float | np.ndarray:
    """ln C(n, k) through log-gamma; -inf for k outside [0, n].

    ``k`` may be an integer or an integer array.  The two subtracted terms
    are grouped so the value is exactly symmetric under k <-> n - k.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu":
        raise ValueError(f"k must be an integer, got {k!r}")
    inside = (ks >= 0) & (ks <= n)
    ks = np.where(inside, ks, 0).astype(np.float64)  # exact below 2**53
    values = gammaln(n + 1.0) - (gammaln(ks + 1.0) + gammaln(n - ks + 1.0))
    return _float_or_array(np.where(inside, values, -np.inf))


def signed_cos_pow(x: float | np.ndarray, p: int) -> float | np.ndarray:
    """cos(x)**p for integer p >= 0, evaluated as sign * exp(p ln|cos x|).

    Stable for large p where naive powering would underflow prematurely or
    lose the sign; cos(x) == 0 with p > 0 gives exp(-inf), exactly 0.  ``x``
    may be an array.
    """
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)):
        raise ValueError(f"p must be an integer, got {p!r}")
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    c = np.cos(np.asarray(x, dtype=np.float64))
    if p == 0:
        return _float_or_array(np.ones_like(c))
    with np.errstate(divide="ignore"):
        magnitude = np.exp(p * np.log(np.abs(c)))
    signed = -magnitude if p % 2 == 1 else magnitude
    return _float_or_array(np.where(c < 0.0, signed, magnitude))


def central_binomial_weight(n: int) -> float:
    """Central binomial weight 2**(-2n) C(2n, n), in log space."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    return math.exp(log_binomial(2 * n, n) - 2 * n * LN2)


def stirling_central_weight(n: int) -> float:
    """Stirling estimate 1/sqrt(pi n) of the central binomial weight."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return 1.0 / math.sqrt(math.pi * n)
