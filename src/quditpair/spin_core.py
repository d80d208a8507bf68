"""Spin bookkeeping, angular-momentum matrices, and numerically safe combinatorics.

The spin magnitude S is stored exactly as the integer ``two_s = 2S`` so that
half-integer spins never pass through floating point.  Basis states are ordered
by k = m + S (k = 0 .. 2S, projection m ascending).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)

# stirlerr(k) = ln k! - ln[sqrt(2 pi k) (k/e)^k], the error of Stirling's
# formula.  k <= 15: Loader's values (C. Loader, "Fast and Accurate Computation
# of Binomial Probabilities", 2000); entry 0 is a placeholder, never used.
# 16 <= k <= _STIRLERR_TOP: the series 1/(12k) - 1/(360k^3) + ..., filled here
# to five terms (below 2e-16 absolute at k = 16); above the table its first two
# terms are below 1e-21 absolute.
_STIRLERR_TOP = 4096
_STIRLERR = np.empty(_STIRLERR_TOP + 1)
_STIRLERR[:16] = (
    0.0,
    0.08106146679532725821967026,
    0.04134069595540929409382208,
    0.02767792568499833914878929,
    0.02079067210376509311152277,
    0.01664469118982119216319487,
    0.01387612882307074799874573,
    0.01189670994589177009505572,
    0.01041126526197209649747857,
    0.009255462182712732917728637,
    0.008330563433362871256469319,
    0.007573675487951840794972024,
    0.006942840107209529865664153,
    0.006408994188004207068439631,
    0.005951370112758847735624416,
    0.00555473355196280137103869,
)
_k = np.arange(16.0, _STIRLERR_TOP + 1)
_kk = _k * _k
_STIRLERR[16:] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / _kk) / _kk) / _kk) / _kk) / _k
_STIRLERR.flags.writeable = False
del _k, _kk

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


def _stirlerr_at(k: int) -> float:
    # one stirlerr value in Python floats, k >= 1
    return float(_STIRLERR[k]) if k <= _STIRLERR_TOP else (1 / 12 - 1 / 360 / (k * k)) / k


def _stirlerr(k: np.ndarray) -> np.ndarray:
    # stirlerr of an integer array, k >= 1: the table, then the series above it
    kf = k.astype(np.float64)
    return np.where(
        k <= _STIRLERR_TOP,
        _STIRLERR[np.minimum(k, _STIRLERR_TOP)],
        (1 / 12 - 1 / 360 / (kf * kf)) / kf,
    )


def _log_binomial_pmf(n: int, k: np.ndarray) -> np.ndarray:
    """ln[C(n, k) 2^(-n)] for an integer array 0 <= k <= n, by Loader's saddle point.

    With j = min(k, n - k) and v = 1 - 2j/n,

        ln pmf = stirlerr(n) - stirlerr(j) - stirlerr(n - j)
                 - (n/2) sum_i v^(2i) / (i (2i - 1)) - (1/2) ln(2 pi j (n - j) / n)

    where the sum is (1 + v) ln(1 + v) + (1 - v) ln(1 - v), Loader's
    bd0(j, n/2) + bd0(n - j, n/2).  It is summed as a Horner series for
    v < 0.1, where the logarithms would cancel, and through log1p beyond.
    Evaluating at j makes the value exactly symmetric under k <-> n - k.  The
    error is below about 1e-13 absolute for every weight above e^-40.
    """
    j = np.minimum(k, n - k)
    if n < 2:
        return np.full(j.shape, -n * LN2)
    edge = j == 0  # the pmf is 2^(-n) there, and the form below would take log 0
    j = np.where(edge, 1, j)
    rest = n - j
    v = (rest - j) / n
    v2 = v * v
    series = v2 * (1 + v2 * (1 / 6 + v2 * (1 / 15 + v2 * (1 / 28 + v2 * (
        1 / 45 + v2 * (1 / 66 + v2 * (1 / 91 + v2 / 120)))))))
    logs = (1.0 + v) * np.log1p(v) + (1.0 - v) * np.log1p(-v)
    bd0 = (0.5 * n) * np.where(v < 0.1, series, logs)
    if n <= _STIRLERR_TOP:  # every argument is in the table
        st = _STIRLERR[n] - _STIRLERR[j] - _STIRLERR[rest]
    else:
        st = _stirlerr_at(n) - _stirlerr(j) - _stirlerr(rest)
    values = st - bd0 - 0.5 * np.log((2.0 * math.pi) * (j * rest / n))
    return np.where(edge, -n * LN2, values)


def log_binomial(n: int, k: int | np.ndarray) -> float | np.ndarray:
    """ln C(n, k); -inf for k outside [0, n].

    ``k`` may be an integer or an integer array.  The value is Loader's
    saddle-point ln[C(n, k) 2^(-n)] plus n ln 2, so it is exactly symmetric
    under k <-> n - k.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu":
        raise ValueError(f"k must be an integer, got {k!r}")
    inside = (ks >= 0) & (ks <= n)
    values = _log_binomial_pmf(n, np.where(inside, ks, 0)) + n * LN2
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
    """Central binomial weight 2**(-2n) C(2n, n).

    Loader's saddle-point form at its centre, exp(stirlerr(2n) - 2 stirlerr(n))
    / sqrt(pi n), in scalar arithmetic; within a few ulps relative.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    if n == 0:
        return 1.0
    n = int(n)
    st = _stirlerr_at(2 * n) - _stirlerr_at(n) - _stirlerr_at(n)
    return math.exp(st - 0.5 * math.log(math.pi * n))


def stirling_central_weight(n: int) -> float:
    """Stirling estimate 1/sqrt(pi n) of the central binomial weight."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return 1.0 / math.sqrt(math.pi * n)
