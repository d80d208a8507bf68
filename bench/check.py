"""Correctness gate: every output row is checked, outside the timed region.

An operation is one output row; a verify row is one (spin, state, tau) triple
checked. A row fails on a non-zero exit, a missing or extra row, a wrong
header, a non-finite value, an exact or closed-form C^2 outside [0, 1], two
routes to the same quantity disagreeing, or a reference disagreeing by more
than TOLERANCE. References run on a seeded reservoir of rows per command
family: the package's dense-tensor oracle at d <= 129, and mpmath evaluations
of the documented formulas beyond that and for the approximation columns.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

import mpmath

from quditpair import SpinMagnitude, SystemConfig, coherent_x, oracle, uniform_state
from workloads import M_MAX, Command, expected_taus

TOLERANCE = 1e-10  # the documented `qudit-pair verify` tolerance
ORACLE_MAX_D = 129
_MP_DPS = 30
_STIRLING_FROM_TWO_S = 513  # c2_coherent_asymptotic's documented switch to 1/sqrt(pi 2S)

_VERIFY_LINE = re.compile(r"S=(\S+) state=(\S+) quantity=(\S+) max_err=(\S+) at_tau=\S+ (PASS|FAIL)$")
_VERIFY_SUMMARY = re.compile(r"verify: (\d+)/(\d+) checks passed")
_VERIFY_CHECKS = 5


@dataclass
class _Sample:
    row_id: tuple
    command: Command
    tau: float
    values: dict[str, float]


@dataclass
class Gate:
    """Counts attempted and failed rows; reference-checks a seeded reservoir."""

    rng: random.Random
    reservoir_size: int
    attempted: int = 0
    max_abs_err: float = 0.0
    # Output positions (command, row, column) where a C^2 approximation falls
    # outside [0, 1]: the asymptotic envelope's own truncation error, which
    # its reference reproduces, so counted here and not failed.
    approx_out_of_range: set = field(default_factory=set)
    _failed: set = field(default_factory=set)
    _seen: dict = field(default_factory=dict)
    _reservoir: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self._failed)

    def check(self, key: object, command: Command, exit_code: int, text: str) -> None:
        """Check one command's output; key names this invocation uniquely."""
        self.attempted += command.rows
        if exit_code != 0:
            self._fail_all(key, command)
        elif command.argv[0] == "verify":
            self._check_verify(key, command, text)
        else:
            self._check_table(key, command, text)

    def finish(self) -> None:
        """Run the reference checks on the reservoir rows."""
        refs = _References()
        for samples in self._reservoir.values():
            for sample in samples:
                for name, value in sample.values.items():
                    kind, two_s, state = column_kind(name, sample.command)
                    ref = refs.value(kind, two_s, state, sample.tau)
                    self._compare(sample.row_id, value, ref)
        self._reservoir.clear()

    # -- internals -------------------------------------------------------

    def _fail_all(self, key: object, command: Command) -> None:
        self._failed.update((key, i) for i in range(command.rows))

    def _compare(self, row_id: tuple, value: float, ref: float) -> None:
        err = abs(value - ref)
        if not err <= TOLERANCE:
            self._failed.add(row_id)
        if math.isfinite(err):
            self.max_abs_err = max(self.max_abs_err, err)

    def _check_table(self, key: object, command: Command, text: str) -> None:
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        if not lines or tuple(lines[0].split(",")) != command.columns or len(lines) - 1 != command.rows:
            self._fail_all(key, command)
            return
        columns = command.columns
        taus = expected_taus(command)
        pairs = [
            (columns.index(a), columns.index(b))
            for a, b in (("f_exact", "f_closed"), ("c2_exact", "c2_closed"))
            if a in columns and b in columns
        ]
        c2_exact = [i for i, c in enumerate(columns) if c.startswith("c2_") and not _is_approx(c)]
        c2_approx = [i for i, c in enumerate(columns) if c.startswith("c2_") and _is_approx(c)]
        has_t = columns[1] == "t"
        for r, line in enumerate(lines[1:]):
            row_id = (key, r)
            try:
                vals = [float(x) for x in line.split(",")]
            except ValueError:
                self._failed.add(row_id)
                continue
            tau = vals[0]
            ok = (
                len(vals) == len(columns)
                and all(math.isfinite(v) for v in vals)
                and abs(tau - taus[r]) <= 1e-12 * max(1.0, abs(taus[r]))
                and (not has_t or vals[1] == tau / command.j)
                and all(0.0 <= vals[i] <= 1.0 for i in c2_exact)
            )
            if not ok:
                self._failed.add(row_id)
                continue
            self.approx_out_of_range.update(
                (command.argv, r, i) for i in c2_approx if not 0.0 <= vals[i] <= 1.0)
            for a, b in pairs:
                self._compare(row_id, vals[a], vals[b])
            self._offer(_Sample(row_id, command, tau, dict(zip(columns[1 + has_t:], vals[1 + has_t:]))))

    def _offer(self, sample: _Sample) -> None:
        # reservoir sampling (Algorithm R) per command family
        if self.reservoir_size == 0:
            return
        family = sample.command.family
        seen = self._seen.get(family, 0) + 1
        self._seen[family] = seen
        bucket = self._reservoir.setdefault(family, [])
        if len(bucket) < self.reservoir_size:
            bucket.append(sample)
        else:
            slot = self.rng.randrange(seen)
            if slot < self.reservoir_size:
                bucket[slot] = sample

    def _check_verify(self, key: object, command: Command, text: str) -> None:
        max_two_s = command.two_s
        samples = command.rows // (2 * max_two_s)
        lines = text.splitlines()
        total = max_two_s * 2 * _VERIFY_CHECKS
        summary = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
        if summary is None or summary.groups() != (str(total), str(total)):
            self._fail_all(key, command)
            return
        passed: dict[tuple[str, str], int] = {}
        for line in lines[:-1]:
            m = _VERIFY_LINE.match(line)
            if m is None:
                continue
            s, state, _, err, verdict = m.groups()
            group = (s, state)
            passed[group] = passed.get(group, 0) + (verdict == "PASS")
            self.max_abs_err = max(self.max_abs_err, float(err))
        groups = [(f"{t / 2:g}", st) for t in range(1, max_two_s + 1) for st in ("coherent", "uniform")]
        for g, group in enumerate(groups):
            if passed.get(group, 0) != _VERIFY_CHECKS:
                self._failed.update((key, g * samples + i) for i in range(samples))


def _is_approx(column: str) -> bool:
    return column.split("_")[1] in ("gauss", "sinc", "asym", "echo")


def column_kind(column: str, command: Command) -> tuple[str, int, str]:
    """(quantity, 2S, state) a column is documented to hold.

    Exact and closed-form routes to F or C^2 map to the quantity "f" or "c2";
    approximations keep their own name, e.g. "c2_asym".
    """
    parts = column.split("_")
    two_s, state = command.two_s, command.state
    if len(parts) == 3:
        two_s = round(2.0 * float(parts[2][1:]))
    quantity, route = parts[0], parts[1]
    if route in ("coh", "sup"):
        state = "coherent" if route == "coh" else "uniform"
        route = "exact"
    if route in ("exact", "closed"):
        return quantity, two_s, state
    return f"{quantity}_{route}", two_s, state


class _References:
    """Independent values of every column kind at one tau."""

    def __init__(self) -> None:
        self._oracle_cache: dict[tuple[int, str], tuple] = {}

    def value(self, kind: str, two_s: int, state: str, tau: float) -> float:
        if kind in ("f", "c2") and two_s + 1 <= ORACLE_MAX_D:
            return self._oracle(kind, two_s, state, tau)
        with mpmath.workdps(_MP_DPS):
            return float(_MP[kind](two_s, state, mpmath.mpf(tau)))

    def _oracle(self, kind: str, two_s: int, state: str, tau: float) -> float:
        key = (two_s, state)
        if key not in self._oracle_cache:
            s = SpinMagnitude(two_s)
            cfg = SystemConfig(s, 1.0)
            psi = coherent_x(s) if state == "coherent" else uniform_state(s)
            denom0 = oracle.oracle_mean_s1x(oracle.oracle_evolve(psi, psi, 0.0, cfg))
            self._oracle_cache[key] = (psi, cfg, denom0)
        psi, cfg, denom0 = self._oracle_cache[key]
        joint = oracle.oracle_evolve(psi, psi, tau, cfg)
        if kind == "f":
            return oracle.oracle_mean_s1x(joint) / denom0
        d = two_s + 1
        return d * (1.0 - oracle.oracle_purity(joint)) / (d - 1.0)


# mpmath evaluations of the formulas the package documents, at _MP_DPS digits.

def _mp_f(two_s, state, tau):
    x = tau / two_s
    if state == "coherent":
        return mpmath.cos(x) ** two_s
    if x == 0:
        return mpmath.mpf(1)
    d = two_s + 1
    return mpmath.sin(d * x) / (d * mpmath.sin(x))


def _mp_purity_coherent(two_s, tau):
    # 2^-4S [C(4S, 2S) + 2 sum_M C(4S, 2S+M) cos(M tau / 2S)^4S]; the weights
    # fall monotonically in M and |cos| <= 1, so the sum stops once the
    # remaining weights cannot reach 1e-40.
    four_s = 2 * two_s
    w = mpmath.binomial(four_s, two_s) / mpmath.mpf(2) ** four_s
    total = w
    for m in range(1, two_s + 1):
        w = w * (four_s - (two_s + m) + 1) / (two_s + m)
        if w * (two_s - m + 1) < mpmath.mpf("1e-40"):
            break
        total += 2 * w * mpmath.cos(m * tau / two_s) ** four_s
    return total


def _mp_purity_uniform(two_s, tau):
    # 1/d + (2/d^4) sum_M (d - M) [sin(d y / 2) / sin(y / 2)]^2, y = M tau / S
    d = two_s + 1
    terms = []
    for m in range(1, d):
        half = m * tau / two_s
        den = mpmath.sin(half)
        terms.append((d - m) * (mpmath.mpf(d * d) if den == 0 else (mpmath.sin(d * half) / den) ** 2))
    return 2 * mpmath.fsum(terms) / mpmath.mpf(d) ** 4 + mpmath.mpf(1) / d


def _mp_c2(two_s, state, tau):
    d = two_s + 1
    p = _mp_purity_coherent(two_s, tau) if state == "coherent" else _mp_purity_uniform(two_s, tau)
    return d * (1 - p) / (d - 1)


def _mp_c2_asym(two_s, state, tau):
    if two_s < _STIRLING_FROM_TWO_S:
        m0 = mpmath.binomial(2 * two_s, two_s) / mpmath.mpf(4) ** two_s
    else:
        m0 = 1 / mpmath.sqrt(mpmath.pi * two_s)
    g = 1 / mpmath.sqrt(1 + tau * tau)
    tail = 1 - mpmath.erf(mpmath.sqrt((tau * tau + 1) / (4 * two_s)))
    return mpmath.mpf(two_s + 1) / two_s * (1 - g * tail - m0)


def _mp_c2_echo(two_s, state, tau):
    train = mpmath.fsum(
        mpmath.exp(-mpmath.mpf(m * m) / two_s * (1 + (tau - mpmath.pi * two_s * n / m) ** 2))
        for m in range(2, M_MAX + 1)
        for n in range(1, m + 1)
    )
    pref = mpmath.mpf(two_s + 1) / two_s
    return _mp_c2_asym(two_s, state, tau) - pref * 2 / mpmath.sqrt(mpmath.pi * two_s) * train


_MP = {
    "f": _mp_f,
    "c2": _mp_c2,
    "f_gauss": lambda two_s, state, tau: mpmath.exp(-tau * tau / (2 * two_s)),
    "f_sinc": lambda two_s, state, tau: mpmath.sinc(tau),
    "c2_asym": _mp_c2_asym,
    "c2_echo": _mp_c2_echo,
}
