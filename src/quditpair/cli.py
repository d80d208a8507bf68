"""qudit-pair command line: deterministic CSV sweeps, figure data, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, TextIO

import numpy as np

from .spin_core import SpinMagnitude
from .state_prep import SingleSpinState, coherent_x, uniform_state
from .evolution import SystemConfig, evolve_product
from .observables import (
    SpectralWeights,
    f_coherent,
    f_gaussian_approx,
    f_general,
    f_sinc_approx,
    f_uniform,
    mean_s1x,
)
from .entanglement import (
    c_squared,
    purity_coherent_closed,
    purity_spectral,
    purity_uniform_closed,
)
from .asymptotics import MinimaConfig, c2_coherent_asymptotic, c2_coherent_asymptotic_minima
from . import oracle

_STATES = ("coherent", "uniform")
_QUANTITIES = ("f", "c2", "both")
_METHODS = ("exact", "closed", "asymptotic", "echo", "all")
_FIGURES = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4")
_EXACT_TWO_S_LIMIT = 128
_VERIFY_SEED = 193101


class UsageError(ValueError):
    """Invalid run specification; reported on stderr with exit code 2."""


@dataclass(frozen=True)
class RunSpec:
    """Everything a sweep needs; tau_max is in units of tau = J t unless
    period_units is set, in which case it counts recurrence periods."""

    two_s: int
    state: str = "coherent"
    quantity: str = "both"
    method: str = "all"
    tau_max: float = 1.0
    period_units: bool = False
    samples: int = 1000
    j: float = 1.0
    m_max: int = 4


def _fmt(x: float) -> str:
    return repr(float(x))


def _make_state(name: str, s: SpinMagnitude) -> SingleSpinState:
    return coherent_x(s) if name == "coherent" else uniform_state(s)


def _validate_spec(spec: RunSpec) -> None:
    if spec.two_s < 1:
        raise UsageError(f"--two-s must be >= 1, got {spec.two_s}")
    if spec.state not in _STATES:
        raise UsageError(f"--state must be one of {_STATES}, got {spec.state!r}")
    if spec.quantity not in _QUANTITIES:
        raise UsageError(f"--quantity must be one of {_QUANTITIES}, got {spec.quantity!r}")
    if spec.method not in _METHODS:
        raise UsageError(f"--method must be one of {_METHODS}, got {spec.method!r}")
    if not (math.isfinite(spec.tau_max) and spec.tau_max > 0.0):
        raise UsageError(f"--tau-max must be positive and finite, got {spec.tau_max}")
    if spec.samples < 2:
        raise UsageError(f"--samples must be >= 2, got {spec.samples}")
    if not (math.isfinite(spec.j) and spec.j > 0.0):
        raise UsageError(f"--j must be positive and finite, got {spec.j}")
    tau_end = _tau_end(spec)
    if not (math.isfinite(tau_end) and math.isfinite(tau_end / spec.j)):
        raise UsageError(
            f"the sweep end tau = {tau_end} and t = tau / J = {tau_end / spec.j} must be finite"
        )
    # the largest phases (the spectral engine's, the Fejer ratio's) reach about
    # 2 d tau; once one ulp of tau moves them by a radian, a row means nothing
    if math.ulp(tau_end) * 2 * (spec.two_s + 1) >= 1.0:
        raise UsageError(
            f"the sweep end tau = {tau_end} is too large: ulp(tau) * 2 * (2S + 1) must be below 1"
        )
    if spec.m_max < 2:
        raise UsageError(f"--m-max must be >= 2, got {spec.m_max}")
    if spec.method in ("asymptotic", "echo") and spec.state != "coherent":
        raise UsageError("asymptotic methods apply to the coherent state only")
    if spec.method in ("asymptotic", "echo") and spec.two_s < 2:
        raise UsageError("asymptotic methods need --two-s >= 2")
    if spec.method == "echo" and spec.m_max > spec.two_s:
        raise UsageError(f"--m-max {spec.m_max} exceeds 2S = {spec.two_s}")
    if spec.method in ("exact", "all") and spec.two_s > _EXACT_TWO_S_LIMIT:
        raise UsageError(
            f"the exact path is limited to --two-s <= {_EXACT_TWO_S_LIMIT}; "
            "use --method closed or asymptotic* for larger spins"
        )


# A column maps a block of taus to one value per tau.
Column = tuple[str, Callable[[np.ndarray], np.ndarray]]

# Rows evaluated per block: bounds the memory a column may use, however large
# --samples is.
_ROW_BLOCK = 256


def _per_tau(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    # a column over a layer that takes one tau at a time
    return lambda taus: np.array([fn(tau) for tau in taus.tolist()])


def _c2_column(purity_at: Callable[[float], float], d: int) -> Callable[[np.ndarray], np.ndarray]:
    purities = _per_tau(purity_at)
    return lambda taus: c_squared(purities(taus), d)


def _sweep_columns(spec: RunSpec) -> list[Column]:
    s = SpinMagnitude(spec.two_s)
    coherent = spec.state == "coherent"
    want_f = spec.quantity in ("f", "both")
    want_c2 = spec.quantity in ("c2", "both")
    include = {spec.method} if spec.method != "all" else {"exact", "closed", "approx"}
    if "exact" in include:
        weights = SpectralWeights.from_state(_make_state(spec.state, s))

    cols: list[Column] = []
    if want_f:
        if "exact" in include:
            cols.append(("f_exact", _per_tau(lambda tau: f_general(weights, tau).real)))
        if "closed" in include:
            cols.append(("f_closed", partial(f_coherent if coherent else f_uniform, s)))
        if ("approx" in include and coherent) or include & {"asymptotic", "echo"}:
            cols.append(("f_gauss", partial(f_gaussian_approx, s)))
        if "approx" in include and not coherent:
            cols.append(("f_sinc", f_sinc_approx))
    if want_c2:
        if "exact" in include:
            cols.append(
                ("c2_exact", lambda taus: c_squared(purity_spectral(weights, weights, taus), s.d))
            )
        if "closed" in include:
            pur = purity_coherent_closed if coherent else purity_uniform_closed
            cols.append(("c2_closed", _c2_column(partial(pur, s), s.d)))
        asym_ok = coherent and s.two_s >= 2
        echo_ok = asym_ok and spec.m_max <= s.two_s
        if "asymptotic" in include or ("approx" in include and asym_ok):
            cols.append(("c2_asym", partial(c2_coherent_asymptotic, s)))
        if "echo" in include or ("approx" in include and echo_ok):
            mcfg = MinimaConfig(spec.m_max)
            cols.append(("c2_echo", lambda taus: c2_coherent_asymptotic_minima(s, taus, mcfg)))
    return cols


def _write_table(
    out: TextIO,
    command: str,
    meta: dict[str, object],
    taus: np.ndarray,
    cols: list[Column],
    j: float | None,
) -> None:
    out.write(f"# qudit-pair {command}\n")
    for key, value in meta.items():
        out.write(f"# {key}={value}\n")
    names = [name for name, _ in cols]
    header = ["tau"] + (["t"] if j is not None else []) + names
    out.write(",".join(header) + "\n")
    for start in range(0, len(taus), _ROW_BLOCK):
        block = taus[start : start + _ROW_BLOCK]
        values = [block] + ([block / j] if j is not None else []) + [fn(block) for _, fn in cols]
        rows = zip(*(v.tolist() for v in values))
        out.write("".join(",".join(map(_fmt, row)) + "\n" for row in rows))


def _tau_end(spec: RunSpec) -> float:
    # the last tau of the sweep, with --period-units resolved
    return spec.tau_max * (2.0 * math.pi * spec.two_s) if spec.period_units else spec.tau_max


def run_sweep(spec: RunSpec, out: TextIO) -> None:
    """Write the sweep CSV described by spec; raises UsageError when invalid."""
    _validate_spec(spec)
    s = SpinMagnitude(spec.two_s)
    tau_max = _tau_end(spec)
    taus = np.linspace(0.0, tau_max, spec.samples)
    meta: dict[str, object] = {
        "two_s": spec.two_s,
        "s": f"{s.s:g}",
        "j": _fmt(spec.j),
        "state": spec.state,
        "quantity": spec.quantity,
        "method": spec.method,
        "samples": spec.samples,
        "m_max": spec.m_max,
        "period_units": spec.period_units,
        "tau_max": _fmt(tau_max),
    }
    _write_table(out, "sweep", meta, taus, _sweep_columns(spec), spec.j)


def _figure_columns(name: str) -> tuple[list[Column], float, dict[str, object]]:
    def lbl(two_s: int) -> str:
        return f"{two_s / 2:g}"

    cols: list[Column] = []
    if name == "fig1a":
        spins = [1, 2, 3, 9]
        for two_s in spins:
            s = SpinMagnitude(two_s)
            cols.append((f"f_coh_s{lbl(two_s)}", partial(f_coherent, s)))
            cols.append((f"f_sup_s{lbl(two_s)}", partial(f_uniform, s)))
        return cols, 18.0 * math.pi, {"spins_two_s": spins}
    if name == "fig1b":
        spins = [50, 200]
        for two_s in spins:
            s = SpinMagnitude(two_s)
            cols.append((f"f_coh_s{lbl(two_s)}", partial(f_coherent, s)))
            cols.append((f"f_gauss_s{lbl(two_s)}", partial(f_gaussian_approx, s)))
            cols.append((f"f_sup_s{lbl(two_s)}", partial(f_uniform, s)))
        cols.append(("f_sinc", f_sinc_approx))
        return cols, 60.0, {"spins_two_s": spins}
    if name == "fig2a":
        spins = [1, 2, 3]
        for two_s in spins:
            s = SpinMagnitude(two_s)
            cols.append(
                (f"c2_coh_s{lbl(two_s)}", _c2_column(partial(purity_coherent_closed, s), s.d))
            )
        return cols, 6.0 * math.pi, {"spins_two_s": spins}
    if name == "fig2b":
        s = SpinMagnitude(9)
        cols.append(("c2_coh_s4.5", _c2_column(partial(purity_coherent_closed, s), s.d)))
        return cols, 9.0 * math.pi, {"spins_two_s": [9]}
    if name == "fig3":
        s = SpinMagnitude(9)
        mcfg = MinimaConfig(4)
        cols.append(("c2_exact", _c2_column(partial(purity_coherent_closed, s), s.d)))
        cols.append(("c2_asym", partial(c2_coherent_asymptotic, s)))
        cols.append(("c2_echo", lambda taus: c2_coherent_asymptotic_minima(s, taus, mcfg)))
        return cols, 9.0 * math.pi, {"spins_two_s": [9], "m_max": 4}
    if name == "fig4":
        spins = [20, 200, 2000, 20000]
        for two_s in spins:
            s = SpinMagnitude(two_s)
            cols.append((f"f_gauss_s{lbl(two_s)}", partial(f_gaussian_approx, s)))
            cols.append((f"c2_asym_s{lbl(two_s)}", partial(c2_coherent_asymptotic, s)))
        return cols, 20.0, {"spins_two_s": spins}
    raise UsageError(f"unknown figure {name!r}; choose from {_FIGURES}")


def run_figure(name: str, out: TextIO, samples: int = 1000) -> None:
    """Write the named figure's curve data as CSV (tau column plus curves)."""
    if samples < 2:
        raise UsageError(f"--samples must be >= 2, got {samples}")
    cols, tau_max, extra = _figure_columns(name)
    taus = np.linspace(0.0, tau_max, samples)
    meta: dict[str, object] = {"figure": name, "samples": samples, "tau_max": _fmt(tau_max)}
    meta.update(extra)
    _write_table(out, f"figure {name}", meta, taus, cols, None)


def run_verify(max_two_s: int, samples: int, tolerance: float, out: TextIO) -> int:
    """Cross-check closed forms against the brute-force path; 0 pass, 1 fail.

    For every spin up to max_two_s and both initial states, `samples` times
    tau are drawn over one recurrence period with a fixed seed, and the
    evolved amplitudes, transverse signal, and purity are compared against
    the dense-tensor computation.  The exact purity is the spectral engine
    that `sweep` prints as c2_exact, evaluated over all the taus at once.
    """
    if not 1 <= max_two_s <= _EXACT_TWO_S_LIMIT:
        raise UsageError(f"--max-two-s must be in [1, {_EXACT_TWO_S_LIMIT}], got {max_two_s}")
    if samples < 1:
        raise UsageError(f"--samples must be >= 1, got {samples}")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise UsageError(f"--tolerance must be non-negative and finite, got {tolerance}")

    rng = np.random.default_rng(_VERIFY_SEED)
    failures = 0
    for two_s in range(1, max_two_s + 1):
        s = SpinMagnitude(two_s)
        cfg = SystemConfig(s, 1.0)
        taus = np.sort(rng.uniform(0.0, cfg.period(), samples))
        for state_name in _STATES:
            psi = _make_state(state_name, s)
            weights = SpectralWeights.from_state(psi)
            pur_closed = purity_coherent_closed if state_name == "coherent" else purity_uniform_closed
            f_closed = f_coherent if state_name == "coherent" else f_uniform
            denom0 = oracle.oracle_mean_s1x(oracle.oracle_evolve(psi, psi, 0.0, cfg))
            pur_exact = purity_spectral(weights, weights, taus)
            worst: dict[str, tuple[float, float]] = {}

            def note(check: str, err: float, tau: float) -> None:
                if check not in worst or err > worst[check][0]:
                    worst[check] = (err, tau)

            for tau, pur_ours in zip(taus.tolist(), pur_exact.tolist()):
                ref = oracle.oracle_evolve(psi, psi, tau, cfg)
                ours = evolve_product(psi, psi, tau, cfg)
                note("evolve", float(np.max(np.abs(ours.amps - ref.amps))), tau)
                mean_ref = oracle.oracle_mean_s1x(ref)
                note("mean-s1x", abs(mean_s1x(psi, psi, tau) - mean_ref), tau)
                note("f-closed", abs(f_closed(s, tau) - mean_ref / denom0), tau)
                pur_ref = oracle.oracle_purity(ref)
                note("purity-closed", abs(pur_closed(s, tau) - pur_ref), tau)
                note("purity-exact", abs(pur_ours - pur_ref), tau)
            for check, (err, tau) in worst.items():
                ok = err <= tolerance
                failures += 0 if ok else 1
                out.write(
                    f"S={s.s:g} state={state_name} quantity={check} "
                    f"max_err={err:.3e} at_tau={tau:.6g} {'PASS' if ok else 'FAIL'}\n"
                )
    total = max_two_s * len(_STATES) * 5
    out.write(
        f"verify: {total - failures}/{total} checks passed "
        f"(max_two_s={max_two_s}, samples={samples}, tolerance={tolerance:g})\n"
    )
    return 0 if failures == 0 else 1


@contextmanager
def _open_output(path: str | None) -> Iterator[TextIO]:
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qudit-pair",
        description="Signals and entanglement of two Ising-coupled spin-S qudits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sweep", help="CSV sweep of F and/or C^2 over tau = J t")
    ps.add_argument("--two-s", type=int, required=True, help="doubled spin 2S (integer >= 1)")
    ps.add_argument("--j", type=float, default=1.0, help="coupling strength J > 0 (default 1)")
    ps.add_argument("--state", choices=_STATES, default="coherent", help="initial product state")
    ps.add_argument("--quantity", choices=_QUANTITIES, default="both", help="columns to emit")
    ps.add_argument(
        "--method",
        choices=_METHODS,
        default="all",
        help="evaluation path; 'all' emits every path applicable to the state",
    )
    ps.add_argument("--tau-max", type=float, required=True, help="sweep end in tau = J t")
    ps.add_argument(
        "--period-units",
        action="store_true",
        help="read --tau-max as a multiple of the recurrence period 4 pi S",
    )
    ps.add_argument("--samples", type=int, default=1000, help="rows in the sweep (default 1000)")
    ps.add_argument("--m-max", type=int, default=4, help="largest echo order for --method echo")
    ps.add_argument("--output", default=None, help="output file (default: stdout)")

    pf = sub.add_parser("figure", help="CSV data for one of the canned figures")
    pf.add_argument("name", choices=_FIGURES, help="which figure to tabulate")
    pf.add_argument("--samples", type=int, default=1000, help="rows per curve (default 1000)")
    pf.add_argument("--output", default=None, help="output file (default: stdout)")

    pv = sub.add_parser("verify", help="cross-check closed forms against brute force")
    pv.add_argument("--max-two-s", type=int, default=9, help="verify spins up to this 2S")
    pv.add_argument("--samples", type=int, default=100, help="tau draws per spin and state")
    pv.add_argument("--tolerance", type=float, default=1e-10, help="largest allowed |error|")
    pv.add_argument("--output", default=None, help="report file (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            spec = RunSpec(
                two_s=args.two_s,
                state=args.state,
                quantity=args.quantity,
                method=args.method,
                tau_max=args.tau_max,
                period_units=args.period_units,
                samples=args.samples,
                j=args.j,
                m_max=args.m_max,
            )
            with _open_output(args.output) as out:
                run_sweep(spec, out)
            return 0
        if args.command == "figure":
            with _open_output(args.output) as out:
                run_figure(args.name, out, samples=args.samples)
            return 0
        with _open_output(args.output) as out:
            return run_verify(args.max_two_s, args.samples, args.tolerance, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
