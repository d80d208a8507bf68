"""The benchmark's workloads: which qudit-pair commands one pass runs.

A pass is the unit of one throughput sample. Passes are drawn from a seeded
``random.Random`` so the same seed gives the same commands. Each command
carries what the correctness gate expects of its output: the CSV header, the
tau grid, and the spin and state its columns refer to.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must contain."""

    argv: tuple[str, ...]
    family: str  # groups commands whose rows share a reference-check reservoir
    rows: int
    columns: tuple[str, ...] = ()  # expected CSV header; empty for verify
    tau_max: float = 0.0
    two_s: int = 0  # spin of columns whose name carries none
    state: str = "coherent"
    j: float | None = None  # coupling when the table has a t column


@dataclass(frozen=True)
class Size:
    """Per-command size: spins drawn from [two_s_lo, two_s_hi], rows per command."""

    two_s_lo: int
    two_s_hi: int
    samples: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # why the workload exists and how it uses the seed
    full: Size
    tiny: Size
    make_passes: Callable[[random.Random, Size], Iterator[list[Command]]]
    reservoir: int  # reference-checked rows per command family and run


M_MAX = 4  # the CLI's default --m-max, which fig3 uses too


def _sweep_columns(state: str, method: str, two_s: int) -> tuple[str, ...]:
    # The header the README documents for `sweep --quantity both`.
    if method == "closed":
        return ("tau", "t", "f_closed", "c2_closed")
    f_cols = ["f_exact", "f_closed"]
    c2_cols = ["c2_exact", "c2_closed"]
    if state == "coherent":
        f_cols.append("f_gauss")
        if two_s >= 2:
            c2_cols.append("c2_asym")
            if M_MAX <= two_s:
                c2_cols.append("c2_echo")
    else:
        f_cols.append("f_sinc")
    return ("tau", "t", *f_cols, *c2_cols)


def _exact_passes(rng: random.Random, size: Size) -> Iterator[list[Command]]:
    # 2S is drawn without replacement from the range, one shuffled cycle after
    # another, so every run sees the same mix of sizes in a seeded order.
    spins = list(range(size.two_s_lo, size.two_s_hi + 1))
    while True:
        rng.shuffle(spins)
        for two_s in list(spins):
            period = 2.0 * math.pi * two_s
            yield [
                Command(
                    argv=("sweep", "--two-s", str(two_s), "--period-units", "--tau-max", "1",
                          "--method", "all", "--quantity", "both", "--state", state,
                          "--samples", str(size.samples)),
                    family=f"sweep-{state}",
                    rows=size.samples,
                    columns=_sweep_columns(state, "all", two_s),
                    tau_max=period,
                    two_s=two_s,
                    state=state,
                    j=1.0,
                )
                for state in ("coherent", "uniform")
            ]


def _closed_passes(rng: random.Random, size: Size) -> Iterator[list[Command]]:
    while True:
        two_s = rng.randint(size.two_s_lo, size.two_s_hi)
        tau_max = rng.uniform(15.0, 25.0)
        yield [
            Command(
                argv=("sweep", "--two-s", str(two_s), "--method", "closed",
                      "--tau-max", repr(tau_max), "--state", state,
                      "--samples", str(size.samples)),
                family=f"sweep-{state}",
                rows=size.samples,
                columns=_sweep_columns(state, "closed", two_s),
                tau_max=tau_max,
                two_s=two_s,
                state=state,
                j=1.0,
            )
            for state in ("coherent", "uniform")
        ]


def _verify_passes(rng: random.Random, size: Size) -> Iterator[list[Command]]:
    # The CLI fixes its own sampling seed, so every pass is the same command.
    command = Command(
        argv=("verify", "--max-two-s", str(size.two_s_hi), "--samples", str(size.samples)),
        family="verify",
        rows=size.two_s_hi * 2 * size.samples,
        two_s=size.two_s_hi,
    )
    while True:
        yield [command]


def _lbl(two_s: int) -> str:
    return f"{two_s / 2:g}"


# Each figure's header, tau range and the spin of its unlabelled columns, as
# the README's figure table documents them.
FIGURES: dict[str, tuple[tuple[str, ...], float, int]] = {
    "fig1a": (
        tuple(f"{q}_s{_lbl(t)}" for t in (1, 2, 3, 9) for q in ("f_coh", "f_sup")),
        18.0 * math.pi,
        0,
    ),
    "fig1b": (
        tuple(f"{q}_s{_lbl(t)}" for t in (50, 200) for q in ("f_coh", "f_gauss", "f_sup"))
        + ("f_sinc",),
        60.0,
        0,
    ),
    "fig2a": (tuple(f"c2_coh_s{_lbl(t)}" for t in (1, 2, 3)), 6.0 * math.pi, 0),
    "fig2b": (("c2_coh_s4.5",), 9.0 * math.pi, 9),
    "fig3": (("c2_exact", "c2_asym", "c2_echo"), 9.0 * math.pi, 9),
    "fig4": (
        tuple(f"{q}_s{_lbl(t)}" for t in (20, 200, 2000, 20000) for q in ("f_gauss", "c2_asym")),
        20.0,
        0,
    ),
}


def _figure_passes(rng: random.Random, size: Size) -> Iterator[list[Command]]:
    commands = [
        Command(
            argv=("figure", name, "--samples", str(size.samples)),
            family=name,
            rows=size.samples,
            columns=("tau", *columns),
            tau_max=tau_max,
            two_s=two_s,
        )
        for name, (columns, tau_max, two_s) in FIGURES.items()
    ]
    while True:
        yield commands


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="exact-d129",
            why="dense tensor path at 2S=120..128: evolve_product, reduced_density and the "
            "fsum in purity do ~90% of the work; seed shuffles the 2S cycle; a pass sweeps "
            "both states",
            full=Size(120, 128, 10),
            tiny=Size(6, 8, 6),
            make_passes=_exact_passes,
            reservoir=6,
        ),
        Workload(
            name="closed-d20001",
            why="closed-form sums over 2S terms at 2S=19000..20000, no tensors, no oracle; "
            "seed draws 2S and --tau-max in [15, 25) per pass; a pass sweeps both states",
            full=Size(19000, 20000, 15),
            tiny=Size(60, 80, 6),
            make_passes=_closed_passes,
            reservoir=2,
        ),
        Workload(
            name="verify-d64",
            why="verify --max-two-s 64: thousands of small-d evolution and entanglement calls "
            "plus the oracle, so cost per call rules; no seed, verify fixes its own",
            full=Size(64, 64, 1),
            tiny=Size(4, 4, 1),
            make_passes=_verify_passes,
            reservoir=0,
        ),
        Workload(
            name="figures",
            why="all six figure commands: scalar closed forms, asymptotics and spin_core at "
            "d<=21 plus repr formatting in cli; no input seed, it picks the rows to "
            "reference-check",
            full=Size(0, 0, 250),
            tiny=Size(0, 0, 12),
            make_passes=_figure_passes,
            reservoir=3,
        ),
    )
}


def expected_taus(command: Command) -> np.ndarray:
    """The tau grid a sweep or figure is documented to print."""
    return np.linspace(0.0, command.tau_max, command.rows)
