"""The committed CSV corpus that pins the CLI's output across refactors.

Each case is one `qudit-pair` command at 65 rows; its expected output is
`tests/golden/<name>.csv`.  `tests/test_golden.py` re-runs every case through
`cli.main` in-process and compares it with `column_changes`.

Run this file to rewrite the corpus from the current code:

    PYTHONPATH=src python tests/golden_corpus.py

It prints, for each file, the largest absolute change per column against the
files it replaces, so a rewrite that moves any value is visible.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

from quditpair.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ROWS = "65"
VALUE_TOL = 1e-13  # absolute, per value: BLAS and SIMD libm may move last bits across CPUs

CASES: dict[str, list[str]] = {}
for _two_s in (1, 2, 9, 128):
    for _state in ("coherent", "uniform"):
        CASES[f"sweep-2s{_two_s}-{_state}"] = [
            "sweep", "--two-s", str(_two_s), "--state", _state,
            "--tau-max", "1", "--period-units", "--samples", ROWS,
        ]
for _two_s in (600, 20000):
    for _state in ("coherent", "uniform"):
        CASES[f"closed-2s{_two_s}-{_state}"] = [
            "sweep", "--two-s", str(_two_s), "--state", _state,
            "--method", "closed", "--tau-max", "20", "--samples", ROWS,
        ]
CASES["echo-2s9"] = [
    "sweep", "--two-s", "9", "--method", "echo", "--tau-max", "1", "--period-units",
    "--samples", ROWS,
]
for _name in ("fig1a", "fig1b", "fig2a", "fig2b", "fig3", "fig4"):
    CASES[_name] = ["figure", _name, "--samples", ROWS]


def run_case(argv: list[str]) -> str:
    """Stdout of `qudit-pair argv`, run in-process; raises unless it exits 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"qudit-pair {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _split(text: str) -> tuple[list[str], list[list[float]]]:
    # comment lines and the header row verbatim, then the values as floats
    lines = text.splitlines()
    n_head = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    rows = [[float(v) for v in ln.split(",")] for ln in lines[n_head:]]
    return lines[:n_head], rows


def column_changes(expected: str, actual: str) -> dict[str, float]:
    """Largest |actual - expected| per column; raises if the layout differs.

    The layout is the comment lines, the header row, the row count and the
    number of values per row; NaN on either side counts as an infinite change.
    """
    head_e, rows_e = _split(expected)
    head_a, rows_a = _split(actual)
    if head_a != head_e:
        raise AssertionError(f"comment or header lines differ:\n{head_e}\n!=\n{head_a}")
    if len(rows_a) != len(rows_e):
        raise AssertionError(f"{len(rows_a)} rows, expected {len(rows_e)}")
    names = head_e[-1].split(",")
    worst = dict.fromkeys(names, 0.0)
    for i, (row_e, row_a) in enumerate(zip(rows_e, rows_a)):
        if len(row_a) != len(names) or len(row_e) != len(names):
            raise AssertionError(f"row {i} has {len(row_a)} values, expected {len(names)}")
        for name, e, a in zip(names, row_e, row_a):
            change = abs(a - e)
            worst[name] = max(worst[name], change if not math.isnan(change) else math.inf)
    return worst


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        path = GOLDEN_DIR / f"{name}.csv"
        actual = run_case(argv)
        if path.exists():
            try:
                changes = column_changes(path.read_text(encoding="utf-8"), actual)
                report = "  ".join(f"{col}={err:.3g}" for col, err in changes.items())
            except AssertionError as exc:
                report = f"layout changed: {exc}"
        else:
            report = "new"
        path.write_text(actual, encoding="utf-8", newline="\n")
        print(f"{path.name}: {report}")


if __name__ == "__main__":
    regenerate()
