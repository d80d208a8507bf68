from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quditpair
from quditpair import SpectralWeights, SpinMagnitude, coherent_x, f_general
from quditpair.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestSweep:
    def test_basic_structure(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--two-s", "3", "--tau-max", "6.0", "--samples", "11"], capsys
        )
        assert code == 0
        assert err == ""
        assert out.startswith("# qudit-pair sweep\n")
        assert "# two_s=3\n" in out
        assert "# s=1.5\n" in out
        header, rows = parse_table(out)
        # default m_max 4 exceeds 2S = 3, so the echo column is dropped
        assert header == ["tau", "t", "f_exact", "f_closed", "f_gauss", "c2_exact", "c2_closed", "c2_asym"]
        assert len(rows) == 11
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 6.0

    def test_echo_column_appears_when_order_fits(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--two-s", "9", "--tau-max", "6.0", "--samples", "3"], capsys
        )
        assert code == 0
        header, _ = parse_table(out)
        assert header[-2:] == ["c2_asym", "c2_echo"]

    def test_two_level_c2_is_sin_squared(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--two-s", "1", "--quantity", "c2", "--tau-max", "7.0", "--samples", "60"],
            capsys,
        )
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["tau", "t", "c2_exact", "c2_closed"]
        for row in rows:
            tau = float(row[0])
            for col in (2, 3):
                assert abs(float(row[col]) - math.sin(tau) ** 2) < 1e-10

    def test_first_row_is_uncorrelated(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--two-s", "8", "--tau-max", "1.0", "--samples", "2"], capsys
        )
        assert code == 0
        header, rows = parse_table(out)
        first = dict(zip(header, map(float, rows[0])))
        assert abs(first["f_exact"] - 1.0) < 1e-12
        assert abs(first["f_closed"] - 1.0) < 1e-12
        assert abs(first["c2_exact"]) < 1e-12
        assert abs(first["c2_closed"]) < 1e-12

    def test_byte_determinism(self, tmp_path):
        args = ["sweep", "--two-s", "5", "--tau-max", "30.0", "--samples", "200"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rows_round_trip_bit_exactly(self, capsys):
        # repr round-trips floats, so a consumer can regenerate any row
        code, out, _ = run_cli(
            ["sweep", "--two-s", "3", "--quantity", "f", "--method", "exact",
             "--tau-max", "17.0", "--samples", "50"],
            capsys,
        )
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["tau", "t", "f_exact"]
        w = SpectralWeights.from_state(coherent_x(SpinMagnitude(3)))
        for row in rows:
            tau = float(row[0])
            assert float(row[2]) == f_general(w, tau).real

    def test_period_units_scale_tau_max(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--two-s", "3", "--tau-max", "0.5", "--period-units",
             "--samples", "5", "--quantity", "f", "--method", "closed"],
            capsys,
        )
        assert code == 0
        _, rows = parse_table(out)
        assert float(rows[-1][0]) == 0.5 * (2.0 * math.pi * 3)

    def test_uniform_all_emits_sinc(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--two-s", "4", "--state", "uniform", "--quantity", "f",
             "--tau-max", "2.0", "--samples", "3"],
            capsys,
        )
        assert code == 0
        header, _ = parse_table(out)
        assert header == ["tau", "t", "f_exact", "f_closed", "f_sinc"]

    def test_t_column_rescales_with_coupling(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--two-s", "2", "--j", "4.0", "--tau-max", "8.0",
             "--samples", "3", "--quantity", "f", "--method", "closed"],
            capsys,
        )
        assert code == 0
        _, rows = parse_table(out)
        for row in rows:
            assert float(row[1]) == float(row[0]) / 4.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--two-s", "0", "--tau-max", "1.0"],
            ["sweep", "--two-s", "3", "--tau-max", "0.0"],
            ["sweep", "--two-s", "3", "--tau-max", "-2.0"],
            ["sweep", "--two-s", "3", "--tau-max", "1.0", "--samples", "1"],
            ["sweep", "--two-s", "3", "--tau-max", "1.0", "--j", "0.0"],
            ["sweep", "--two-s", "4", "--tau-max", "1.0", "--state", "uniform",
             "--method", "asymptotic"],
            ["sweep", "--two-s", "1", "--tau-max", "1.0", "--method", "asymptotic"],
            ["sweep", "--two-s", "4", "--tau-max", "1.0", "--method", "echo",
             "--m-max", "6"],
            ["sweep", "--two-s", "200", "--tau-max", "1.0"],
            ["sweep", "--two-s", "200", "--tau-max", "1.0", "--method", "exact"],
            ["sweep", "--two-s", "3", "--tau-max", "inf"],
            ["sweep", "--two-s", "3", "--tau-max", "nan"],
            ["sweep", "--two-s", "3", "--tau-max", "1.0", "--j", "inf"],
            ["sweep", "--two-s", "3", "--tau-max", "1.0", "--j", "nan"],
            ["sweep", "--two-s", "3", "--tau-max", "1.0", "--j", "1e-320"],
            ["sweep", "--two-s", "3", "--tau-max", "1e308", "--period-units"],
            ["verify", "--max-two-s", "2", "--tolerance", "nan"],
            ["verify", "--max-two-s", "2", "--tolerance", "inf"],
            ["sweep", "--two-s", "4", "--tau-max", "1e306", "--period-units", "--samples", "2"],
            ["sweep", "--two-s", "4", "--tau-max", "1e300", "--method", "exact"],
            ["sweep", "--two-s", "4", "--tau-max", "1e200", "--method", "asymptotic"],
        ],
    )
    def test_usage_errors_exit_two(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error: ")

    def test_large_spin_closed_method_allowed(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--two-s", "2000", "--tau-max", "1.0", "--method", "closed",
             "--samples", "3"],
            capsys,
        )
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["tau", "t", "f_closed", "c2_closed"]
        assert len(rows) == 3

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--two-s", "3", "--tau-max", "1.0", "--frobnicate"])
        assert exc.value.code == 2


class TestFigure:
    def test_asymptotic_comparison_has_three_curves(self, capsys):
        code, out, _ = run_cli(["figure", "fig3", "--samples", "20"], capsys)
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["tau", "c2_exact", "c2_asym", "c2_echo"]
        assert len(rows) == 20
        assert float(rows[-1][0]) == pytest.approx(9 * math.pi)

    def test_small_spin_panel(self, capsys):
        code, out, _ = run_cli(["figure", "fig2a", "--samples", "8"], capsys)
        assert code == 0
        header, rows = parse_table(out)
        assert header == ["tau", "c2_coh_s0.5", "c2_coh_s1", "c2_coh_s1.5"]
        first = list(map(float, rows[0]))
        assert all(abs(v) < 1e-12 for v in first[1:])

    def test_signal_panel_headers(self, capsys):
        code, out, _ = run_cli(["figure", "fig1a", "--samples", "4"], capsys)
        assert code == 0
        header, _ = parse_table(out)
        assert header[0] == "tau"
        assert "f_coh_s0.5" in header
        assert "f_sup_s4.5" in header
        assert len(header) == 9

    def test_unknown_name_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig9"])
        assert exc.value.code == 2

    def test_output_file(self, tmp_path):
        target = tmp_path / "fig4.csv"
        assert main(["figure", "fig4", "--samples", "6", "--output", str(target)]) == 0
        text = target.read_text(encoding="utf-8")
        assert text.startswith("# qudit-pair figure fig4\n")
        header, rows = parse_table(text)
        assert len(rows) == 6
        assert len(header) == 9


class TestVerify:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, err = run_cli(
            ["verify", "--max-two-s", "4", "--samples", "25"], capsys
        )
        assert code == 0
        assert "FAIL" not in out
        lines = [ln for ln in out.splitlines() if ln.endswith("PASS")]
        # 4 spins x 2 states x 5 checks
        assert len(lines) == 40
        assert all("S=" in ln and "state=" in ln and "quantity=" in ln for ln in lines)
        assert "verify: 40/40 checks passed" in out

    def test_zero_tolerance_reports_failure(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--max-two-s", "2", "--samples", "40", "--tolerance", "0.0"],
            capsys,
        )
        assert code == 1
        assert "FAIL" in out

    def test_rejects_bad_bounds(self, capsys):
        for argv in (
            ["verify", "--max-two-s", "0"],
            ["verify", "--max-two-s", "400"],
            ["verify", "--samples", "0"],
            ["verify", "--tolerance", "-1.0"],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == 2
            assert err.startswith("error: ")

    def test_report_to_file(self, tmp_path):
        target = tmp_path / "report.txt"
        assert main(["verify", "--max-two-s", "2", "--samples", "10",
                     "--output", str(target)]) == 0
        assert "checks passed" in target.read_text(encoding="utf-8")


_NO_SCIPY_PROBE = """
import contextlib, io, sys
from quditpair.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["sweep", "--two-s", "9", "--tau-max", "1", "--period-units", "--samples", "5"]),
        main(["sweep", "--two-s", "600", "--method", "closed", "--tau-max", "20",
              "--samples", "5", "--state", "uniform"]),
        main(["figure", "fig4", "--samples", "5"]),
        main(["verify", "--max-two-s", "3", "--samples", "2"]),
    ]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_commands_load_no_scipy():
    # a fresh interpreter, so nothing the test suite imported leaks in
    env = dict(os.environ, PYTHONPATH=str(Path(quditpair.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert done.stdout.strip() == "[0, 0, 0, 0] []"
