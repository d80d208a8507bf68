"""The CLI reproduces the committed CSV corpus in tests/golden.

Comment lines and header rows must match byte for byte; values must match
within golden_corpus.VALUE_TOL absolute, column by column.
"""

from __future__ import annotations

import pytest

from golden_corpus import CASES, GOLDEN_DIR, VALUE_TOL, column_changes, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden_csv(name):
    expected = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    changes = column_changes(expected, run_case(CASES[name]))
    moved = {col: err for col, err in changes.items() if not err <= VALUE_TOL}
    assert not moved, f"{name}: columns moved past {VALUE_TOL:g}: {moved}"
