"""The README quick start runs against the package as it is."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    block = re.search(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert block is not None, "README.md has no ```python block"
    exec(compile(block.group(1), str(README), "exec"), {})
