"""Set-up time of one qudit-pair command, measured in a fresh interpreter.

    python3 bench/probe.py sweep --two-s 9 --tau-max 1

prints the seconds from `import quditpair.cli` to the first data row: the
first CSV row after the header, or the first line of a verify report. The
command is stopped there.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


class _FirstRow(Exception):
    pass


class _Watch:
    """Stands in for stdout and stops the command at its first data row."""

    def __init__(self, skip: int) -> None:
        self._skip = skip  # non-comment lines before the first data row
        self.at = 0.0

    def write(self, text: str) -> int:
        for line in text.splitlines():
            if line and not line.startswith("#"):
                if self._skip == 0:
                    self.at = time.process_time()
                    raise _FirstRow
                self._skip -= 1
        return len(text)

    def flush(self) -> None:
        pass


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.process_time()
    import quditpair.cli

    watch = _Watch(skip=0 if argv[0] == "verify" else 1)
    real, sys.stdout = sys.stdout, watch
    try:
        quditpair.cli.main(argv)
    except _FirstRow:
        pass
    finally:
        sys.stdout = real
    if watch.at == 0.0:
        print("probe: the command wrote no data row", file=sys.stderr)
        return 1
    print(repr(watch.at - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
