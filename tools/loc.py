"""Count the source lines of each geobench module.

    python3 tools/loc.py [SOURCE_DIR]

A line counts unless it is blank or its first non-blank character is "#";
docstrings count. Prints one "<lines> <module>" line per module of
SOURCE_DIR (default: src/geobench beside this script's directory), sorted
by name, then the total.
"""

from __future__ import annotations

import sys
from pathlib import Path


def count_lines(text: str) -> int:
    """The lines of `text` that are neither blank nor comments."""
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    source = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "geobench"
    total = 0
    for path in sorted(source.glob("*.py")):
        lines = count_lines(path.read_text(encoding="utf-8"))
        total += lines
        print(f"{lines:5d} {path.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
