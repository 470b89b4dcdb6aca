#!/usr/bin/env python3
"""List every ``raise`` statement in ``src/latquot`` that the test suite never executes.

Runs the tier-1 suite (``tests/``) in this process under a ``sys.settrace``
line tracer that records only the lines of the library's own modules, then
finds each ``ast.Raise`` in ``src/latquot/*.py`` and prints the ones whose
first line never ran.  Only code run in this process counts: a branch that
the tests reach only through a subprocess is reported as untested.  Run it
from anywhere, with pytest installed (the suite needs it):

    python3 tests/untested_raises.py

It exits 1 when the suite fails or any raise is unreached, 0 otherwise.  The
trace slows the suite down about three to four times.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "latquot"


def raise_lines() -> dict[str, list[int]]:
    """The first line of every raise statement, per module file."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        out[str(path)] = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise))
    return out


def main() -> int:
    wanted = raise_lines()
    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest  # the suite's runner, not a dependency of the library

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [(path, line) for path, lines in wanted.items() for line in lines if (path, line) not in hit]
    total = sum(map(len, wanted.values()))
    print(f"{total - len(missed)} of {total} raise statements in src/latquot run under the tests")
    for path, line in missed:
        print(f"untested: {Path(path).relative_to(ROOT)}:{line}")
    return 1 if code or missed else 0


if __name__ == "__main__":
    sys.exit(main())
