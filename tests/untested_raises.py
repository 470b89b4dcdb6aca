#!/usr/bin/env python3
"""List every ``raise`` statement in ``src/latquot`` that the test suite never executes.

Finds each ``ast.Raise`` in ``src/latquot/*.py``, runs the tier-1 suite
(``tests/``) in this process under a ``sys.settrace`` line tracer, and
prints the raises whose first line never ran.  The tracer follows only the
frames whose code object holds a raise that has not run yet, so a long loop
in a function with no such raise (an enumeration, say) sends no line
events; each of its frames costs one call event.  Only code run in this
process counts: a branch that the tests reach only through a subprocess is
reported as untested.  Run it from anywhere, with pytest installed (the
suite needs it):

    python3 tests/untested_raises.py

It exits 1 when the suite fails, when any raise is unreached, or when the
tracer was removed during the run (Python drops a trace function that
raises), since the report would then list raises that do run; 0 otherwise.
The trace slows the suite down about two to three times.
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

    # id(code) -> (code, its raise lines not yet run); holding the code keeps its id its own
    pending: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        entry = pending.get(id(code))
        if entry is None:
            own = {line for _, _, line in code.co_lines()}
            entry = pending[id(code)] = (code, [line for line in wanted.get(code.co_filename, ()) if line in own])
        lines = entry[1]
        if lines and all((code.co_filename, line) in hit for line in lines):
            lines.clear()
        return local if lines else None

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest  # the suite's runner, not a dependency of the library

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        dropped = sys.gettrace() is not tracer
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if dropped:
        print("the line tracer was removed during the run, most likely by an exception raised inside it "
              "(such as a SIGALRM TimeoutError); the raises it missed are unknown, so no report is printed")
        return 1
    missed = [(path, line) for path, lines in wanted.items() for line in lines if (path, line) not in hit]
    total = sum(map(len, wanted.values()))
    print(f"{total - len(missed)} of {total} raise statements in src/latquot run under the tests")
    for path, line in missed:
        print(f"untested: {Path(path).relative_to(ROOT)}:{line}")
    return 1 if code or missed else 0


if __name__ == "__main__":
    sys.exit(main())
