#!/usr/bin/env python3
"""Replay every golden CLI case in a fresh interpreter and byte-compare its stdout.

Each case of ``cases.json`` runs as ``python -S`` (no site-packages, so the
library must need only the standard library) on ``src/`` of this checkout,
from this directory, and must exit 0 with exactly the bytes of
``expected/<name>.json``.  Run it with any interpreter:

    python3 -S tests/golden/replay.py

It exits 1 and names the cases that differ, 0 when all match.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
MAIN = f"import sys; sys.path.insert(0, {str(SRC)!r}); from latquot.cli import main; main()"


def main() -> int:
    cases = json.loads((HERE / "cases.json").read_text(encoding="utf-8"))
    failed = []
    for case in cases:
        got = subprocess.run([sys.executable, "-S", "-c", MAIN, *case["argv"]], cwd=HERE, capture_output=True)
        if got.returncode != 0 or got.stdout != (HERE / "expected" / f"{case['name']}.json").read_bytes():
            failed.append(case["name"])
    print(f"{len(cases) - len(failed)} of {len(cases)} golden cases replay byte-identically")
    for name in failed:
        print(f"differs: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
