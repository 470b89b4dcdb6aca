#!/usr/bin/env python3
"""Count the code lines of each module in ``src/latquot``: docstrings, comments and blanks excluded.

A line counts when some token other than a comment, an indent or a line
break lies on it (a token that spans lines counts every line it spans),
unless the line belongs to a docstring: the string that opens a module, a
class or a function body.  Uses only ``ast`` and ``tokenize`` from the
standard library.  Run it from anywhere:

    python3 tests/code_lines.py

It prints one line per module and the total, and always exits 0.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "latquot"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
