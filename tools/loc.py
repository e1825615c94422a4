#!/usr/bin/env python3
"""Count the lines of the package sources.

    python3 tools/loc.py [DIR]

Prints two numbers for each ``*.py`` file under DIR (default: ``src/`` of
this checkout), one ``file: physical, code`` line per file, then their sums
on a last line: physical lines, and lines that hold code, which are those
that are not blank, not only a comment and not part of a docstring (the
string that opens a module, class or function body).  A line holding code
and a trailing comment counts as code.  These are the sizes each change
reports in CHANGES.md.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, lines of code) of one Python source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    top = Path(argv[0]) if argv else ROOT / "src"
    sizes = []
    for path in sorted(top.rglob("*.py")):
        physical, code = count(path.read_text("utf-8"))
        print(f"{path.relative_to(top)}: {physical}, {code}")
        sizes.append((physical, code))
    print(f"{top}: {sum(p for p, _ in sizes)} physical lines, {sum(c for _, c in sizes)} of code")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
