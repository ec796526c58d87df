"""Count the code lines of each module of ``src/vstring`` and their total.

Usage, from the root of a checkout::

    python3 tools/code_lines.py [FILE ...]

A code line is a line that holds part of a token other than a comment, so
blank lines and comment-only lines are skipped.  Docstrings (the leading
string of a module, class or function, found with ``ast``) are skipped too,
while every line of any other string counts.  Without arguments it counts
``src/vstring/*.py``.  Prints one ``lines path`` row per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "vstring").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
