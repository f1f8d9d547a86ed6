#!/usr/bin/env python3
"""Code lines per module: the size measure of the package.

    python tools/sloc.py [PATH]

PATH is a ``.py`` file or a directory searched for them recursively; it
defaults to ``src/fovlink`` beside this tool. A code line holds a token
other than a comment (a string that spans several lines holds every line
it spans) and is not part of a module, class or function docstring.
Blank lines, comment lines and docstrings do not count, so deleting or
rewording comments leaves the count as it was.

Prints one line per module, ``<code lines> <raw lines> <path>``, sorted
by path, then the totals for PATH. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT = Path(__file__).resolve().parents[1] / "src" / "fovlink"
# tokens that hold no code: layout, and the comments the count leaves out
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstrings(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) of each module, class and function docstring, as (line, column)."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: bytes) -> int:
    """The number of code lines in the Python module ``source``."""
    docstrings = _docstrings(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in _NOT_CODE or any(start <= token.start < end for start, end in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: python tools/sloc.py [PATH]", file=sys.stderr)
        return 1
    root = Path(args[0]) if args else DEFAULT
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    total_code = total_raw = 0
    for path in files:
        source = path.read_bytes()
        code, raw = code_lines(source), len(source.splitlines())
        total_code, total_raw = total_code + code, total_raw + raw
        print(f"{code:6d} {raw:6d} {path}")
    print(f"{total_code:6d} {total_raw:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
