"""Count code lines: non-blank lines that are neither comments nor docstrings.

Usage: ``python tools/code_lines.py [PATH ...]`` (default ``src/egmin``).
Each PATH is a ``.py`` file or a directory searched recursively.  Prints
one line per module and a total.  A line counts when it holds a token
other than a comment or a docstring, so a docstring on the line of other
code leaves that line counted; docstrings are the string expressions
``ast`` reports as the first statement of a module, class or function,
and a string token spanning several lines counts each of them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_spans(tree: ast.AST, source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of the docstrings, in tokenize's
    (row, character column) form; ``ast`` gives columns in UTF-8 bytes."""
    rows = source.split("\n")

    def position(row: int, byte_col: int) -> tuple[int, int]:
        return row, len(rows[row - 1].encode()[:byte_col].decode())

    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0]
                spans.append((position(doc.lineno, doc.col_offset),
                              position(doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    docstrings = docstring_spans(ast.parse(source), source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NON_CODE or any(a <= tok.start and tok.end <= b for a, b in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [Path("src/egmin")]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f.read_text())
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
