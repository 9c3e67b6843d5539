"""Count code lines: non-blank lines that are neither comments nor docstrings.

Usage: ``python tools/code_lines.py [PATH ...]`` (default ``src/egmin``).
Each PATH is a ``.py`` file or a directory searched recursively.  Prints
one line per module and a total.  A line counts when it holds a token
other than a comment or a docstring; docstrings are the string
expressions ``ast`` reports as the first statement of a module, class or
function, and a string token spanning several lines counts each of them.
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


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


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
