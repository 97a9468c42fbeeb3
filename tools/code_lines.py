"""Count the code lines of Python files: lines that hold a code token
outside a module, class or function docstring, so that docstrings,
comments and blank lines do not count.

    python3 tools/code_lines.py [FILE ...]

prints the count of each file given (src/opspectra/*.py by default,
from the repository root) and their total.  It reports only; nothing
is checked against the counts.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.Module) -> list:
    """The (start, end) positions, each (line, column), of every
    docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a code token outside
    a docstring; a token over several lines counts on each of them."""
    docs = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(
                lo <= tok.start and tok.end <= hi for lo, hi in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    paths = ([Path(a) for a in argv] if argv else
             sorted(Path(__file__).resolve().parent.parent.glob(
                 "src/opspectra/*.py")))
    total = 0
    for path in paths:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
