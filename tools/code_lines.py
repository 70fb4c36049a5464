"""Count the code lines of each module of ``src/relaygeom``.

A code line holds at least one token that is not a comment; blank lines,
comment-only lines and docstrings (module, class and function) are not
counted. Standard library only.

Usage: ``python tools/code_lines.py [package_dir]``. A reader that closes
the pipe early (``| head -3``) ends it quietly, with exit status 1.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "relaygeom"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.stem:12s} {count:5d}")
    print(f"{'total':12s} {total:5d}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1:])
        # a block-buffered stdout (a pipe, PYTHONUNBUFFERED unset) writes
        # only here, so a closed pipe must raise inside this ``try``
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop without a traceback,
        # with stdout on devnull so that the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
