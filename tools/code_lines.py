"""Count the code lines of each module of a package directory, and their total.

A code line holds at least one token that is not a comment and is not part of
a docstring (the first statement of a module, class or function when it is a
string).  Blank lines, comment-only lines and docstrings do not count.

    python3 tools/code_lines.py src/oneshot
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py PACKAGE_DIR", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[0]).glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name:20s} {n:6d}")
    print(f"{'total':20s} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
