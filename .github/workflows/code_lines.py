"""Count the code lines of the package modules, per module and in total.

A code line is a line spanned by a token other than a comment, a line
break, an indent or dedent, or the encoding and end markers, outside
docstrings (a string constant that is the first statement of a module,
class or function). Blank lines, comment lines and docstrings therefore
count for nothing.

Usage: python code_lines.py [DIR ...]   (default: src)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """(line, column) where each docstring's string token begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_bytes()
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(dirs: list[str]) -> int:
    total = 0
    for path in sorted(p for d in dirs for p in Path(d).rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or ["src"]))
