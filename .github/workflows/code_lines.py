"""Count the code lines and the public names of the package modules, per
module and in total.

A code line is a line spanned by a token other than a comment, a line
break, an indent or dedent, or the encoding and end markers, outside
docstrings (a string constant that is the first statement of a module,
class or function). Blank lines, comment lines and docstrings therefore
count for nothing.

The public names of a module are the entries of its ``__all__``, read
from the source without importing it, so numpy need not be installed. A
module without a literal ``__all__`` list shows "-": the package's
``__init__`` builds its list from the other modules at run time.

Usage: python code_lines.py [PATH ...]   (default: src)

A directory counts every .py file under it, a .py file counts itself; any
other path exits with status 2 before anything is printed.
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


def public_names(tree: ast.Module) -> int | None:
    """len(__all__) when the module assigns it a literal list, else None."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return len(node.value.elts)
    return None


def code_lines(source: bytes, tree: ast.Module) -> int:
    docstrings = docstring_starts(tree)
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(args: list[str]) -> int:
    paths = []
    for arg in map(Path, args):
        if arg.is_dir():
            paths.extend(arg.rglob("*.py"))
        elif arg.is_file() and arg.suffix == ".py":
            paths.append(arg)
        else:
            print(f"code_lines.py: {arg} is neither a directory nor a .py file", file=sys.stderr)
            return 2
    total = total_names = 0
    print("  code  names  module")
    for path in sorted(paths):
        source = path.read_bytes()
        tree = ast.parse(source)
        count, names = code_lines(source, tree), public_names(tree)
        total += count
        total_names += names or 0
        print(f"{count:6d}  {'-' if names is None else names:>5}  {path.as_posix()}")
    print(f"{total:6d}  {total_names:5d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or ["src"]))
