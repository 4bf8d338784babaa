"""Count the lines of a Python package that carry code.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/perron of the repository this script belongs
to.  A line carries code when some token on it is neither a comment nor
part of a docstring (the leading string of a module, class or function
body); blank lines and the lines of a docstring do not count.  Prints one
line per module, in name order, and the total.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers covered by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, BODIES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that carry code."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        sys.exit(__doc__.split("\n\n")[1])
    package = argv[0] if argv else os.path.join(ROOT, "src", "perron")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                count = code_lines(f.read())
            print(f"{count:6d}  {name}")
            total += count
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
