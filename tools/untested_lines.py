"""List the statement lines of a package that no test runs.

    python3 tools/untested_lines.py [--package DIR] [PYTEST_ARGS...]

Runs pytest in this process under sys.settrace and records the lines
executed in frames whose code lives in the package (DIR defaults to
src/perron of the repository this script belongs to; its parent directory
goes first on sys.path).  A statement counts as run when any line of it ran:
the whole of a simple statement, the header of a compound one (its lines
before the body).  Docstrings (those tools/code_lines.py skips) and
global/nonlocal declarations, which compile to no code, are not statements
here, and neither is a module's `if __name__ == "__main__":` block, which
no test run in this process can enter (coverage tools skip it by default
too).  Hypothesis deadlines are
turned off, since tracing slows every example.  PYTEST_ARGS default to the
repository's tests without tests/test_acceptance.py.

Prints each statement line that never ran as module:line and its source,
then the count per module.  Exits with pytest's exit code.  Standard
library plus pytest, hypothesis and tools/code_lines.py.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from code_lines import docstring_lines  # noqa: E402  the docstrings code_lines skips too

DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"),
                "--ignore", os.path.join(ROOT, "tests", "test_acceptance.py")]
NO_CODE = (ast.Global, ast.Nonlocal)
MAIN_GUARD = "__name__ == '__main__'"  # as ast.unparse spells the test


def statement_spans(source: str) -> dict[int, range]:
    """The lines of each statement of source, keyed by its first line.

    A compound statement's span ends before its body; decorators belong to
    the statement they decorate.  A statement that starts on a line of a
    docstring or of a top-level main guard has no span.
    """
    tree = ast.parse(source)
    skipped = docstring_lines(tree)
    skipped.update(
        n
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == MAIN_GUARD
        for n in range(node.lineno, node.end_lineno + 1)
    )
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, NO_CODE):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if first in skipped:
            continue
        body = getattr(node, "body", None)
        last = max(first, body[0].lineno - 1) if body else node.end_lineno
        spans[first] = range(first, last + 1)
    return spans


def untested(source: str, ran: set[int]) -> list[int]:
    """The first lines of the statements of source none of whose lines ran."""
    return sorted(
        first for first, span in statement_spans(source).items() if ran.isdisjoint(span)
    )


def trace_pytest(package: str, args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on args; return its exit code and the lines run per file
    of package (an absolute path)."""
    import pytest

    class NoDeadlines:
        """Turns Hypothesis deadlines off before any test module is imported
        (importing hypothesis earlier would keep pytest from rewriting it)."""

        @staticmethod
        def pytest_configure(config):
            from hypothesis import settings

            settings.register_profile("untested-lines", deadline=None)
            settings.load_profile("untested-lines")

    prefix = os.path.join(package, "")
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.settrace(global_)
    try:
        code = pytest.main(args, plugins=[NoDeadlines()])
    finally:
        sys.settrace(None)
    return int(code), ran


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    package = os.path.join(ROOT, "src", "perron")
    if argv[:1] == ["--package"]:
        package, argv = os.path.abspath(argv[1]), argv[2:]
    sys.path.insert(0, os.path.dirname(package))
    code, ran = trace_pytest(package, argv or DEFAULT_ARGS)
    counts = {}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        lines = source.splitlines()
        missed = untested(source, ran.get(path, set()))
        for n in missed:
            print(f"{name}:{n}: {lines[n - 1].strip()}")
        if missed:
            counts[name[:-3]] = len(missed)
    summary = ", ".join(f"{module} {count}" for module, count in counts.items())
    print(f"{sum(counts.values())} untested statement lines" + (f": {summary}" if summary else ""))
    return code


if __name__ == "__main__":
    sys.exit(main())
