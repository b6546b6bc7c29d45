"""Statement-coverage gate: run Tier-1 in process under a line tracer limited
to ``src/qib`` and the reference evaluator ``tests/reference.py``, and list
every statement of them that never ran.

    python tests/statement_coverage.py [extra pytest arguments]

Prints ``path:line`` for each AST statement of ``src/qib`` and
``tests/reference.py`` (docstrings excepted) that executed no line, and exits
1 if there is any, or with pytest's code if the suite itself fails.  A
statement counts as run when any line of its span (decorators included)
produced a line event, so a compound statement whose body ran is covered.
The recorder is installed for the calling thread and for every thread started
under the suite, so a statement that only a sweep's helper thread runs counts.
Hypothesis runs with seed 0, so the result is deterministic.  Needs nothing
beyond the test dependencies.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "qib") + os.sep
REFERENCE = os.path.join(ROOT, "tests", "reference.py")


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(path: str) -> list[tuple[int, int]]:
    """(first line, last line) of every statement in the file but docstrings."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and not _is_docstring(node):
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            spans.append((first, node.end_lineno))
    return sorted(spans)


class LineRecorder:
    """sys.settrace and threading.settrace hook recording the lines run in
    frames of the package and of the reference evaluator."""

    def __init__(self) -> None:
        self.lines: dict[str, set[int]] = {}

    def __call__(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not (path.startswith(PACKAGE) or path == REFERENCE):
            return None
        seen = self.lines.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local


def main(argv: list[str]) -> int:
    recorder = LineRecorder()
    threading.settrace(recorder)
    sys.settrace(recorder)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries only the findings
            code = pytest.main(["-q", "--hypothesis-seed=0", *argv])
        hijacked = sys.gettrace() is not recorder
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if hijacked:
        print("error: another tracer replaced the coverage hook", file=sys.stderr)
        return 1
    if code != 0:
        return int(code)
    paths = [
        os.path.join(folder, name)
        for folder, _, files in sorted(os.walk(PACKAGE))
        for name in sorted(files)
        if name.endswith(".py")
    ]
    missed = []
    for path in paths + [REFERENCE]:
        ran = recorder.lines.get(path, set())
        for first, last in statements(path):
            if ran.isdisjoint(range(first, last + 1)):
                missed.append(f"{os.path.relpath(path, ROOT)}:{first}")
    print("\n".join(missed), end="\n" if missed else "")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
