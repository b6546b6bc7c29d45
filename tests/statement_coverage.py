"""Statement- and branch-coverage gate: run Tier-1 in process under a line
tracer limited to ``src/qib`` and the reference evaluator
``tests/reference.py``, and list every statement of them that never ran and
every ``if`` or ``while`` that went only one way.

    python tests/statement_coverage.py [extra pytest arguments]

Prints ``path:line`` for each AST statement of ``src/qib`` and
``tests/reference.py`` (docstrings excepted) that executed no line, then
``path:line: only true`` (or ``only false``) for each ``if``/``while`` that
ran but took one side only, and exits 1 if there is any, or with pytest's
code if the suite itself fails.  A statement counts as run when any line of
its span (decorators included) produced a line event, so a compound statement
whose body ran is covered.  Branches are read from line arcs, the pairs of
consecutive line events in one frame: an arc out of the condition's lines
into the body's first statement is the true side, one to any other line or
out of the frame is the false side; an arc that follows an exception is no
side.  A ``while`` on a constant has no false side and is not a branch; a
body on its condition's line is listed as ``cannot judge``.  Conditional expressions,
short-circuit operators and comprehension filters are not line arcs, so they
are out of scope.  The recorder is installed for the calling thread and for
every thread started under the suite, so a statement or a branch that only a
sweep's helper thread runs counts.  Hypothesis runs with seed 0, so the
result is deterministic.  Needs nothing beyond the test dependencies.
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


def branches(path: str) -> list[tuple[int, range, range | None]]:
    """(line, condition lines, lines of the body's first statement) of every
    ``if`` and ``while`` but a ``while`` on a constant; the body lines are None
    where the body starts on the condition's line."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While)) and not (
            isinstance(node, ast.While) and isinstance(node.test, ast.Constant)
        ):
            test, body = range(node.lineno, node.test.end_lineno + 1), node.body[0]
            first = min([body.lineno] + [d.lineno for d in getattr(body, "decorator_list", [])])
            found.append((node.lineno, test, None if first in test else range(first, body.end_lineno + 1)))
    return sorted(found)


class ArcRecorder:
    """sys.settrace and threading.settrace hook recording the line arcs run in
    frames of the package and of the reference evaluator: (previous line,
    line), with 0 for a frame's entry or an exception and -1 for its exit."""

    def __init__(self) -> None:
        self.arcs: dict[str, set[tuple[int, int]]] = {}

    def __call__(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not (path.startswith(PACKAGE) or path == REFERENCE):
            return None
        seen = self.arcs.setdefault(path, set())
        last = 0

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                seen.add((last, last := frame.f_lineno))
            elif event == "return":
                seen.add((last, -1))
            elif event == "exception":
                last = 0
            return local

        return local


def one_sided(path: str, arcs: set[tuple[int, int]]) -> list[str]:
    """``line: only true`` (``only false``, ``cannot judge``) for each branch
    of the file that ran and did not take both sides."""
    found = []
    for line, test, body in branches(path):
        outs = {b for a, b in arcs if a in test and b not in test}
        if not outs:
            continue  # never ran, or only raised: the statement list names the former
        if body is None:
            found.append(f"{line}: cannot judge")
        elif outs.isdisjoint(body):
            found.append(f"{line}: only false")
        elif outs.issubset(body):
            found.append(f"{line}: only true")
    return found


def main(argv: list[str]) -> int:
    recorder = ArcRecorder()
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
        arcs = recorder.arcs.get(path, set())
        ran = {b for _, b in arcs}
        name = os.path.relpath(path, ROOT)
        for first, last in statements(path):
            if ran.isdisjoint(range(first, last + 1)):
                missed.append(f"{name}:{first}")
        missed += [f"{name}:{finding}" for finding in one_sided(path, arcs)]
    print("\n".join(missed), end="\n" if missed else "")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
