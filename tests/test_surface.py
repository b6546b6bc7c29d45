"""Package surface that only the tests call goes: every top-level function,
class or constant of ``src/qib``, and every non-dunder method, needs a
reference in ``src/``, ``perfbench/`` or the README besides its definition."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """(name, is_method) for the module's top-level definitions and its classes' methods."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from ((t.id, False) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, False
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
            if isinstance(node, ast.ClassDef):
                yield from ((f.name, True) for f in node.body if isinstance(f, ast.FunctionDef))


def test_every_package_name_has_a_caller_outside_the_tests():
    sources = sorted((ROOT / "src" / "qib").rglob("*.py"))
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in
                       [*sources, *sorted((ROOT / "perfbench").rglob("*.py")), ROOT / "README.md"])
    defined = [d for p in sources for d in _definitions(ast.parse(p.read_text(encoding="utf-8")))]
    unused = []
    for name, is_method in sorted(set(defined)):
        if name.startswith("__"):
            continue
        if is_method:
            uses = len(re.findall(rf"\.{name}\b", corpus))
        else:
            uses = len(re.findall(rf"\b{name}\b", corpus)) - defined.count((name, False))
        if uses < 1:
            unused.append(name)
    assert not unused, f"defined in src/qib but referenced only by its definition: {unused}"
