"""The README's "Library use" example runs as written, so the docs fail
loudly when the package surface they show moves."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)\n```", section, re.S)
    assert block is not None, "no python block in the Library use section"
    namespace = {"__name__": "readme"}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    trace = namespace["trace"]
    assert trace.status == "converged"
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{trace.status} {trace.final_f}"
    assert len(lines) == 1 + len(trace.records)
