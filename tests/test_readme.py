"""The README's library example runs as documented."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python code block after the "Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library example") :]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under Library example"
    return match.group(1)


def test_library_example_runs_and_prints_its_verdict():
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue() == "Bounded\n"
