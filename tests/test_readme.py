"""The README's quick tour runs as written and says what it claims."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour():
    text = README.read_text()
    section = text.split("## Quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs_as_written():
    scope = {}
    exec(compile(quick_tour(), str(README), "exec"), scope)
    assert scope["rigidity_report"](scope["fw"]).rigid
    assert scope["h"].all()
