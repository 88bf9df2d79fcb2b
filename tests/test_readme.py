"""The README's quick tour runs as written and says what it claims, and
its exit-code table is the one cli.main keeps."""

import re
from pathlib import Path

from rigidnet import cli

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


def test_exit_code_table_matches_the_cli():
    text = README.read_text()
    table = text.split("| code | error classes | example |", 1)[1]
    rows = re.findall(r"^\| (\d+) \| ([^|]*) \|", table, re.M)
    documented = {int(code): set(re.findall(r"`(\w+)`", classes))
                  for code, classes in rows}
    expected = {cli.EXIT_OK: set(),
                cli.EXIT_INTERRUPTED: {"KeyboardInterrupt"}}
    for classes, code, _ in cli._EXITS:
        expected.setdefault(code, set()).update(c.__name__ for c in classes)
    expected[cli.EXIT_BAD_CONFIG].add("MemoryError")
    assert documented == expected
