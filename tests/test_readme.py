"""The README's library example and CLI block run as documented."""

import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from cli_contract import run
from starbimod.selftest import ALL_CHECKS

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


def cli_commands() -> list[list[str]]:
    """The argv of each ``starbimod`` line of the sh block under "CLI", comments dropped."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI") :]
    match = re.search(r"```sh\n(.*?)```", section, re.S)
    assert match, "no sh block under CLI"
    lines = match.group(1).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.strip()]
    assert all(argv[0] == "starbimod" for argv in commands)
    return [argv[1:] for argv in commands]


# selftest runs the acceptance battery, which tests/test_acceptance.py already runs
CLI_COMMANDS = [argv for argv in cli_commands() if argv[0] != "selftest"]


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=[" ".join(a) for a in CLI_COMMANDS])
def test_cli_example_exits_0(argv, monkeypatch):
    monkeypatch.chdir(README.parent)
    out = run(argv, codes=(0,))[1]
    if argv == ["normal-order", "d*q - q*d"]:
        assert out == "1\n"


def test_cli_block_has_the_documented_commands():
    assert len(CLI_COMMANDS) == 8
    assert ["normal-order", "d*q - q*d"] in CLI_COMMANDS


def ledger_rows() -> list[list[str]]:
    """The cells of each body row of the table under "What each PASS proves"."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### What each PASS proves") :]
    table = re.search(r"^\| # \|.*?\n\| --- .*?\n((?:\|.*\n)+)", section, re.M)
    assert table, "no ledger table under What each PASS proves"
    return [
        [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        for line in table.group(1).splitlines()
    ]


def test_every_criterion_has_a_ledger_row():
    rows = ledger_rows()
    assert all(len(row) == 5 and all(row[1:]) for row in rows), rows
    criteria = {int(row[0]): row[1].strip("`") for row in rows if row[0]}
    assert criteria == {i: name for i, (name, _) in enumerate(ALL_CHECKS, 1)}
    verdicts = [row[1] for row in rows if not row[0]]
    assert verdicts == [
        "`gns-check` exit 0",
        "`cs-check` exit 0",
        "`probe` `Bounded`",
        "`probe` `GrowthDetected`",
        "`lemma-check` exit 0",
    ]
