"""Line reach: the package lines that no test runs, from a line trace of the suite.

A pytest plugin, not a test module, so pytest does not collect it.  Run the
suite with it loaded:

    PYTHONPATH=src:tests python -m pytest -q -p reach

It traces every line of the ``starbimod`` package that runs in the test
process, from the start of the session (before the package is imported)
to its end, and then prints each executable line that never ran, as
``path:line: source``, after a count.  A line is executable when the
compiled module has an instruction that starts it.

Lines run in other processes are not seen: the children that
``forked.run_forked`` forks for the mutant table and the CLI subprocess
tests trace nothing.  A tracer that a test installs (hypothesis's explain
phase) displaces this one for that test only; the next test restores it.
The trace slows the suite several times over, so it stays outside the
plain tier-1 run.
"""

import dis
import importlib.util
import sys
from pathlib import Path

import pytest

PACKAGE = Path(importlib.util.find_spec("starbimod").submodule_search_locations[0]).resolve()
_files = {str(path) for path in PACKAGE.glob("*.py")}
_ran: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    if code.co_filename not in _files:
        return None
    _ran.add((code.co_filename, code.co_firstlineno))
    return _line


def _executable(path: Path) -> set[int]:
    """The lines that start an instruction of the module or of any code
    object compiled inside it."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines |= {line for _, line in dis.findlinestarts(code) if line}
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
    return lines


def pytest_sessionstart(session):
    sys.settrace(_call)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    sys.settrace(_call)
    return (yield)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    executable = {Path(name): _executable(Path(name)) for name in sorted(_files)}
    unrun = [
        (path, line)
        for path, lines in executable.items()
        for line in sorted(lines)
        if (str(path), line) not in _ran
    ]
    total = sum(map(len, executable.values()))
    terminalreporter.write_sep("=", f"reach: {len(unrun)} of {total} package lines unrun")
    for path, line in unrun:
        source = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
        terminalreporter.write_line(f"{path.relative_to(PACKAGE.parents[1])}:{line}: {source}")
