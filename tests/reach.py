"""Line reach: the package lines that no test runs, from a line trace of the suite.

A pytest plugin, not a test module, so pytest does not collect it.  Run the
suite with it loaded:

    PYTHONPATH=src:tests python -m pytest -q -p reach

It traces every line of the ``starbimod`` package that runs in the test
process, from the start of the session (before the package is imported)
to its end.  A line is executable when the compiled module has an
instruction that starts it.  Each executable line that never ran is
looked up in ``REVIEWED`` by (module file, enclosing function, stripped
source); the summary prints the count, then each unrun line that is not
listed, as ``path:line: source``, then each stale entry, one that names no
unrun line.  Either list non-empty sets a failing exit status, so the
plugin reads only a whole-suite run.

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

# (module file, enclosing function, stripped source line): why no traced test runs it.
# Criterion 8 counts a refused table only under a mutant that makes ``inverse``
# wrong, and tests/test_mutants.py runs each mutant in a forked child, which is
# not traced.
_REFUSED = "criterion 8's refused-table branch: only a mutant that fails criterion 8 runs it"
REVIEWED = {
    ("cli.py", "<module>", "sys.exit(main())"): (
        "runs only as `python -m starbimod.cli`, in the CLI tests' subprocesses"
    ),
    (
        "selftest.py",
        "bimodule_axiom_suites",
        "except ValueError:  # G^-1 S not hermitian for G: ``inverse`` is wrong",
    ): _REFUSED,
    ("selftest.py", "bimodule_axiom_suites", "forms_failures += 1"): _REFUSED,
    ("selftest.py", "bimodule_axiom_suites", "continue"): _REFUSED,
}
_report: dict = {}


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


def _executable(path: Path) -> dict[int, str]:
    """The lines that start an instruction of the module or of any code
    object compiled inside it, each with the innermost such code's
    qualified name (``<module>`` at the top level)."""
    lines, todo = {}, [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        # a code object is popped before the ones compiled inside it, which overwrite it
        code = todo.pop()
        lines.update((line, code.co_qualname) for _, line in dis.findlinestarts(code) if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
    return lines


def pytest_sessionstart(session):
    sys.settrace(_call)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    sys.settrace(_call)
    return (yield)


def pytest_sessionfinish(session):
    sys.settrace(None)
    unrun, total = {}, 0
    for name in sorted(_files):
        path = Path(name)
        source = path.read_text(encoding="utf-8").splitlines()
        executable = _executable(path)
        total += len(executable)
        for line, function in sorted(executable.items()):
            if (name, line) not in _ran:
                text = source[line - 1].strip()
                where = f"{path.relative_to(PACKAGE.parents[1])}:{line}: {text}"
                unrun[where] = (path.name, function, text)
    keys = set(unrun.values())
    _report["head"] = f"reach: {len(unrun)} of {total} package lines unrun, {len(REVIEWED)} reviewed"
    _report["unlisted"] = [where for where, key in unrun.items() if key not in REVIEWED]
    _report["stale"] = [f"{key}: {why}" for key, why in REVIEWED.items() if key not in keys]
    if (_report["unlisted"] or _report["stale"]) and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_sep("=", _report["head"])
    for title in ("unlisted", "stale"):
        terminalreporter.write_line(f"{len(_report[title])} {title}:")
        for entry in _report[title]:
            terminalreporter.write_line(f"  {entry}")
