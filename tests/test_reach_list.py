"""The reach plugin's allow-list names lines that are still there.

``reach.REVIEWED`` is checked against the unrun lines only by the traced
run (``-p reach``), which stays outside the plain suite.  Here each key
must still name a line of the package that starts an instruction of the
named function in the named file, as ``reach._executable`` reads them,
so an edit to a listed line fails at once instead of leaving a stale
entry for the next traced run to find.
"""

import reach


def _stale(reviewed) -> list[tuple[str, str, str]]:
    """The keys of ``reviewed`` that name no executable line of their function."""
    stale = []
    for key in reviewed:
        file, function, text = key
        path = reach.PACKAGE / file
        source = path.read_text(encoding="utf-8").splitlines()
        lines = {(name, source[line - 1].strip()) for line, name in reach._executable(path).items()}
        if (function, text) not in lines:
            stale.append(key)
    return stale


def test_the_guard_sees_a_stale_key():
    gone = ("selftest.py", "parser_roundtrip", "if parse_expression(u.to_expression()) != u:")
    # a line that exists, under a function that does not hold it
    moved = ("selftest.py", "parser_roundtrip", "continue")
    planted = {**reach.REVIEWED, gone: "planted", moved: "planted"}
    assert _stale(planted) == [gone, moved]


def test_every_reviewed_line_is_in_its_function():
    assert reach.REVIEWED
    assert _stale(reach.REVIEWED) == []
