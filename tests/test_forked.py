"""The forked runner fails its caller on a crash, a timeout, missing JSON or a
blown memory limit, and otherwise returns what the child computed."""

import os
import time

import pytest
from forked import MEMORY, run_forked


def _imported_from():
    import starbimod

    return starbimod.__file__


def _crash():
    raise ZeroDivisionError("planted")


def _sleep():
    time.sleep(30)


def _leave_silently():
    os._exit(0)


def _allocate_past_the_limit():
    return len(bytearray(2 * MEMORY))


def test_the_child_imports_the_package_from_its_root(tmp_path):
    (tmp_path / "starbimod").mkdir()
    (tmp_path / "starbimod" / "__init__.py").write_text("", encoding="utf-8")
    assert run_forked(tmp_path, _imported_from) == str(tmp_path / "starbimod" / "__init__.py")
    assert run_forked(tmp_path, sorted, [3, 1, 2]) == [1, 2, 3]


@pytest.mark.parametrize(
    "func, timeout, message",
    [
        (_crash, 120, "ZeroDivisionError: planted"),
        (_sleep, 0.5, "took more than 0.5 s"),
        (_leave_silently, 120, "Expecting value"),
        (_allocate_past_the_limit, 120, "MemoryError"),
    ],
)
def test_a_failed_child_fails_the_caller(tmp_path, func, timeout, message):
    with pytest.raises((AssertionError, ValueError), match=message):
        run_forked(tmp_path, func, timeout=timeout)
