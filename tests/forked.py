"""Run a function in a forked child that imports ``starbimod`` from another tree.

The test process has already imported numpy, so a forked child costs its
own work, not an interpreter start-up, a numpy import and a compile of the
whole package.  ``conftest.py`` sets the BLAS thread variables to 1 before
numpy is imported, since forking a process whose BLAS runs threads is unsafe.

The child drops every ``starbimod`` module from ``sys.modules``, puts the
tree first on ``sys.path``, calls the function, writes its JSON result to a
pipe and leaves through ``os._exit``, so no handler of the test process runs
twice.  It runs under an address-space rlimit of what it inherits plus
``MEMORY``, set on its own process only.  A crash, a timeout or a child that
writes no JSON fails the caller's test.
"""

import json
import os
import resource
import select
import signal
import sys
import time
import traceback
from pathlib import Path

MEMORY = 1 << 30  # bytes of address space a child may add to what it inherits


def _child(write: int, root: Path, func, args) -> None:
    status = 1
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[0])
        limit = pages * os.sysconf("SC_PAGE_SIZE") + MEMORY
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        for name in [n for n in sys.modules if n.partition(".")[0] == "starbimod"]:
            del sys.modules[name]
        sys.path.insert(0, str(root))
        sys.dont_write_bytecode = True
        out = json.dumps(func(*args))
        status = 0
    except BaseException:
        out = traceback.format_exc()
    try:
        with os.fdopen(write, "w", encoding="utf-8") as pipe:
            pipe.write(out)
    finally:
        os._exit(status)


def run_forked(root: Path, func, *args, timeout: float = 120.0):
    """``func(*args)`` in a forked child with ``root`` first on ``sys.path``;
    the child's JSON result, decoded.  ``func`` must import ``starbimod``
    itself, so that it binds the copy under ``root``."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        _child(write, root, func, args)
    os.close(write)
    chunks, deadline = [], time.monotonic() + timeout
    with os.fdopen(read, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([pipe], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise AssertionError(f"the forked run took more than {timeout} s")
            chunk = os.read(pipe.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status = os.waitpid(pid, 0)
    out = b"".join(chunks).decode("utf-8")
    assert os.waitstatus_to_exitcode(status) == 0, out or f"the child ended with {status:#x}"
    return json.loads(out)
