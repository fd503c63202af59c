"""Run the CLI in-process and assert its contract on every call.

Every argv ends in exit 0, 1 or 2, never in a traceback.  Exit 0 or 1
prints a report on stdout and nothing on stderr.  Exit 2 prints nothing on
stdout, and the last stderr line is the only one that holds ``error:``:
argparse may print its usage above it, while a refusal of the CLI's own
(``main`` returns 2) prints that one line alone, starting ``error: ``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from starbimod import cli


def run(argv, codes=(0, 1, 2)):
    """``(code, out, err)`` of ``cli.main(argv)``, once ``code`` is in ``codes`` and the
    contract holds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code, by_argparse = cli.main(argv), False
        except SystemExit as exc:  # an argparse refusal
            code, by_argparse = exc.code, True
    out, err = out.getvalue(), err.getvalue()
    assert code in codes, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        lines = err.splitlines()
        assert out == "", (argv, out)
        assert lines and [ln for ln in lines if "error:" in ln] == lines[-1:], (argv, err)
        assert by_argparse or (len(lines) == 1 and err.startswith("error: ")), (argv, err)
    else:
        assert out.strip() and err == "", (argv, out, err)
    return code, out, err


def report(argv):
    """The JSON report of ``argv``, which must exit 0.

    ``--json`` goes right after the subcommand, so that it comes before any ``--``.
    """
    return json.loads(run([argv[0], "--json", *argv[1:]], codes=(0,))[1])
