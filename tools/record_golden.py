"""Record the golden CLI reports replayed by tests/test_golden.py.

Runs every argument list of tests/golden/cases.txt through
``qrefl.cli.main`` in this process and writes its exit code and stdout
to tests/golden/<slug>.out.  Run it after a change that is meant to
alter a report, and review the diff of the .out files:

    python3 tools/record_golden.py
"""

import contextlib
import io
import os
import re
import shlex
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden")
sys.path.insert(0, os.path.join(ROOT, "src"))


def cases():
    """(slug, argv) for every line of cases.txt."""
    with open(os.path.join(GOLDEN, "cases.txt")) as fh:
        lines = [l.strip() for l in fh]
    return [(re.sub(r"[^A-Za-z0-9+,=.-]+", "_", line).strip("_"), shlex.split(line))
            for line in lines if line and not line.startswith("#")]


def run(argv):
    """Exit code and stdout of one in-process CLI run."""
    from qrefl.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def render(code, stdout):
    return f"exit {code}\n{stdout}"


if __name__ == "__main__":
    for slug, argv in cases():
        with open(os.path.join(GOLDEN, slug + ".out"), "w") as fh:
            fh.write(render(*run(argv)))
        print(slug)
