"""Derive the certified Stiemke gradings of the CLI's own tasks.

Runs every CLI task that grades factor arguments (``RE-full`` in both
representations, ``K-eps-indep`` for both K types, the eight finite-fiber
systems and the golden ``period`` round trips) with ``stiemke_grading``
replaced, in every qrefl module that binds it, by a recorder.  The
recorder solves each row set with the exact simplex
(``qtorus.simplex_grading``), checks the grading and keeps it under the
canonical text of the rows, so the committed table is never read.  The
grading does not depend on the cutoff, so the tasks run at the lowest
one.  Every task must pass.

Writes src/qrefl/gradings.py.
"""

import contextlib
import io
import os
import shlex
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qrefl import qtorus as Q
from qrefl.cli import main as cli

TASKS = [
    "verify --task RE-full --cutoff 1 --rep torus",
    "verify --task RE-full --cutoff 1 --rep weyl",
    "verify --task K-eps-indep --variant rho24 --cutoff 1",
    "verify --task K-eps-indep --variant rho13 --cutoff 1",
] + [f"wd --system {s}" for s in ("pnK", "alnK", "pnL", "pnR", "alL", "alR",
                                   "FFY", "FFuw")] + [
    "period --quiver B(A2) --seq R-seq --round-trip --cutoff 0",
    "period --quiver B(C2) --seq K-seq --round-trip --cutoff 0",
]

HEADER = '''"""Certified Stiemke gradings of the factor arguments that the CLI's
tasks grade.

Generated by tools/derive_gradings.py, which solves each row set with
the exact simplex.  A key is the canonical text of the sorted distinct
argument rows (``qtorus.grading_key``), rows joined by ';' and entries
by ',', written one row to a line.  A value is the integer grading the
simplex reaches on those rows.  ``qtorus.stiemke_grading`` uses a stored
grading only after checking g.r >= 1 on every row, and raises
``GradingCheckFailed`` when that fails.  Regenerate with the tool rather
than editing by hand.
"""

GRADINGS = {
'''


def derive():
    """{key: [grading, task names]} in the order the tasks first grade."""
    table = {}
    calls = []

    def record(args):
        rows = Q.argument_rows(args)
        g = Q.checked_grading(Q.simplex_grading(rows), rows)
        calls.append(Q.grading_key(rows))
        table.setdefault(calls[-1], [g, []])
        return g

    real = Q.stiemke_grading
    bound = [mod for name, mod in sys.modules.items()
             if (name == "qrefl" or name.startswith("qrefl."))
             and getattr(mod, "stiemke_grading", None) is real]
    for mod in bound:
        mod.stiemke_grading = record
    try:
        for task in TASKS:
            del calls[:]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli(shlex.split(task))
            assert code == 0, (task, code)
            assert calls, f"{task} grades nothing"
            for i, key in enumerate(calls, 1):
                name = task if len(calls) == 1 else f"{task}, grading {i} of {len(calls)}"
                table[key][1].append(name)
    finally:
        for mod in bound:
            mod.stiemke_grading = real
    return table


def main():
    table = derive()
    path = os.path.join(os.path.dirname(__file__), "..", "src", "qrefl",
                        "gradings.py")
    with open(path, "w") as fh:
        fh.write(HEADER)
        for key, (g, names) in table.items():
            for name in names:
                fh.write(f"    # {name}\n")
            rows = key.split(";")
            fh.write("".join(f'    "{r};"\n' for r in rows[:-1]))
            fh.write(f'    "{rows[-1]}":\n        {g!r},\n')
        fh.write("}\n")
    print(f"{len(table)} gradings from {len(TASKS)} tasks")
    print(f"wrote {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
