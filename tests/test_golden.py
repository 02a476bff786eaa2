import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import record_golden  # noqa: E402
import qrefl.qtorus as Q  # noqa: E402
from qrefl.cli import main  # noqa: E402
from qrefl.gradings import GRADINGS  # noqa: E402

CASES = record_golden.cases()


@pytest.fixture
def graded(monkeypatch):
    """Every row set passed to ``stiemke_grading``, in any qrefl module
    that binds it, and every one that reaches the simplex."""
    seen = {"graded": [], "solved": []}
    grade, solve = Q.stiemke_grading, Q._solve_lp_geq

    def record_grade(args):
        seen["graded"].append(Q.argument_rows(args))
        return grade(args)

    def record_solve(rows, nvars):
        seen["solved"].append(rows)
        return solve(rows, nvars)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qrefl") and getattr(mod, "stiemke_grading", None) is grade:
            monkeypatch.setattr(mod, "stiemke_grading", record_grade)
    monkeypatch.setattr(Q, "_solve_lp_geq", record_solve)
    return seen


@pytest.mark.parametrize("slug,argv", CASES, ids=[slug for slug, _ in CASES])
def test_golden_report(slug, argv, capsys, graded):
    # stdout and exit code of a CLI run equal the recorded report byte for
    # byte; tools/record_golden.py rewrites the records.  Every grading the
    # run uses is read from the certified table: no golden run solves an LP
    code = main(argv)
    got = record_golden.render(code, capsys.readouterr().out)
    assert got == (Path(record_golden.GOLDEN) / f"{slug}.out").read_text()
    assert all(Q.grading_key(rows) in GRADINGS for rows in graded["graded"])
    assert graded["solved"] == []
