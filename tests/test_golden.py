import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import record_golden  # noqa: E402
from qrefl.cli import main  # noqa: E402

CASES = record_golden.cases()


@pytest.mark.parametrize("slug,argv", CASES, ids=[slug for slug, _ in CASES])
def test_golden_report(slug, argv, capsys):
    # stdout and exit code of a CLI run equal the recorded report byte for
    # byte; tools/record_golden.py rewrites the records
    code = main(argv)
    got = record_golden.render(code, capsys.readouterr().out)
    assert got == (Path(record_golden.GOLDEN) / f"{slug}.out").read_text()
