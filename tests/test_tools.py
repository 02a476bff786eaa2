import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_derive_compositions_reproduces_committed_module(tmp_path):
    # the tool writes ../src/qrefl/compositions.py next to itself, so it
    # runs on a copy whose generated module is deleted first
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "qrefl", tmp_path / "src" / "qrefl", ignore=skip)
    shutil.copytree(ROOT / "tools", tmp_path / "tools", ignore=skip)
    generated = tmp_path / "src" / "qrefl" / "compositions.py"
    generated.unlink()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "derive_compositions.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    committed = ROOT / "src" / "qrefl" / "compositions.py"
    assert generated.read_bytes() == committed.read_bytes()


def test_bench_pairs_summary_on_canned_runs():
    sys.path.insert(0, str(ROOT / "tools"))
    from bench_pairs import summarize

    def result(verdict, failed=0):
        return {"correct": True, "attempted": 10, "failed": failed,
                "metrics": {"verdict_s": {"value": verdict, "unit": "s"}}}

    parent = [1.0, 1.2, 0.9, 1.1, 1.0, 1.3, 1.0, 1.1, 0.95, 1.05]
    change = [0.3, 0.35, 0.3, 1.1, 0.3, 0.4, 0.25, 0.3, 0.33, 0.31]
    runs = {"w": {"parent": [result(v) for v in parent],
                  "change": [result(v) for v in change]},
            "idle": {"parent": [], "change": []}}
    out = summarize(runs, ["verdict_s"], ("w", "verdict_s"))
    assert set(out["workloads"]) == {"w"}
    stat = out["workloads"]["w"]["verdict_s"]
    # inclusive quartiles of the parent's ten runs
    assert stat["parent"] == {"median": 1.025, "q1": 1.0, "q3": 1.1}
    assert stat["change"]["median"] == 0.305
    # the tie in the fourth pair counts for neither side
    assert stat["change_lower_in_pairs"] == 9
    assert out["claim"] == {"metric": "verdict_s", "workload": "w",
                            "change_lower_in_pairs": 9, "median_gap_s": 0.72,
                            "parent_quartile_spread_s": 0.1, "met": True}
    assert out["workloads"]["w"]["failed"] == {"parent": 0, "change": 0}
    # eight wins of ten, or a gap inside the parent's quartiles, or more
    # failed operations than at the parent: no claim
    runs["w"]["change"][5] = result(1.4)
    assert not summarize(runs, ["verdict_s"], ("w", "verdict_s"))["claim"]["met"]
    runs["w"]["change"] = [result(v - 0.05) for v in parent]
    assert not summarize(runs, ["verdict_s"], ("w", "verdict_s"))["claim"]["met"]
    runs["w"]["change"] = [result(v, failed=1) for v in change]
    assert not summarize(runs, ["verdict_s"], ("w", "verdict_s"))["claim"]["met"]
