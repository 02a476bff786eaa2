import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
    from bench_pairs import summarize

    def result(verdict, failed=0):
        return {"correct": True, "attempted": 10, "failed": failed,
                "metrics": {"verdict_s": {"value": verdict, "unit": "s"}},
                "last_round_ops_s": {"search": verdict / 2, "check": 0.1}}

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
    # per-operation medians of each side, in the order the operations ran
    ops = out["workloads"]["w"]["last_round_ops_s"]
    assert ops == {"parent": {"search": 0.5125, "check": 0.1},
                   "change": {"search": 0.1525, "check": 0.1}}
    assert list(ops["parent"]) == ["search", "check"]
    # a run without the file's operation times, or without one of them,
    # counts only for the operations it has
    del runs["w"]["change"][0]["last_round_ops_s"]
    runs["w"]["change"][1]["last_round_ops_s"] = {"search": 9.0}
    ops = summarize(runs, ["verdict_s"])["workloads"]["w"]["last_round_ops_s"]
    assert ops["change"] == {"search": 0.155, "check": 0.1}
    # eight wins of ten, or a gap inside the parent's quartiles, or more
    # failed operations than at the parent: no claim
    runs["w"]["change"][5] = result(1.4)
    assert not summarize(runs, ["verdict_s"], ("w", "verdict_s"))["claim"]["met"]
    runs["w"]["change"] = [result(v - 0.05) for v in parent]
    assert not summarize(runs, ["verdict_s"], ("w", "verdict_s"))["claim"]["met"]
    runs["w"]["change"] = [result(v, failed=1) for v in change]
    assert not summarize(runs, ["verdict_s"], ("w", "verdict_s"))["claim"]["met"]


FAKE_RUN = '''
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
stem = f"{args['--workload']}-seed{args['--seed']}-trace0"
os.makedirs("bench/out", exist_ok=True)
with open(f"bench/out/result-{stem}.json", "w") as fh:
    json.dump({"last_round_ops_s": {"op": 0.1}}, fh)
flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "flag": flag,
                  "metrics": {m: {"value": 1.0} for m in
                              ("setup_s", "verdict_s", "peak_rss_mb")}}))
'''


def _fake_tree(path):
    (path / "bench").mkdir(parents=True)
    (path / "src" / "qrefl").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(FAKE_RUN)
    return path


def test_bench_pairs_runs_without_bytecode(tmp_path, monkeypatch, capsys):
    # every child runs with PYTHONDONTWRITEBYTECODE=1 whatever the caller's
    # environment, the JSON head says so, and a tree holding bytecode is
    # refused with one error before anything runs
    import bench_pairs

    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    parent, change = _fake_tree(tmp_path / "p"), _fake_tree(tmp_path / "c")
    assert bench_pairs.run_once(str(parent), "w", 3, 1)["flag"] == "1"
    out = tmp_path / "bench.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seeds", "1-1",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    summary = json.loads(out.read_text())
    assert summary["environment"] == "PYTHONDONTWRITEBYTECODE=1, trees without bytecode"

    cache = change / "src" / "qrefl" / "__pycache__"
    cache.mkdir()
    (cache / "params.cpython-311.pyc").write_bytes(b"")
    out.unlink()
    capsys.readouterr()
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "holds bytecode" in err and str(cache) in err
    assert not out.exists()
    with pytest.raises(bench_pairs.Bytecode):
        bench_pairs.run_once(str(change), "w", 3, 1)


def test_bench_pairs_refuses_trees_of_unequal_depth(tmp_path, capsys):
    # peak RSS moves with a tree's directory depth: a parent and a change
    # whose real paths differ in depth are refused with one error before
    # anything runs, also when a symlink hides the difference
    import bench_pairs

    parent = _fake_tree(tmp_path / "p")
    change = _fake_tree(tmp_path / "deeper" / "c")
    out = tmp_path / "bench.json"
    for chg in (change, tmp_path / "link"):
        if chg.name == "link":
            chg.symlink_to(change)
        argv = ["--parent", str(parent), "--change", str(chg), "--seeds", "1-1",
                "--out", str(out)]
        capsys.readouterr()
        assert bench_pairs.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "equal depth" in err
        assert not out.exists()
        assert not (change / "bench" / "out").exists()
    with pytest.raises(bench_pairs.UnequalDepth):
        bench_pairs.refuse_unequal_depth(str(parent), str(change))
    bench_pairs.refuse_unequal_depth(str(parent), str(tmp_path / "q"))
