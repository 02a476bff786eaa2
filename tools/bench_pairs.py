"""Run the benchmark on two trees in alternating pairs and summarize them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seeds 1201-1210 \
        --claim full-torus:verdict_s --out BENCH_n.json

For every seed and every workload of BENCHMARK.json, each tree runs its
own ``bench/run.py --workload W --seed N --seconds S --trace 0`` (S is the
file's ``run_seconds``), the parent first on odd seeds and the change
first on even seeds.  Each run gets PYTHONDONTWRITEBYTECODE=1, and a tree
that holds bytecode under src/ or bench/ is refused: set-up time and peak
RSS are measured without it.  Two trees whose real paths differ in depth
are refused too, since peak RSS moves with a tree's directory depth.  The
summary is rewritten to ``--out`` after every pair: per workload and
end-to-end metric, each side's median and inclusive quartiles, its runs,
and the number of pairs in which the change reads lower (ties count for
neither side); per workload and operation, each side's median wall time
in the last round of a run, read from ``last_round_ops_s`` in the run's
bench/out/result-*.json.  A
claimed gain is met when the change reads lower in at least nine tenths
of the pairs, the medians differ by more than the parent's quartile
spread, and every run is correct with no more failed operations than at
the parent.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SIDES = ("parent", "change")


def spread(values):
    """Median and inclusive quartiles, rounded to 4 decimals."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def op_medians(results):
    """{operation label: median seconds} over the ``last_round_ops_s`` of
    the results that carry it, in the order the operations ran."""
    per = {}
    for r in results:
        for label, v in r.get("last_round_ops_s", {}).items():
            per.setdefault(label, []).append(v)
    return {label: round(statistics.median(v), 4) for label, v in per.items()}


def summarize(runs, metrics, claim=None):
    """The summary of ``runs`` = {workload: {"parent": [result, ...],
    "change": [result, ...]}}, whose results are the JSON objects that
    bench/run.py prints, paired by position; a workload without runs is
    left out.  ``claim`` is a (workload,
    metric) pair or None."""
    out = {"workloads": {}}
    for wl, sides in runs.items():
        par, chg = sides["parent"], sides["change"]
        if not chg:
            continue
        row = {"correct": all(r["correct"] for r in par + chg),
               "failed": {s: sum(r["failed"] for r in sides[s]) for s in SIDES},
               "attempted": {s: [r["attempted"] for r in sides[s]] for s in SIDES}}
        for m in metrics:
            p = [r["metrics"][m]["value"] for r in par]
            c = [r["metrics"][m]["value"] for r in chg]
            row[m] = {"parent": spread(p), "change": spread(c),
                      "parent_runs": [round(v, 4) for v in p],
                      "change_runs": [round(v, 4) for v in c],
                      "change_lower_in_pairs": sum(b < a for a, b in zip(p, c))}
        row["last_round_ops_s"] = {s: op_medians(sides[s]) for s in SIDES}
        out["workloads"][wl] = row
    if claim is not None and claim[0] in out["workloads"]:
        wl, m = claim
        row = out["workloads"][wl]
        stat = row[m]
        wins, pairs = stat["change_lower_in_pairs"], len(stat["change_runs"])
        gap = stat["parent"]["median"] - stat["change"]["median"]
        width = stat["parent"]["q3"] - stat["parent"]["q1"]
        out["claim"] = {
            "metric": m, "workload": wl,
            "change_lower_in_pairs": wins,
            "median_gap_s": round(gap, 4), "parent_quartile_spread_s": round(width, 4),
            "met": (wins >= math.ceil(0.9 * pairs) and gap > width and row["correct"]
                    and row["failed"]["change"] <= row["failed"]["parent"])}
    return out


class Refused(Exception):
    """The trees cannot be compared fairly; nothing is run."""


class Bytecode(Refused):
    """A benchmarked tree holds compiled bytecode."""


class UnequalDepth(Refused):
    """The two trees lie at different directory depths."""


def refuse_unequal_depth(parent, change):
    """Raise UnequalDepth when the real paths of the two trees have a
    different number of components."""
    depth = {t: len(os.path.realpath(t).split(os.sep)) for t in (parent, change)}
    if depth[parent] != depth[change]:
        raise UnequalDepth(
            f"{parent} lies {depth[parent]} and {change} {depth[change]} "
            "directories deep; peak RSS moves with a tree's depth, so copy "
            "both to paths of equal depth")


def refuse_bytecode(tree):
    """Raise Bytecode naming the first __pycache__ directory or .pyc file
    under ``tree``'s src/ or bench/."""
    for sub in ("src", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(tree, sub)):
            found = [os.path.join(dirpath, n) for n in dirnames + filenames
                     if n == "__pycache__" or n.endswith(".pyc")]
            if found:
                raise Bytecode(f"{tree} holds bytecode ({found[0]}); remove it, "
                               "set-up time and peak RSS are measured without it")


def run_once(tree, workload, seed, seconds):
    """The result object that ``tree``'s bench/run.py prints last, with the
    ``last_round_ops_s`` of the result file it writes.  The run writes no
    bytecode, and a tree that holds some is refused."""
    refuse_bytecode(tree)
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace0"
    with open(os.path.join(tree, "bench", "out", f"result-{stem}.json")) as fh:
        result["last_round_ops_s"] = json.load(fh)["last_round_ops_s"]
    return result


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="tree of the parent commit")
    ap.add_argument("--change", required=True, help="tree of the change")
    ap.add_argument("--seeds", required=True, help="inclusive range A-B")
    ap.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain")
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    claim = tuple(args.claim.split(":")) if args.claim else None
    trees = {"parent": args.parent, "change": args.change}
    try:
        refuse_unequal_depth(args.parent, args.change)
        for tree in trees.values():
            refuse_bytecode(tree)
    except Refused as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 2
    runs = {wl: {s: [] for s in SIDES} for wl in workloads}
    head = {"command": f"python3 bench/run.py --workload W --seed N "
                       f"--seconds {seconds} --trace 0",
            "machine": f"{os.cpu_count()} cores, Python {platform.python_version()}",
            "environment": "PYTHONDONTWRITEBYTECODE=1, trees without bytecode",
            "seeds": seeds,
            "order": "parent first on odd seeds, change first on even seeds",
            "quartiles": "statistics.quantiles(n=4, method='inclusive') "
                         "over the runs of each side"}
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for wl in workloads:
            for side in order:
                runs[wl][side].append(run_once(trees[side], wl, seed, seconds))
            par, chg = (runs[wl][s][-1]["metrics"] for s in SIDES)
            print(f"seed {seed} {wl}: " + ", ".join(
                f"{m} {par[m]['value']:.4g} -> {chg[m]['value']:.4g}"
                for m in metrics), file=sys.stderr, flush=True)
            with open(args.out, "w") as fh:
                json.dump({**head, **summarize(runs, metrics, claim)}, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
