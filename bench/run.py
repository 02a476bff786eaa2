"""Benchmark runner for qrefl: time to verdict, set-up time and peak RSS.

    python3 bench/run.py --workload full-torus --seed 1 --seconds 36 --trace 0

One workload per call, in this process, on one thread: a closed loop of
calls into ``qrefl.verify``, each started when the previous one returns.
Every verdict is checked against its known answer, then the oracle checks
run.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for the workloads and the metrics.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3         # fresh interpreters whose set-up time is the median


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("full-torus", "full-weyl", "finite-levels"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, print 'ready' and exit")
    return ap.parse_args(argv)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, label, thunk, check=None):
        """One operation: it fails if it raises or a check disagrees."""
        from workloads import Failure
        self.attempted += 1
        try:
            out = thunk()
            if check is not None:
                check(out)
            return out
        except Failure as exc:
            self.correct = False
            print(f"WRONG {label}: {exc}", file=sys.stderr)
        except Exception:  # a raising operation is counted, and the run goes on
            traceback.print_exc()
            print(f"ERROR {label}", file=sys.stderr)
        self.failed += 1
        return None


def run_round(wl, tally):
    """All operations of one round; returns their wall time.  The wall
    time of each operation label is kept in ``wl.op_s`` for the result
    file."""
    wl.start_round()
    wl.op_s = {}
    t0 = t = perf_counter()
    for label, thunk, check in wl.ops():
        out = tally.run(label, thunk, check)
        now = perf_counter()
        wl.op_s[label] = wl.op_s.get(label, 0.0) + now - t
        t = now
        if out is not None:
            wl.last[label] = out
    return perf_counter() - t0


def probe_setup(args):
    """Wall time from spawning a fresh interpreter until it has imported
    qrefl and built the workload's shared inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        dt = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line != "ready" or code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return dt


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qrefl", "__init__.py")):
        print(f"qrefl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import VERIFY_TASKS, WORKLOADS
    Workload = WORKLOADS[args.workload]

    if args.setup_probe:
        Workload.build()
        print("ready", flush=True)
        return 0

    tally = Tally()
    wl = Workload(args.seed)
    rounds = [run_round(wl, tally)]
    if not args.trace:
        while perf_counter() - T_START + max(rounds) <= args.seconds:
            rounds.append(run_round(wl, tally))
    verdict_s = statistics.median(rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        from tracer import Tracer, install_layers, layer_metrics
        tracer = Tracer()
        install_layers(tracer, VERIFY_TASKS)
        try:
            # forget the shared inputs so that the traced set-up builds them
            wl.V._TORUS_CACHE.clear()
            wl.V._WEYL_CACHE.clear()
            with tracer.span("setup"):
                Workload.build()
            with tracer.span("round"):
                traced_s = run_round(wl, tally)
        finally:
            tracer.remove()
        metrics = layer_metrics(tracer, VERIFY_TASKS)
        metrics["trace.overhead_s"] = (traced_s - verdict_s, "s")
    else:
        # after the rounds: spawning interpreters slows the next seconds down
        setup_s = statistics.median(probe_setup(args) for _ in range(SETUP_PROBES))
        metrics = {"setup_s": (setup_s, "s"), "verdict_s": (verdict_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}

    for label, check in wl.oracle_checks():
        tally.run(label, check)

    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as fh:
        json.dump(dict(result, rounds_s=rounds, last_round_ops_s=wl.op_s), fh, indent=1)
    if args.trace:
        tracer.write_spans(os.path.join(OUT, f"trace-{stem}.jsonl"))
    print(f"{args.workload} seed {args.seed}: round times {rounds} s",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
