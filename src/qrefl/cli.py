"""Command-line interface.

Subcommands: quiver (show/mutate), operator (show/limit), verify,
search-signs, wd, limit, period.  ``verify --task`` accepts the names of
the TASKS table.  Exit code 0 on pass, 1 on fail, 2 on usage error
(an unknown subcommand, flag, task or name, a flag the chosen task or
action does not read, bad indices, signs or cutoffs, a quiver file that
cannot be read as UTF-8 text or is malformed, a report file that cannot
be written, or a limit that diverges).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import verify as V
from .cluster import (BadIndex, FrozenVertex, MalformedQuiver, MutationSequence,
                      Perm, UnknownName, seed_from_text, seed_to_text)
from .operators import (BadIndices, DivergentFactor, build, ray, rules_for,
                        take_limit)
from .quivers import builtin


def _load_quiver(value):
    """A builtin quiver, or the seed and named sequences of a quiver file."""
    try:
        seed = builtin(value)
    except UnknownName:
        try:
            with open(value, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read quiver file {value}: {exc.strerror}")
        except UnicodeDecodeError:
            raise UsageError(f"quiver file {value} is not UTF-8 text")
        return seed_from_text(text)
    if isinstance(seed, MutationSequence):
        raise UsageError(f"{value} is a builtin mutation sequence, not a quiver")
    return seed, {}


def _print_report(rep, out):
    text = rep.to_json()
    if out in (None, "-"):
        print(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write report file {out}: {exc.strerror}")
    if rep.wall_ms is not None:
        print(f"# wall time: {rep.wall_ms} ms", file=sys.stderr)
    return 0 if rep.status else 1


class UsageError(Exception):
    """A flag or value that the chosen task or action cannot use."""


def _reject_unread(args, flags, reads, what, positional=()):
    unread = [f"the {f} argument" if f in positional else f"--{f}"
              for f in flags if f not in reads and getattr(args, f) is not None]
    if unread:
        raise UsageError(f"{what} does not read {', '.join(unread)}")


def _cutoff(text):
    """A truncation order: a nonnegative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"takes a nonnegative integer, got {text!r}")


def _steps(text):
    """Mutation vertices from a comma-separated list of integers."""
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise UsageError(f"--seq takes comma-separated vertices, got {text!r}")


# quiver action -> the argument that names its quiver, the flags it reads
_QUIVER_READS = {"show": ("name", ()), "mutate": ("file", ("seq",))}


def cmd_quiver(args):
    source, reads = _QUIVER_READS[args.action]
    if getattr(args, source) is None:
        raise UsageError(f"quiver {args.action} needs "
                         f"{'a name' if source == 'name' else '--file'}")
    _reject_unread(args, ("name", "file", "seq"), (source,) + reads,
                   f"quiver {args.action}", positional=("name",))
    seed, _ = _load_quiver(getattr(args, source))
    if args.action == "mutate":
        seed = MutationSequence(_steps(args.seq or ""), Perm()).apply_matrix(seed)
    sys.stdout.write(seed_to_text(seed))
    return 0


def _print_operator(op):
    lines = [f"dilog base=q^{base} expo={expo:+d} arg={m}"
             for base, expo, m in op.factors]
    lines.insert(op.tail_pos, f"tail: {op.tail}")
    print("\n".join(lines))


# degeneration ray -> the constraint system its operators are built under
_RAY_SYSTEMS = {row.ray: row.system for row in V.FG_LIMITS.values()}
# operator action -> the flags it reads besides --name
_OPERATOR_READS = {"show": ("indices", "constraints"), "limit": ("ray", "constraints")}


def cmd_operator(args):
    _reject_unread(args, ("indices", "constraints", "ray"),
                   _OPERATOR_READS[args.action], f"operator {args.action}")
    rules = rules_for(args.constraints) if args.constraints else None
    if args.action == "show":
        _print_operator(build(args.name, args.indices, rules=rules))
        return 0
    if args.ray is None:
        raise UsageError("operator limit needs --ray")
    row = V.FG_LIMITS.get(args.name)
    op = build(row.operator if row else args.name,
               rules=rules or rules_for(_RAY_SYSTEMS[args.ray]))
    _print_operator(take_limit(op, ray(args.ray)))
    return 0


_RE_SIGNS = (1, -1, 1, -1, 1, -1, 1, -1)

# verify task name -> (the flags it reads, with their defaults; the check
# run on the parsed arguments).  A task takes as many signs as its default.
TASKS = {
    "TE-tau": ({"signs": (1,)}, lambda a: V.check_te_tau(*a.signs)),
    "TE-eta": ({"signs": (1,)}, lambda a: V.check_te_eta(*a.signs)),
    "TE-P": ({"variant": "P+"}, lambda a: V.check_te_P(a.variant)),
    "TE-seed": ({}, lambda a: V.check_te_seed()),
    "RE-tau": ({"signs": _RE_SIGNS}, lambda a: V.check_re_tau(a.signs)),
    "RE-eta": ({"signs": _RE_SIGNS}, lambda a: V.check_re_eta(a.signs)),
    "RE-P": ({"signs": _RE_SIGNS}, lambda a: V.check_re_P(a.signs)),
    "RE-full": ({"cutoff": 3, "rep": "torus"},
                lambda a: V.check_re_full(a.cutoff, a.rep)),
    "RE-seed": ({}, lambda a: V.check_re_seed()),
    "K-eps-indep": ({"variant": "rho24", "cutoff": 5},
                    lambda a: V.check_K_eps_indep(a.variant, a.cutoff)),
    "dilog-wd": ({"system": "pnL"}, lambda a: V.check_wd(a.system)),
    "FG-limit": ({"operator": "K-rho24--+"}, lambda a: V.check_fg_limit(a.operator)),
    "diagram": ({"variant": "Kcom"}, lambda a: V.check_diagram(a.variant)),
    "lemma": ({"cutoff": 6}, lambda a: V.check_rewriting_lemma(a.cutoff)),
}
_VERIFY_FLAGS = ("cutoff", "signs", "rep", "variant", "system", "operator")


def _index_tuple(text):
    return tuple(int(x) for x in text.split(","))


_SIGN_CHARS = {"+": 1, "p": 1, "-": -1, "m": -1}


def _sign_tuple(text):
    """Signs from a string over + or p (plus) and - or m (minus)."""
    if not set(text) <= set(_SIGN_CHARS):
        raise UsageError(f"--signs takes + or p and - or m, got {text!r}")
    return tuple(_SIGN_CHARS[c] for c in text)


def cmd_verify(args):
    reads, check = TASKS[args.task]
    _reject_unread(args, _VERIFY_FLAGS, reads, f"verify --task {args.task}")
    if args.signs is not None:
        args.signs = _sign_tuple(args.signs)
    for flag, default in reads.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    if "signs" in reads and len(args.signs) != len(reads["signs"]):
        raise UsageError(f"verify --task {args.task} takes "
                         f"{len(reads['signs'])} sign(s), got {len(args.signs)}")
    t0 = time.perf_counter()
    rep = check(args)
    rep.wall_ms = int(1000 * (time.perf_counter() - t0))
    return _print_report(rep, args.out)


def _search_P(homogeneous):
    if not homogeneous:
        raise UsageError("search-signs --level p has only the homogeneous "
                         "search; pass --homogeneous")
    return V.search_good_signs_P()


SEARCHES = {
    "tau": lambda homogeneous: V.search_good_signs_tau(homogeneous),
    "eta": lambda homogeneous: V.search_good_signs_eta(homogeneous),
    "p": _search_P,
}


def cmd_search_signs(args):
    good = SEARCHES[args.level](args.homogeneous)
    for t in good:
        print("".join("+" if x > 0 else "-" for x in t))
    print(f"# {len(good)} good sign assignment(s) at level {args.level}")
    return 0


def cmd_wd(args):
    rep = V.check_wd(args.system)
    return _print_report(rep, args.out)


def cmd_limit(args):
    rep = V.check_fg_limit(args.operator)
    return _print_report(rep, args.out)


def _sequence(text, named):
    """A sequence named in the quiver file, a builtin sequence, or
    comma-separated vertices."""
    if text in named:
        return named[text]
    try:
        ms = builtin(text)
    except UnknownName:
        ms = None
    if isinstance(ms, MutationSequence):
        return ms
    return MutationSequence(_steps(text), Perm())


def cmd_period(args):
    seed, named = _load_quiver(args.quiver)
    ms = _sequence(args.seq, named)
    full = ms.then(ms.inverse()) if args.round_trip else ms
    rep = V.check_period(seed, full, quantum_cutoff=args.cutoff)
    return _print_report(rep, args.out)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="qrefl",
        description="exact verification of the tetrahedron / reflection "
                    "operator identities from quantum cluster data")
    sub = ap.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("quiver", help="show or mutate a quiver")
    q.add_argument("action", choices=["show", "mutate"])
    q.add_argument("name", nargs="?", help="builtin name (for show)")
    q.add_argument("--file", help="quiver file (for mutate)")
    q.add_argument("--seq", default=None, help="comma-separated steps (for mutate)")
    q.set_defaults(fn=cmd_quiver)

    o = sub.add_parser("operator", help="show or degenerate an operator")
    o.add_argument("action", choices=["show", "limit"])
    o.add_argument("--name", required=True)
    o.add_argument("--indices", type=_index_tuple, default=None)
    o.add_argument("--constraints", default=None)
    o.add_argument("--ray", choices=list(_RAY_SYSTEMS), default=None,
                   help="degeneration ray (required by limit)")
    o.set_defaults(fn=cmd_operator)

    v = sub.add_parser("verify", help="run an identity verification task")
    v.add_argument("--task", required=True, choices=list(TASKS))
    v.add_argument("--cutoff", type=_cutoff, default=None)
    v.add_argument("--signs", default=None,
                   help="signs as + or p and - or m, like '+-+-+-+-' or pmpmpmpm; "
                        "write --signs=... when the string starts with a dash")
    v.add_argument("--rep", choices=["torus", "weyl"], default=None)
    v.add_argument("--variant", default=None)
    v.add_argument("--system", choices=V.WD_SYSTEMS, default=None)
    v.add_argument("--operator", choices=list(V.FG_LIMITS), default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("search-signs", help="classify decomposition signs")
    s.add_argument("--level", choices=list(SEARCHES), required=True)
    s.add_argument("--homogeneous", action="store_true",
                   help="only the signs (d1, d2) repeated four times; "
                        "--level p has only this search")
    s.set_defaults(fn=cmd_search_signs)

    w = sub.add_parser("wd", help="finite-fiber certificate for a system")
    w.add_argument("--system", required=True, choices=V.WD_SYSTEMS)
    w.add_argument("--out", default=None)
    w.set_defaults(fn=cmd_wd)

    l = sub.add_parser("limit", help="verify a degeneration limit")
    l.add_argument("--operator", required=True, choices=list(V.FG_LIMITS))
    l.add_argument("--out", default=None)
    l.set_defaults(fn=cmd_limit)

    p = sub.add_parser("period", help="sigma-periodicity of a sequence")
    p.add_argument("--quiver", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--round-trip", action="store_true",
                   help="append the inverse sequence first")
    p.add_argument("--cutoff", type=_cutoff, default=None,
                   help="also check the dilogarithm identity to this order")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_period)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except UnknownName as exc:
        print(f"unknown name: {exc}", file=sys.stderr)
    except (BadIndex, BadIndices, DivergentFactor, FrozenVertex, MalformedQuiver,
            UsageError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
