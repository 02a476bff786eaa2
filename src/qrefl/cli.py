"""Command-line interface.

Subcommands: quiver (show/mutate), operator (show/limit), verify,
search-signs, wd, limit, period.  ``verify --task`` accepts the names of
the TASKS table.  Exit code 0 on pass, 1 on fail, 2 on usage error
(an unknown subcommand, flag, task or name).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import verify as V
from .cluster import MutationSequence, Perm, seed_from_text, seed_to_text
from .operators import (UnknownName, build_FG, build_K, build_R, constraints,
                        ray, rules_for, take_limit)
from .quivers import builtin


def _load_quiver(value):
    from .cluster import UnknownName as ClusterUnknown
    try:
        return builtin(value)
    except (UnknownName, ClusterUnknown):
        with open(value) as fh:
            seed, _ = seed_from_text(fh.read())
        return seed


def _print_report(rep, out):
    text = rep.to_json()
    if out in (None, "-"):
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    if rep.wall_ms is not None:
        print(f"# wall time: {rep.wall_ms} ms", file=sys.stderr)
    return 0 if rep.status else 1


def cmd_quiver(args):
    if args.action == "show":
        seed = _load_quiver(args.name)
        sys.stdout.write(seed_to_text(seed))
        return 0
    seed = _load_quiver(args.file)
    steps = [int(x) for x in args.seq.split(",") if x]
    ms = MutationSequence(steps, Perm())
    out = ms.apply_matrix(seed)
    sys.stdout.write(seed_to_text(out))
    return 0


_OPERATOR_NAMES = {
    "R+": ("R", "plus"), "R-": ("R", "minus"),
    "Rbar+": ("R", "bar-plus"), "Rbar-": ("R", "bar-minus"),
    "R-final": ("R", "final"),
    "K-rho24++": ("K", ("rho24", (1, 1))), "K-rho24+-": ("K", ("rho24", (1, -1))),
    "K-rho24-+": ("K", ("rho24", (-1, 1))), "K-rho24--": ("K", ("rho24", (-1, -1))),
    "K-rho13++": ("K", ("rho13", (1, 1))), "K-rho13+-": ("K", ("rho13", (1, -1))),
    "K-rho13-+": ("K", ("rho13", (-1, 1))), "K-rho13--": ("K", ("rho13", (-1, -1))),
}


def _build_operator(name, indices=None, sysname=None):
    rules = None
    if sysname:
        from .operators import PREFER
        prefer = PREFER.get(sysname, tuple(sorted(
            constraints(sysname).symbols())))
        rules = rules_for(sysname, prefer)
    if name in _OPERATOR_NAMES:
        kind, sel = _OPERATOR_NAMES[name]
        if kind == "R":
            idx = indices or (1, 2, 3)
            return build_R(sel, idx, rules=rules)
        ktype, eps = sel
        idx = indices or (1, 2, 3, 4)
        return build_K(ktype, eps, idx, rules=rules)
    return build_FG(name)


def _print_operator(op):
    for base, expo, m in op.factors:
        print(f"dilog base=q^{base} expo={expo:+d} arg={m}")
    print(f"tail: {op.tail}")


# degeneration ray -> the constraint system its operators are built under
_RAY_SYSTEMS = {plan[3]: plan[2] for plan in V.FG_LIMITS.values()}
_LIMIT_ALIAS = {"K-rho24--+": "K-rho24-+", "K-rho24---": "K-rho24--",
                "K-rho13--+": "K-rho13-+", "K-rho13---": "K-rho13--"}


def cmd_operator(args):
    if args.action == "show":
        indices = tuple(int(x) for x in args.indices.split(",")) if args.indices else None
        _print_operator(_build_operator(args.name, indices, args.constraints))
        return 0
    name = _LIMIT_ALIAS.get(args.name, args.name)
    if name not in _OPERATOR_NAMES:
        raise UnknownName(name)
    op = _build_operator(name, None, args.constraints or _RAY_SYSTEMS[args.ray])
    _print_operator(take_limit(op, ray(args.ray)))
    return 0


_RE_SIGNS = (1, -1, 1, -1, 1, -1, 1, -1)

# verify task name -> check run on the parsed arguments
TASKS = {
    "TE-tau": lambda a: V.check_te_tau((a.signs or (1,))[0]),
    "TE-eta": lambda a: V.check_te_eta((a.signs or (1,))[0]),
    "TE-P": lambda a: V.check_te_P(a.variant or "P+"),
    "TE-seed": lambda a: V.check_te_seed(),
    "RE-tau": lambda a: V.check_re_tau(a.signs or _RE_SIGNS),
    "RE-eta": lambda a: V.check_re_eta(a.signs or _RE_SIGNS),
    "RE-P": lambda a: V.check_re_P(a.signs or _RE_SIGNS),
    "RE-full": lambda a: V.check_re_full(a.cutoff or 3, a.rep),
    "RE-seed": lambda a: V.check_re_seed(),
    "K-eps-indep": lambda a: V.check_K_eps_indep(a.variant or "rho24",
                                                 a.cutoff or 5),
    "dilog-wd": lambda a: V.check_wd(a.system or "pnL"),
    "FG-limit": lambda a: V.check_fg_limit(a.operator or "K-rho24--+"),
    "diagram": lambda a: V.check_diagram(a.variant or "Kcom"),
    "lemma": lambda a: V.check_rewriting_lemma(a.cutoff or 6),
}


def _sign_tuple(text):
    return tuple(1 if s in "+1p" else -1 for s in text.replace(",", ""))


def cmd_verify(args):
    t0 = time.perf_counter()
    rep = TASKS[args.task](args)
    rep.wall_ms = int(1000 * (time.perf_counter() - t0))
    return _print_report(rep, args.out)


SEARCHES = {
    "tau": lambda homogeneous: V.search_good_signs_tau(homogeneous),
    "eta": lambda homogeneous: V.search_good_signs_eta(homogeneous),
    "p": lambda homogeneous: V.search_good_signs_P(),
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


def cmd_period(args):
    seed = _load_quiver(args.quiver)
    if args.seq in ("R-seq", "Rbar-seq", "K-seq", "FG-R-seq", "FG-K-seq"):
        ms = builtin(args.seq)
    else:
        steps = [int(x) for x in args.seq.split(",") if x]
        ms = MutationSequence(steps, Perm())
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
    q.add_argument("--seq", default="", help="comma-separated steps")
    q.set_defaults(fn=cmd_quiver)

    o = sub.add_parser("operator", help="show or degenerate an operator")
    o.add_argument("action", choices=["show", "limit"])
    o.add_argument("--name", required=True)
    o.add_argument("--indices", default=None)
    o.add_argument("--constraints", default=None)
    o.add_argument("--ray", choices=list(_RAY_SYSTEMS), default=None,
                   help="degeneration ray (required by limit)")
    o.set_defaults(fn=cmd_operator)

    v = sub.add_parser("verify", help="run an identity verification task")
    v.add_argument("--task", required=True, choices=list(TASKS))
    v.add_argument("--cutoff", type=int, default=None)
    v.add_argument("--signs", type=_sign_tuple, default=None,
                   help="sign string like '+-+-+-+-'; use --signs=... when it starts with a dash (or letters p/m)")
    v.add_argument("--rep", choices=["torus", "weyl"], default="torus")
    v.add_argument("--variant", default=None)
    v.add_argument("--system", choices=V.WD_SYSTEMS, default=None)
    v.add_argument("--operator", choices=list(V.FG_LIMITS), default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("search-signs", help="classify decomposition signs")
    s.add_argument("--level", choices=list(SEARCHES), required=True)
    s.add_argument("--homogeneous", action="store_true")
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
    p.add_argument("--cutoff", type=int, default=None,
                   help="also check the dilogarithm identity to this order")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_period)

    args = ap.parse_args(argv)
    if args.cmd == "operator" and args.action == "limit" and args.ray is None:
        o.error("operator limit needs --ray")
    try:
        return args.fn(args)
    except UnknownName as exc:
        print(f"unknown name: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
