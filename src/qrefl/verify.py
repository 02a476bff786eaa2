"""Verification tasks: the composite identities at all four levels,
sign-sequence searches, well-definedness certificates, sign-variant
independence, degeneration limits, and periodicity.  Every check returns
a Report; reports are deterministic for fixed inputs.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

from . import catalog as C
from . import compositions as FX
from .cluster import (ExchangeSeed, MutationSequence, Perm, TropicalSeed,
                      UnknownName, is_sigma_period, tropical_signs)
from .compose import (composite_sequence, composite_signs, fold_prefixes,
                      run_composite, run_composites)
from .nilgroup import (ORDER_A3, ORDER_A3_PRIME, OrderViolation, adjoint,
                       bch_mul, group_equal)
from .operators import (OPERATORS, build, build_FG, canonical_map, constraints,
                        factors, ray, rules_for, sign_text, tail, take_limit,
                        torus_map)
from .params import LinSystem, ParamForm
from .qtorus import (Infeasible, QuantumTorus, TorusSeries, check_stage_plan,
                     expand_product, match_stage_plan, staged_certificate,
                     stiemke_grading)
from .quivers import builtin
from .qweyl import (AffineCanonMap, SPEC_A3, SPEC_C3, build_subst_hom,
                    diagram_commutes, expand_weyl_product)
from .scalars import ONE, ScalarQ


class Report:
    """Task echo, status, counters and certificates."""

    def __init__(self, task, status, details=None, counters=None):
        self.task = task
        self.status = bool(status)
        self.details = details or {}
        self.counters = counters or {}
        self.wall_ms = None

    def to_json(self, include_timing=False) -> str:
        payload = {
            "task": self.task,
            "status": "pass" if self.status else "fail",
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "details": _jsonable(self.details),
        }
        if include_timing and self.wall_ms is not None:
            payload["wall_ms"] = self.wall_ms
        return json.dumps(payload, sort_keys=True, indent=2, default=str)

    def line(self) -> str:
        return f"[{'PASS' if self.status else 'FAIL'}] {self.task}"


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    return str(x)


_REFLECTION = {"L": FX.REFLECTION_LHS, "R": FX.REFLECTION_RHS}
_TETRAHEDRON = {"L": FX.TETRAHEDRON_LHS, "R": FX.TETRAHEDRON_RHS}
_TE_FINAL = {"L": FX.TETRAHEDRON_FINAL["LHS"], "R": FX.TETRAHEDRON_FINAL["RHS"]}
# each side as one mutation sequence; a tetrahedron side ends with its
# final relabel
_RE_SEQ = {side: composite_sequence(rows) for side, rows in _REFLECTION.items()}
_TE_SEQ = {side: composite_sequence(rows).then(
               MutationSequence((), Perm.transpositions(_TE_FINAL[side])))
           for side, rows in _TETRAHEDRON.items()}
# the spaces of the four tetrahedron factors of the left side, in product
# order; the right side takes them in reverse
_TE_ORDER = ((4, 5, 6), (2, 3, 6), (1, 3, 5), (1, 2, 4))
_SIGNS = (1, -1)
_GOOD = (1, -1, 1, -1)      # the good R/Rbar signs of each reflection side
_K = "K-rho24-+"            # the K of the reflection composite


def _fold(keys, factor, mul, stop=()):
    """{key: the left fold with ``mul`` of ``factor(item)`` over the items
    of the key} for every key.  Each distinct item is built once, just
    before it is first multiplied in, and keys that share a prefix share
    its product (``fold_prefixes``).  A fold in which building or
    multiplying raises one of the exception classes ``stop`` ends there,
    with the exception as its value."""
    built = {}

    def step(acc, _, item):
        if isinstance(acc, stop):
            return acc
        try:
            if item not in built:
                built[item] = factor(item)
            return built[item] if acc is None else mul(acc, built[item])
        except stop as exc:
            return exc

    return fold_prefixes(keys, None, step)


def _side_rows(side, deltas):
    """The (name, spaces) of every row of one reflection side: the R/Rbar
    rows take their signs from ``deltas`` in order, the K rows are ``_K``."""
    signs = iter(deltas)
    return tuple((_K if kind == "K" else kind + sign_text((next(signs),)), spaces)
                 for kind, spaces, _, _ in _REFLECTION[side])


def _fold_sides(pairs, factor, mul, stop=()):
    """{(side, deltas): the fold of that reflection side with the level's
    product ``mul``} for every pair, row by row from the value
    ``factor(name, spaces)`` of the named operator (``stop`` as in
    ``_fold``)."""
    rows = {pair: _side_rows(*pair) for pair in pairs}
    folded = _fold(rows.values(), lambda row: factor(*row), mul, stop)
    return {pair: folded[r] for pair, r in rows.items()}


def _te_sides(factor, mul):
    """Both sides of the tetrahedron identity from ``factor(spaces)``."""
    orders = (_TE_ORDER, _TE_ORDER[::-1])
    folded = _fold(orders, factor, mul)
    return [folded[order] for order in orders]


def _te_rules():
    """The sum-zero system a_i + b_i + c_i + d_i + e_i = 0, solved for e_i."""
    return LinSystem([ParamForm({f"a{i}": 1, f"b{i}": 1, f"c{i}": 1,
                                 f"d{i}": 1, f"e{i}": 1}) for i in range(1, 7)],
                     "sum-zero").eliminate(tuple(f"e{i}" for i in range(1, 7)))


def _search(homogeneous, sides, same):
    """The good sign assignments of a level: the pairs (d1, d2) whose
    homogeneous assignment passes, or all passing 2^8 assignments, sorted.
    ``sides(pairs)`` gives {(side, deltas): value} for all the pairs at
    once, and ``same(left, right)`` accepts two side values."""
    tuples = [d * 2 for d in product(_SIGNS, repeat=2)] if homogeneous \
        else list(product(_SIGNS, repeat=4))
    values = sides([(side, t) for side in "LR" for t in tuples])
    if homogeneous:
        return [t[:2] for t in tuples if same(values["L", t], values["R", t])]
    return sorted(tl + tr for tl in tuples for tr in tuples
                  if same(values["L", tl], values["R", tr]))


# ---------------------------------------------------------------------------
# monomial level


def _tau_side(side, deltas):
    return run_composite(builtin("B(C3)"), _RE_SEQ[side],
                         composite_signs(_REFLECTION[side], deltas))


def _tau_sides(pairs):
    """{(side, deltas): the walk of that side} for every pair; each side's
    sign lists are walked together by ``run_composites``."""
    signs = {pair: composite_signs(_REFLECTION[pair[0]], pair[1]) for pair in pairs}
    walks = {side: run_composites(builtin("B(C3)"), _RE_SEQ[side],
                                  [s for (sd, _), s in signs.items() if sd == side])
             for side in "LR"}
    return {pair: walks[pair[0]][s] for pair, s in signs.items()}


def _same_tau(stL, stR):
    return stL.seed == stR.seed and stL.hom == stR.hom


def check_re_tau(delta8=(1, -1, 1, -1, 1, -1, 1, -1)) -> Report:
    """Exact equality of the two composed monomial maps on 22 generators."""
    stL = _tau_side("L", tuple(delta8[:4]))
    stR = _tau_side("R", tuple(delta8[4:]))
    ok = _same_tau(stL, stR)
    details = {}
    if stL.seed == stR.seed and not ok:
        details["witness"] = stL.hom.first_difference(stR.hom)
    return Report(f"monomial-level reflection identity, signs {delta8}", ok,
                  details, {"generators": stL.seed.n()})


def search_good_signs_tau(homogeneous=True):
    """Classify sign assignments at the monomial level."""
    return _search(homogeneous, _tau_sides, _same_tau)


def check_te_tau(delta=1) -> Report:
    """Monomial-level tetrahedron identity on the 17-vertex seed."""
    stL, stR = (run_composite(builtin("B(A3)"), _TE_SEQ[side],
                              composite_signs(_TETRAHEDRON[side], (delta,) * 4))
                for side in "LR")
    return Report(f"monomial-level tetrahedron identity, sign {delta:+d}",
                  _same_tau(stL, stR))


def check_te_seed() -> Report:
    """Tropical equality of the two composite tetrahedron sequences."""
    outs = [_TE_SEQ[side].apply_tropical(TropicalSeed(builtin("B(A3)")))
            for side in "LR"]
    ok = outs[0] == outs[1] and outs[0].seed == builtin("B'(A3)")
    return Report("seed-level tetrahedron identity", ok)


def check_re_seed() -> Report:
    """Tropical equality of the two composite reflection sequences."""
    outs = [_RE_SEQ[side].apply_tropical(TropicalSeed(builtin("B(C3)")))
            for side in "LR"]
    ok = outs[0] == outs[1] and outs[0].seed == builtin("B'(C3)")
    return Report("seed-level reflection identity", ok)


# ---------------------------------------------------------------------------
# canonical-transformation level


def _eta_side(pairs, cache={}):
    """{(side, deltas): the canonical map of that side} for every pair;
    the pairs not yet in ``cache`` are folded together and kept there."""
    missing = [pair for pair in pairs if pair not in cache]
    if missing:
        cache.update(_fold_sides(
            missing, lambda name, spaces: canonical_map(name, spaces, SPEC_C3),
            AffineCanonMap.compose))
    return {pair: cache[pair] for pair in pairs}


def check_re_eta(delta8=(1, -1, 1, -1, 1, -1, 1, -1), rules=None) -> Report:
    if rules is None:
        rules = rules_for("eta-3dre")
    etaL, etaR = (eta.subs_params(rules) for eta in _eta_side(
        [("L", tuple(delta8[:4])), ("R", tuple(delta8[4:]))]).values())
    ok = etaL == etaR
    details = {}
    if not ok:
        details["witness"] = etaL.first_difference(etaR)
    return Report(f"canonical-map reflection identity, signs {delta8}", ok,
                  details)


def search_good_signs_eta(homogeneous=True):
    rules = rules_for("eta-3dre")
    return _search(homogeneous,
                   lambda pairs: {pair: eta.subs_params(rules)
                                  for pair, eta in _eta_side(pairs).items()},
                   operator.eq)


def check_te_eta(delta=1) -> Report:
    """Homogeneous tetrahedron identity for the canonical maps (p = 6)."""
    rules = _te_rules()
    ok = True
    for kind in ("R", "Rbar"):
        lhs, rhs = _te_sides(
            lambda spaces: canonical_map(kind + sign_text((delta,)), spaces,
                                         SPEC_A3, rules),
            AffineCanonMap.compose)
        ok = ok and lhs == rhs
    return Report(f"canonical-map tetrahedron identity, sign {delta:+d}", ok)


# ---------------------------------------------------------------------------
# operator (triangular group) level

def _p_sides(pairs, rules):
    """{(side, deltas): the tail product of that side} for every pair, or
    the OrderViolation that the first factor or product to leave the
    group raised on the way."""
    return _fold_sides(pairs,
                       lambda name, spaces: tail(name, spaces, SPEC_C3, rules=rules),
                       bch_mul, OrderViolation)


def _same_P(lhs, rhs):
    return not isinstance(lhs, OrderViolation) and \
        not isinstance(rhs, OrderViolation) and lhs == rhs


def check_re_P(delta8=(1, -1, 1, -1, 1, -1, 1, -1), rules=None) -> Report:
    rules = rules or rules_for("3dre")
    label = f"operator-level reflection identity, signs {delta8}"
    sides = []
    for pair in (("L", tuple(delta8[:4])), ("R", tuple(delta8[4:]))):
        g = _p_sides([pair], rules)[pair]
        if isinstance(g, OrderViolation):
            return Report(label, False, {"outside_group": str(g)})
        sides.append(g)
    ok, wit = group_equal(*sides)
    return Report(label, ok, {"witness": wit} if wit else {})


def search_good_signs_P():
    rules = rules_for("3dre")
    return _search(True, lambda pairs: _p_sides(pairs, rules), _same_P)


# variant -> the operator and the order on A3 that houses its four tails
_TE_P = {"P+": ("R+", ORDER_A3), "Pbar-": ("Rbar-", ORDER_A3),
         "P-": ("R-", ORDER_A3_PRIME), "Pbar+": ("Rbar+", ORDER_A3_PRIME)}


def check_te_P(which: str) -> Report:
    """Tetrahedron identity for the monomial operators, four variants."""
    if which not in _TE_P:
        raise UnknownName(which)
    name, order = _TE_P[which]
    rules = _te_rules()
    lhs, rhs = _te_sides(lambda spaces: tail(name, spaces, SPEC_A3, order, rules),
                         bch_mul)
    ok, wit = group_equal(lhs, rhs)
    return Report(f"operator-level tetrahedron identity, {which}", ok,
                  {"witness": wit} if wit else {})


# ---------------------------------------------------------------------------
# full dilogarithm level


_TORUS_CACHE = {}


def _torus_sides():
    if "sides" not in _TORUS_CACHE:
        _TORUS_CACHE["sides"] = tuple(_tau_side(side, _GOOD) for side in "LR")
    return _TORUS_CACHE["sides"]


def _grading(args):
    """The Stiemke grading of the arguments, scaled so that the lowest
    argument has degree one."""
    g = stiemke_grading(args)
    low = min(sum(gi * a for gi, a in zip(g, v)) for v in args)
    return tuple(Fraction(gi, low) for gi in g)


def check_re_full_torus(cutoff=3) -> Report:
    stL, stR = _torus_sides()
    args = [f[1].alpha for f in stL.dilogs] + [f[1].alpha for f in stR.dilogs]
    g = _grading(args)
    sL = expand_product(stL.dilogs, g, cutoff)
    sR = expand_product(stR.dilogs, g, cutoff)
    ok = sL == sR
    bases = [b for b, _, _ in stL.dilogs]
    const_ok = sL.constant_term() == ONE and sR.constant_term() == ONE
    counters = {"factors_per_side": len(stL.dilogs),
                "base_q": bases.count(1), "base_q2": bases.count(2),
                "terms_lhs": len(sL.terms), "terms_rhs": len(sR.terms),
                "cutoff": cutoff}
    details = {"constant_terms_one": const_ok, "grading": g}
    if not ok:
        details["witness"] = sL.first_difference(sR)
    return Report("full reflection identity, quantum-torus variables",
                  ok and const_ok, details, counters)


_WEYL_CACHE = {}


def _weyl_sides():
    """The 46 dilogarithm factors of each side in canonical variables."""
    if "sides" not in _WEYL_CACHE:
        def factor(name, spaces):
            op = build(name, spaces, SPEC_C3)
            return op.factors, adjoint(op.tail)

        def mul(left, right):
            # the right operator's factors move left past the monomial tails
            facs, ad = left
            raw, t = right
            return facs + [(b, e, ad.apply(m)) for b, e, m in raw], ad.compose(t)

        rules = rules_for("3dre")
        sides = _fold_sides([("L", _GOOD), ("R", _GOOD)], factor, mul)
        _WEYL_CACHE["sides"] = tuple(
            [(b, e, m.subs_params(rules)) for b, e, m in sides[side, _GOOD][0]]
            for side in "LR")
    return _WEYL_CACHE["sides"]


def check_re_full_weyl(cutoff=3) -> Report:
    facsL, facsR = _weyl_sides()
    args = [m.cexp for _, _, m in facsL] + [m.cexp for _, _, m in facsR]
    g = _grading(args)
    sL = expand_weyl_product(facsL, SPEC_C3, g, cutoff)
    sR = expand_weyl_product(facsR, SPEC_C3, g, cutoff)
    ok = sL.equal_on(sR)
    const_ok = sL.constant_is_one() and sR.constant_is_one()
    counters = {"factors_per_side": len(facsL), "terms_lhs": len(sL),
                "terms_rhs": len(sR), "cutoff": cutoff}
    details = {"constant_terms_one": const_ok, "grading": g}
    if not ok:
        details["witness"] = sL.first_difference(sR)
    return Report("full reflection identity, canonical variables",
                  ok and const_ok, details, counters)


def check_re_full(cutoff=3, rep="torus") -> Report:
    if rep == "torus":
        return check_re_full_torus(cutoff)
    if rep == "weyl":
        return check_re_full_weyl(cutoff)
    raise ValueError(rep)


# ---------------------------------------------------------------------------
# well-definedness certificates


def _project(vectors, coords):
    idx = {c: i for i, c in enumerate(coords)}
    out = []
    for v in vectors:
        row = [0] * len(coords)
        for c, val in v.items():
            if val:
                row[idx[c]] = val
        out.append(tuple(row))
    return out


WD_SYSTEMS = ("pnK", "alnK", "pnL", "pnR", "alL", "alR", "FFY", "FFuw")


def wd_vectors(system: str):
    """Exponent vectors of the named summation-index system."""
    if system not in WD_SYSTEMS:
        raise UnknownName(system)
    if system == "pnK":
        torus = QuantumTorus(builtin("B(C2)"))
        coords = (2, 3, 4, 7, 8, 9)
        vecs = []
        for b, e, s, pw in C.K24_TORUS[(1, 1)]:
            m = torus.monomial(s, pw)
            vecs.append({lab: m.alpha[torus.index(lab)] for lab in coords})
        return _project(vecs, coords)
    if system == "alnK":
        coords = [f"u{i}" for i in range(1, 5)] + [f"w{i}" for i in range(1, 5)]
        return _project([cx for _, _, _, cx in C.K24_WEYL[(1, 1)]], coords)
    if system in ("pnL", "pnR", "FFY"):
        seed = builtin("B(C3)")
        coords = [l for l in seed.labels if l not in seed.frozen]
        stL, stR = _torus_sides()
        torus = stL.hom.target
        left, right = ([{lab: f[1].alpha[torus.index(lab)] for lab in coords}
                        for f in st.dilogs] for st in (stL, stR))
    else:
        coords = [f"u{i}" for i in range(1, 10)] + [f"w{i}" for i in range(1, 10)]
        left, right = ([{a: m.cexp[SPEC_C3.index(a)] for a in coords}
                        for _, _, m in facs] for facs in _weyl_sides())
    if system.startswith("FF"):
        return _project(right[::-1] + left, coords)
    return _project(left if system.endswith("L") else right, coords)


def check_wd(system: str) -> Report:
    vecs = wd_vectors(system)
    try:
        g = stiemke_grading(vecs)
        feasible = True
    except Infeasible:
        g, feasible = None, False
    greedy = staged_certificate(vecs)
    plan_ok = None
    if system in C.STAGE_PLANS:
        plan = [(tuple(r - 1 for r in rows), tuple(c - 1 for c in cols))
                for rows, cols in C.STAGE_PLANS[system]]
        if check_stage_plan(vecs, plan):
            plan_ok = True
        else:
            # the reference row indices may permute the coordinates; the
            # plan's column sets reconstruct the assignment
            plan_ok = match_stage_plan(vecs, plan) is not None
    ok = feasible and greedy is not None and plan_ok is not False
    details = {"grading": g, "greedy_stages": greedy,
               "reference_plan_valid": plan_ok}
    return Report(f"finite-fiber certificate for {system}", ok, details,
                  {"indices": len(vecs)})


# ---------------------------------------------------------------------------
# sign-variant independence


def check_K_eps_indep(ktype="rho24", cutoff=5) -> Report:
    """The four sign variants of K agree pairwise where both truncations
    are exact; a failure names the first pair that differs and where."""
    if f"K-{ktype}++" not in OPERATORS:
        raise UnknownName(ktype)
    series = {}
    for eps in product(_SIGNS, repeat=2):
        facs = factors(f"K-{ktype}{sign_text(eps)}")
        args = [m.cexp for _, _, m in facs]
        series[eps] = expand_weyl_product(facs, facs[0][2].spec, _grading(args),
                                          cutoff)
    details = {}
    pairs = list(combinations(series, 2))
    for a, b in pairs:
        sa, sb = series[a], series[b]
        region = lambda cexp: sa.keeps(cexp) and sb.keeps(cexp)
        if not details and not sa.equal_on(sb, region):
            details["witness"] = {"signs": (a, b),
                                  "difference": sa.first_difference(sb, region)}
    return Report(f"sign-variant independence for {ktype}", not details,
                  details, {"pairs": len(pairs), "cutoff": cutoff})


def check_rewriting_lemma(cutoff=6) -> Report:
    """Ad(Psi_q(X) Psi_q(X^-1))(Y) = q Y X on a two-generator torus.

    The two adjoints evaluate to Y (1 + qX) (1 + q^-1 X^-1)^-1; the
    geometric series is expanded past the cutoff and the telescoped
    result is compared with q Y X on all powers X^m with |m| <= cutoff.
    """
    seed = ExchangeSeed((1, 2), {1: {2: Fraction(1)}, 2: {1: Fraction(-1)}},
                        {1: 1, 2: 1})
    torus = QuantumTorus(seed)
    X = torus.gen(1)
    Y = torus.gen(2)
    # add_term merges equal exponents and drops cancelled terms
    series = TorusSeries(torus, (0, 0), 0)
    xinv = X.inverse()
    for n in range(cutoff + 3):
        coeff = ScalarQ({0: (-1) ** n}) * ScalarQ.q_pow(-n)
        p = xinv.pow(n)
        base = torus.element(p.coeff * coeff, p.alpha)
        for el in (Y * base,
                   Y * (torus.element(ScalarQ.q_pow(1), (0, 0)) * X * base)):
            series.add_term(el.alpha, el.coeff)
    terms = series.terms
    want = Y * X
    want = torus.element(want.coeff * ScalarQ.q_pow(1), want.alpha)
    ok = True
    for alpha, cf in terms.items():
        if abs(alpha[0]) > cutoff:
            continue
        if alpha == want.alpha:
            ok = ok and cf == want.coeff
        else:
            ok = ok and cf.is_zero()
    ok = ok and want.alpha in terms
    return Report("q-commuting rewriting identity", ok, {},
                  {"cutoff": cutoff})


# ---------------------------------------------------------------------------
# limits, periodicity


class FGLimit(NamedTuple):
    operator: str       # built under ``system``, then taken along ``ray``
    system: str
    ray: str
    target: str         # the limit target, by the name build_FG takes


FG_LIMITS = {
    "K-rho24--+": FGLimit("K-rho24-+", "k-c2", "lim24", "K-C2:++-"),
    "K-rho24---": FGLimit("K-rho24--", "k-c2", "lim24", "K-C2:-++"),
    "K-rho13--+": FGLimit("K-rho13-+", "k-b2", "lim13", "K-B2:++-"),
    "K-rho13---": FGLimit("K-rho13--", "k-b2", "lim13", "K-B2:-++"),
    "R-plus": FGLimit("R+", "r-fg-plus", "elim", "R+"),
    "R-minus": FGLimit("R-", "r-fg-minus", "elim2", "R-"),
}


def check_fg_limit(name: str) -> Report:
    if name not in FG_LIMITS:
        raise UnknownName(name)
    row = FG_LIMITS[name]
    lim = take_limit(build(row.operator, rules=rules_for(row.system)), ray(row.ray))
    want = build_FG(row.target)
    okf = lim.equal_factors(want)
    okt, wit = group_equal(lim.tail, want.tail)
    return Report(f"degeneration limit {name} -> {row.target}", okf and okt,
                  {"witness": wit} if wit else {},
                  {"survivors": len(lim.factors)})


def check_period(seed, ms, quantum_cutoff=None) -> Report:
    ok = is_sigma_period(seed, ms)
    details = {}
    if ok and quantum_cutoff is not None:
        dilogs = run_composite(seed, ms, tropical_signs(seed, ms)).dilogs
        quantum_ok = True           # an empty product is 1
        if dilogs:
            g = stiemke_grading([arg.alpha for _, arg, _ in dilogs])
            series = expand_product(dilogs, g, quantum_cutoff)
            zero = (0,) * seed.n()
            quantum_ok = (list(series.terms) == [zero]
                          and series.terms[zero] == ONE)
        details["quantum_consistent_to_cutoff"] = quantum_ok
        ok = ok and quantum_ok
    return Report("sigma-periodicity", ok, details)


# ---------------------------------------------------------------------------
# commuting squares and representation agreement

# square -> operator, source and target quivers, their substitution maps,
# and the constraint system
_DIAGRAMS = {
    "Rcom1+": ("R+", "B'(A2)", "B(A2)", C.PHIP_A2, C.PHI_A2, "econ-a"),
    "Rcom1-": ("R-", "B'(A2)", "B(A2)", C.PHIP_A2, C.PHI_A2, "econ-a"),
    "Rcom2+": ("Rbar+", "B(A2)", "B'(A2)", C.PHIBARP_A2, C.PHIBAR_A2, "econ-a"),
    "Rcom2-": ("Rbar-", "B(A2)", "B'(A2)", C.PHIBARP_A2, C.PHIBAR_A2, "econ-a"),
    "Kcom": (_K, "B'(C2)", "B(C2)", C.PHIP_C2, C.PHI_C2, "econ+ccon"),
}


def _diagram_parts(name):
    op, src_name, tgt_name, src_table, tgt_table, _ = _DIAGRAMS[name]
    eta = canonical_map(op)
    src_torus = QuantumTorus(builtin(src_name))
    tgt_torus = QuantumTorus(builtin(tgt_name))
    return (build_subst_hom(src_torus, eta.spec, src_table),
            build_subst_hom(tgt_torus, eta.spec, tgt_table),
            torus_map(op, src_torus, tgt_torus), eta)


def check_diagram(name, drop=None) -> Report:
    """A commuting substitution square, optionally with one constraint
    dropped (the negative test must then fail)."""
    if name not in _DIAGRAMS:
        raise UnknownName(name)
    base = constraints(_DIAGRAMS[name][5])
    if drop is not None:
        base = base.drop(drop)
    prefer = tuple(f"e{i}" for i in range(1, 5)) + ("c3", "c1")
    rules = base.eliminate(prefer)
    h_src, h_tgt, tau, eta = _diagram_parts(name)
    ok, wit = diagram_commutes(h_src, h_tgt, tau, eta, rules)
    label = f"commuting square {name}" + (f" minus constraint {drop}" if drop is not None else "")
    return Report(label, ok, {"witness": wit} if wit else {})


def check_rep_agreement(cutoff=2) -> Report:
    """Torus-variable series pushed through the big substitution map must
    equal the canonical-variable series.  The torus grading is the
    canonical one pulled back along the map, so both truncations keep
    exactly the same exponents."""
    rules = rules_for("3dre")
    stL, _ = _torus_sides()
    facsL, _ = _weyl_sides()
    wargs = [m.cexp for _, _, m in facsL]
    gw = _grading(wargs)
    weyl_series = expand_weyl_product(facsL, SPEC_C3, gw, cutoff)
    phi = build_subst_hom(stL.hom.target, SPEC_C3, C.PHI_C3)
    phi.images = {l: m.subs_params(rules) for l, m in phi.images.items()}
    gt = [sum(g * a for g, a in zip(gw, phi.images[l].cexp))
          for l in phi.source.labels]
    pushed = phi.apply_series(expand_product(stL.dilogs, gt, cutoff), gw, cutoff)
    ok = pushed.equal_on(weyl_series)
    details = {} if ok else {"witness": pushed.first_difference(weyl_series)}
    compared = len(set(pushed.terms) | set(weyl_series.terms))
    return Report("representation agreement for the dilogarithm part", ok,
                  details, {"compared_exponents": compared, "cutoff": cutoff})
