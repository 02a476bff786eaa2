"""Verification tasks: the composite identities at all four levels,
sign-sequence searches, well-definedness certificates, sign-variant
independence, degeneration limits, and periodicity.  Every check returns
a Report; reports are deterministic for fixed inputs.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

from . import catalog as C
from . import compositions as FX
from .cluster import (ExchangeSeed, Perm, TropicalSeed, is_sigma_period,
                      mutate_tropical)
from .compose import (CompositeState, FactorSpec, hom_from_table,
                      run_composite)
from .nilgroup import (NilGroupElement, ORDER_A3, ORDER_A3_PRIME, ORDER_C3,
                       OrderViolation, adjoint, bch_mul, group_equal)
from .operators import (PREFER, UnknownName, _weyl_factors, build_FG, build_K,
                        build_R, constraints, iota_operator, ray, rules_for,
                        take_limit)
from .params import LinSystem, ParamForm
from .qtorus import (Infeasible, QuantumTorus, TorusSeries, check_stage_plan,
                     expand_product, match_stage_plan, staged_certificate,
                     stiemke_grading)
from .quivers import builtin
from .qweyl import (AffineCanonMap, SPEC_A2, SPEC_A3, SPEC_C2, SPEC_C3,
                    build_subst_hom, diagram_commutes, expand_weyl_product)
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
# the spaces of the four tetrahedron factors of the left side, in product
# order; the right side takes them in reverse
_TE_ORDER = ((4, 5, 6), (2, 3, 6), (1, 3, 5), (1, 2, 4))
_SIGNS = (1, -1)
_GOOD = (1, -1, 1, -1)      # the good R/Rbar signs of each reflection side


def _specs(rows):
    return [FactorSpec(*row) for row in rows]


def _fold_side(side, deltas, factor, mul):
    """Left fold of one reflection side with the level's product ``mul``.

    Row by row, ``factor(kind, spaces, delta)`` gives the factor value:
    the R/Rbar rows take their signs from ``deltas`` in order, the K rows
    take None.  Each factor is built just before it is multiplied in.
    """
    signs = iter(deltas)
    return reduce(mul, (factor(kind, spaces, None if kind == "K" else next(signs))
                        for kind, spaces, _, _ in _REFLECTION[side]))


def _te_sides(factor, mul):
    """Both sides of the tetrahedron identity from ``factor(spaces)``."""
    return [reduce(mul, map(factor, order))
            for order in (_TE_ORDER, _TE_ORDER[::-1])]


def _te_rules():
    """The sum-zero system a_i + b_i + c_i + d_i + e_i = 0, solved for e_i."""
    return LinSystem([ParamForm({f"a{i}": 1, f"b{i}": 1, f"c{i}": 1,
                                 f"d{i}": 1, f"e{i}": 1}) for i in range(1, 7)],
                     "sum-zero").eliminate(tuple(f"e{i}" for i in range(1, 7)))


def _homogeneous(check):
    """The sign pairs (d1, d2) whose homogeneous assignment passes."""
    return [d for d in product(_SIGNS, repeat=2) if check(d * 4).status]


def _pair_search(side_value, same):
    """All 2^8 assignments whose two sides ``same`` accepts, sorted."""
    sides = {t: (side_value("L", t), side_value("R", t))
             for t in product(_SIGNS, repeat=4)}
    return sorted(tl + tr for tl, (left, _) in sides.items()
                  for tr, (_, right) in sides.items() if same(left, right))


# ---------------------------------------------------------------------------
# monomial level


def _tau_side(side, deltas):
    return run_composite(builtin("B(C3)"), _specs(_REFLECTION[side]),
                         deltas=deltas)


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
    if homogeneous:
        return _homogeneous(check_re_tau)
    return _pair_search(_tau_side, _same_tau)


def check_te_tau(delta=1) -> Report:
    """Monomial-level tetrahedron identity on the 17-vertex seed."""
    stL, stR = (run_composite(builtin("B(A3)"), _specs(_TETRAHEDRON[side]),
                              deltas=(delta,) * 4,
                              final_sigma=Perm.transpositions(_TE_FINAL[side]))
                for side in "LR")
    return Report(f"monomial-level tetrahedron identity, sign {delta:+d}",
                  _same_tau(stL, stR))


def _tropical_side(seed, rows, final=()):
    cur = TropicalSeed(seed)
    for spec in _specs(rows):
        cur = spec.as_sequence().apply_tropical(cur)
    return cur.permuted(Perm.transpositions(final)) if final else cur


def check_te_seed() -> Report:
    """Tropical equality of the two composite tetrahedron sequences."""
    outs = [_tropical_side(builtin("B(A3)"), _TETRAHEDRON[side], _TE_FINAL[side])
            for side in "LR"]
    ok = outs[0] == outs[1] and outs[0].seed == builtin("B'(A3)")
    return Report("seed-level tetrahedron identity", ok)


def check_re_seed() -> Report:
    """Tropical equality of the two composite reflection sequences."""
    outs = [_tropical_side(builtin("B(C3)"), _REFLECTION[side]) for side in "LR"]
    ok = outs[0] == outs[1] and outs[0].seed == builtin("B'(C3)")
    return Report("seed-level reflection identity", ok)


# ---------------------------------------------------------------------------
# canonical-transformation level


def _signed(r_table, rbar_table):
    """{(kind, delta): entry} for the R/Rbar tables keyed by "+"/"-"."""
    return {(kind, d): table["+" if d > 0 else "-"]
            for kind, table in (("R", r_table), ("Rbar", rbar_table))
            for d in _SIGNS}


_ETA_TABLES = _signed(C.ETA_R, C.ETA_RBAR)


def eta_factor(spec, kind, spaces, delta=None):
    table = C.ETA_K24 if kind == "K" else _ETA_TABLES[(kind, delta)]
    return AffineCanonMap.from_table(spec, table,
                                     subs_idx=dict(zip((1, 2, 3, 4), spaces)))


def _eta_side(side, deltas, cache={}):
    key = (side, deltas)
    if key not in cache:
        cache[key] = _fold_side(
            side, deltas,
            lambda kind, spaces, d: eta_factor(SPEC_C3, kind, spaces, d),
            AffineCanonMap.compose)
    return cache[key]


def _eta_rules():
    return rules_for("eta-3dre",
                     ("e1", "e2", "e4", "e5", "e7", "e8",
                      "c4", "c8", "c7", "a4", "a8", "a7"))


def check_re_eta(delta8=(1, -1, 1, -1, 1, -1, 1, -1), rules=None) -> Report:
    if rules is None:
        rules = _eta_rules()
    etaL = _eta_side("L", tuple(delta8[:4])).subs_params(rules)
    etaR = _eta_side("R", tuple(delta8[4:])).subs_params(rules)
    ok = etaL == etaR
    details = {}
    if not ok:
        details["witness"] = etaL.first_difference(etaR)
    return Report(f"canonical-map reflection identity, signs {delta8}", ok,
                  details)


def search_good_signs_eta(homogeneous=True):
    rules = _eta_rules()
    if homogeneous:
        return _homogeneous(lambda t: check_re_eta(t, rules))
    return _pair_search(lambda side, t: _eta_side(side, t).subs_params(rules),
                        operator.eq)


def check_te_eta(delta=1) -> Report:
    """Homogeneous tetrahedron identity for the canonical maps (p = 6)."""
    rules = _te_rules()
    ok = True
    for kind in ("R", "Rbar"):
        lhs, rhs = _te_sides(
            lambda spaces: AffineCanonMap.from_table(
                SPEC_A3, _ETA_TABLES[(kind, delta)],
                subs_idx=dict(zip((1, 2, 3), spaces)), psubs=rules),
            AffineCanonMap.compose)
        ok = ok and lhs == rhs
    return Report(f"canonical-map tetrahedron identity, sign {delta:+d}", ok)


# ---------------------------------------------------------------------------
# operator (triangular group) level

_P_TABLES = _signed(C.P_R, C.P_RBAR)


def p_factor(spec, order, kind, spaces, delta=None, rules=None):
    pdata, rho = C.P_K24 if kind == "K" else _P_TABLES[(kind, delta)]
    return NilGroupElement.from_factors(spec, order, pdata, rho_pair=rho,
                                        subs_idx=dict(zip((1, 2, 3, 4), spaces)),
                                        psubs=rules)


def _p_side(side, deltas, rules):
    return _fold_side(
        side, deltas,
        lambda kind, spaces, d: p_factor(SPEC_C3, ORDER_C3, kind, spaces, d, rules),
        bch_mul)


def _re_rules():
    return rules_for("3dre", ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8",
                              "e9", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
                              "a8", "a9", "c5", "c7", "c8"))


def check_re_P(delta8=(1, -1, 1, -1, 1, -1, 1, -1), rules=None) -> Report:
    rules = rules or _re_rules()
    try:
        lhs = _p_side("L", tuple(delta8[:4]), rules)
        rhs = _p_side("R", tuple(delta8[4:]), rules)
    except OrderViolation as exc:
        return Report(f"operator-level reflection identity, signs {delta8}",
                      False, {"outside_group": str(exc)})
    ok, wit = group_equal(lhs, rhs)
    return Report(f"operator-level reflection identity, signs {delta8}", ok,
                  {"witness": wit} if wit else {})


def search_good_signs_P():
    rules = _re_rules()
    return _homogeneous(lambda t: check_re_P(t, rules))


_TE_P = {"P+": (1, ORDER_A3), "Pbar-": (-1, ORDER_A3),
         "P-": (-1, ORDER_A3_PRIME), "Pbar+": (1, ORDER_A3_PRIME)}


def check_te_P(which: str) -> Report:
    """Tetrahedron identity for the monomial operators, four variants."""
    if which not in _TE_P:
        raise UnknownName(which)
    variant, order = _TE_P[which]
    kind = "Rbar" if "bar" in which else "R"
    rules = _te_rules()
    lhs, rhs = _te_sides(
        lambda spaces: p_factor(SPEC_A3, order, kind, spaces, variant, rules),
        bch_mul)
    ok, wit = group_equal(lhs, rhs)
    return Report(f"operator-level tetrahedron identity, {which}", ok,
                  {"witness": wit} if wit else {})


# ---------------------------------------------------------------------------
# full dilogarithm level


_TORUS_CACHE = {}


def _torus_sides():
    if "sides" not in _TORUS_CACHE:
        _TORUS_CACHE["sides"] = tuple(
            run_composite(builtin("B(C3)"), _specs(_REFLECTION[side]),
                          deltas=_GOOD)
            for side in "LR")
    return _TORUS_CACHE["sides"]


def _normalized_grading(g, args):
    low = min(sum(gi * a for gi, a in zip(g, v)) for v in args)
    return tuple(Fraction(gi, low) for gi in g)


def check_re_full_torus(cutoff=3) -> Report:
    stL, stR = _torus_sides()
    args = [f[1].alpha for f in stL.dilogs] + [f[1].alpha for f in stR.dilogs]
    g = _normalized_grading(stiemke_grading(args), args)
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
_WEYL_TABLES = _signed(C.R_WEYL, C.RBAR_WEYL)


def _weyl_sides(rules=None):
    """The 46 dilogarithm factors of each side in canonical variables."""
    if rules is None and "sides" in _WEYL_CACHE:
        return _WEYL_CACHE["sides"]
    cache_default = rules is None
    rules = rules or _re_rules()

    def factor(kind, spaces, d):
        data = C.K24_WEYL[(-1, 1)] if kind == "K" else _WEYL_TABLES[(kind, d)]
        tail = p_factor(SPEC_C3, ORDER_C3, kind, spaces, d)
        return (_weyl_factors(SPEC_C3, data, dict(zip((1, 2, 3, 4), spaces))),
                adjoint(tail))

    def mul(left, right):
        # the right operator's factors move left past the monomial tails
        facs, ad = left
        raw, t = right
        return facs + [(b, e, ad.apply(m)) for b, e, m in raw], ad.compose(t)

    sides = tuple([(b, e, m.subs_params(rules)) for b, e, m in
                   _fold_side(side, _GOOD, factor, mul)[0]]
                  for side in "LR")
    if cache_default:
        _WEYL_CACHE["sides"] = sides
    return sides


def check_re_full_weyl(cutoff=3) -> Report:
    facsL, facsR = _weyl_sides()
    args = [m.cexp for _, _, m in facsL] + [m.cexp for _, _, m in facsR]
    g = _normalized_grading(stiemke_grading(args), args)
    sL = expand_weyl_product(facsL, SPEC_C3, g, cutoff)
    sR = expand_weyl_product(facsR, SPEC_C3, g, cutoff)
    ok = sL.equal_on(sR)
    const_ok = all(len(c) == 1 and next(iter(c.values()))[1] == ONE
                   for c in (sL.constant_coeff(), sR.constant_coeff()))
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
    if ktype not in ("rho24", "rho13"):
        raise UnknownName(ktype)
    table = C.K24_WEYL if ktype == "rho24" else C.K13_WEYL
    series = {}
    for eps in product(_SIGNS, repeat=2):
        facs = _weyl_factors(SPEC_C2, table[eps])
        args = [m.cexp for _, _, m in facs]
        series[eps] = expand_weyl_product(
            facs, SPEC_C2, _normalized_grading(stiemke_grading(args), args), cutoff)
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


FG_LIMITS = {
    "K-rho24--+": ("rho24", (-1, 1), "k-c2", "lim24", "K-C2:++-", False),
    "K-rho24---": ("rho24", (-1, -1), "k-c2", "lim24", "K-C2:-++", False),
    "K-rho13--+": ("rho13", (-1, 1), "k-b2", "lim13", "K-B2:++-", True),
    "K-rho13---": ("rho13", (-1, -1), "k-b2", "lim13", "K-B2:-++", True),
    "R-plus": ("R", "plus", "r-fg-plus", "elim", "R+", False),
    "R-minus": ("R", "minus", "r-fg-minus", "elim2", "R-", False),
}


def check_fg_limit(name: str) -> Report:
    if name not in FG_LIMITS:
        raise UnknownName(name)
    kindsel, variant, sysname, rayname, target, use_iota = FG_LIMITS[name]
    rules = rules_for(sysname, PREFER[sysname])
    if kindsel == "R":
        op = build_R(variant, (1, 2, 3), rules=rules)
    else:
        op = build_K(kindsel, variant, (1, 2, 3, 4), rules=rules)
    lim = take_limit(op, ray(rayname))
    want = build_FG(target)
    if use_iota:
        want = iota_operator(want)
    okf = lim.equal_factors(want)
    okt, wit = group_equal(lim.tail, want.tail)
    return Report(f"degeneration limit {name} -> {target}", okf and okt,
                  {"witness": wit} if wit else {},
                  {"survivors": len(lim.factors)})


def check_period(seed, ms, quantum_cutoff=None) -> Report:
    ok = is_sigma_period(seed, ms)
    details = {}
    if ok and quantum_cutoff:
        st = CompositeState(seed)
        ts = TropicalSeed(seed)
        for k in ms.steps:
            eps = ts.sign(k)
            ts = mutate_tropical(ts, k)
            st.mutate(k, eps)
        st.relabel(ms.sigma)
        args = [f[1].alpha for f in st.dilogs]
        g = stiemke_grading(args)
        series = expand_product(st.dilogs, g, quantum_cutoff)
        zero = (0,) * st.hom.target.n()
        quantum_ok = (list(series.terms) == [zero]
                      and series.terms[zero] == ONE)
        details["quantum_consistent_to_cutoff"] = quantum_ok
        ok = ok and quantum_ok
    return Report("sigma-periodicity", ok, details)


# ---------------------------------------------------------------------------
# commuting squares and representation agreement

_DIAGRAMS = {
    "Rcom1+": ("B'(A2)", "B(A2)", "PHIP_A2", "PHI_A2", ("R", "+"), ("ETA_R", "+"), "econ-a"),
    "Rcom1-": ("B'(A2)", "B(A2)", "PHIP_A2", "PHI_A2", ("R", "-"), ("ETA_R", "-"), "econ-a"),
    "Rcom2+": ("B(A2)", "B'(A2)", "PHIBARP_A2", "PHIBAR_A2", ("Rbar", "+"), ("ETA_RBAR", "+"), "econ-a"),
    "Rcom2-": ("B(A2)", "B'(A2)", "PHIBARP_A2", "PHIBAR_A2", ("Rbar", "-"), ("ETA_RBAR", "-"), "econ-a"),
    "Kcom": ("B'(C2)", "B(C2)", "PHIP_C2", "PHI_C2", ("K", None), ("ETA_K24", None), "econ+ccon"),
}


def _diagram_parts(name):
    src_name, tgt_name, hsrc_name, htgt_name, tau_sel, eta_sel, _ = _DIAGRAMS[name]
    spec = SPEC_C2 if name == "Kcom" else SPEC_A2
    src_seed, tgt_seed = builtin(src_name), builtin(tgt_name)
    src_torus, tgt_torus = QuantumTorus(src_seed), QuantumTorus(tgt_seed)
    h_src = build_subst_hom(src_torus, spec, getattr(C, hsrc_name))
    h_tgt = build_subst_hom(tgt_torus, spec, getattr(C, htgt_name))
    kind, key = tau_sel
    if kind == "K":
        tau = hom_from_table(src_torus, tgt_torus, C.TAU_K24)
        eta = AffineCanonMap.from_table(spec, C.ETA_K24)
    else:
        table = C.TAU_R[key] if kind == "R" else C.TAU_RBAR[key]
        tau = hom_from_table(src_torus, tgt_torus, table)
        eta = AffineCanonMap.from_table(
            spec, C.ETA_R[key] if kind == "R" else C.ETA_RBAR[key])
    return h_src, h_tgt, tau, eta


def check_diagram(name, drop=None) -> Report:
    """A commuting substitution square, optionally with one constraint
    dropped (the negative test must then fail)."""
    if name not in _DIAGRAMS:
        raise UnknownName(name)
    sys_name = _DIAGRAMS[name][6]
    if sys_name == "econ+ccon":
        base = constraints("econ").extend(constraints("ccon"), "econ+ccon")
    else:
        base = constraints(sys_name)
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
    rules = _re_rules()
    stL, _ = _torus_sides()
    facsL, _ = _weyl_sides()
    wargs = [m.cexp for _, _, m in facsL]
    gw = _normalized_grading(stiemke_grading(wargs), wargs)
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
