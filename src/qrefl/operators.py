"""Named operators: dilogarithm factor lists with monomial tails,
parameter systems and elimination, directional limits, and the stacked
reduction diagrams that force the degeneration constraints.
"""

from __future__ import annotations

from . import catalog as C
from .nilgroup import (NilGroupElement, ORDER_C2_BOT, ORDER_C2_TOP,
                       TriangularOrder, adjoint)
from .params import LinSystem, ParamForm
from .qweyl import (AffineCanonMap, CanonSpec, SPEC_A2, SPEC_B2, SPEC_C2,
                    WeylMonomial, build_subst_hom, relabel_pf, relabel_axis)
from .scalars import ONE


class BadIndices(Exception):
    pass


class DivergentFactor(Exception):
    pass


class UnknownName(Exception):
    pass


# preferred elimination orders: dependents first, free directions last
PREFER = {
    "k-c2": ("a1", "a3", "c1", "c2", "c3", "d1", "d2", "d3", "d4",
             "e1", "e2", "e3", "e4"),
    "k-b2": ("a3", "c1", "c2", "c3", "c4", "b1", "b2", "b3", "b4",
             "e1", "e2", "e3", "e4"),
    "r-fg-plus": ("a1", "a2", "a3", "c1", "c2", "c3", "d1", "d2", "d3",
                  "e1", "e2", "e3"),
    "r-fg-minus": ("a1", "a2", "a3", "c1", "c2", "c3", "d1", "d2", "d3",
                   "e1", "e2", "e3"),
    "3dre": tuple(f"e{i}" for i in range(1, 10)) +
            tuple(f"a{i}" for i in range(1, 10)) + ("c5", "c7", "c8"),
    "eta-3dre": ("e1", "e2", "e4", "e5", "e7", "e8",
                 "c4", "c8", "c7", "a4", "a8", "a7"),
}

_COMPOUND = {
    "3dre": ("full-1", "full-2", "full-3"),
    "re-theorem": ("recon1", "recon2", "conac"),
    "eta-3dre": ("recon1", "ksub", "acond"),
    "k-c2": ("econ", "ccon", "condi"),
    "k-b2": ("econ", "ccon", "con14"),
    "r-fg-plus": ("econ-a", "pare1", "pare1-2"),
    "r-fg-minus": ("econ-a", "pare1-2", "pare1-3"),
}


def constraints(name: str) -> LinSystem:
    """Named parameter system (single or compound)."""
    if name in C.CONSTRAINTS:
        rows = [ParamForm(r) for r in C.CONSTRAINTS[name]]
        return LinSystem(rows, name)
    if name in _COMPOUND:
        rows = []
        for part in _COMPOUND[name]:
            rows.extend(ParamForm(r) for r in C.CONSTRAINTS[part])
        return LinSystem(rows, name)
    raise UnknownName(name)


def rules_for(name: str, prefer=()) -> dict:
    return constraints(name).eliminate(prefer)


class OperatorExpr:
    """Ordered dilogarithm factors with a monomial tail.

    ``factors`` is a list of (base, expo, WeylMonomial); ``tail_pos``
    says how many factors precede the tail (printings differ in where
    the monomial part sits).
    """

    __slots__ = ("spec", "factors", "tail", "tail_pos")

    def __init__(self, spec, factors, tail, tail_pos=None):
        self.spec = spec
        self.factors = list(factors)
        self.tail = tail
        self.tail_pos = len(self.factors) if tail_pos is None else tail_pos

    def subs_params(self, rules) -> "OperatorExpr":
        facs = [(b, e, m.subs_params(rules)) for b, e, m in self.factors]
        tail = self.tail.subs_params(rules) if self.tail else None
        return OperatorExpr(self.spec, facs, tail, self.tail_pos)

    def normalized(self) -> "OperatorExpr":
        """Move the tail to the end by conjugating later factors."""
        if self.tail is None or self.tail_pos >= len(self.factors):
            return self
        ad = adjoint(self.tail)
        facs = list(self.factors[:self.tail_pos])
        for b, e, m in self.factors[self.tail_pos:]:
            facs.append((b, e, ad.apply(m)))
        return OperatorExpr(self.spec, facs, self.tail, len(facs))

    def equal_factors(self, other) -> bool:
        if len(self.factors) != len(other.factors):
            return False
        for (b1, e1, m1), (b2, e2, m2) in zip(self.factors, other.factors):
            if b1 != b2 or e1 != e2 or not (m1 == m2):
                return False
        return True


def _weyl_factors(spec, data, subs_idx=None, rules=None):
    out = []
    for base, expo, pexp, cexp in data:
        m = WeylMonomial(
            spec, ONE, relabel_pf(pexp, subs_idx),
            spec.vec({relabel_axis(a, subs_idx): v for a, v in cexp.items()}))
        if rules:
            m = m.subs_params(rules)
        out.append((base, expo, m))
    return out


def order_for(spec: CanonSpec, indices) -> TriangularOrder:
    """Triangular order housing the catalog tails for these indices."""
    from .nilgroup import ORDER_A3, ORDER_C3
    if spec.p == 9:
        return ORDER_C3
    if spec.p == 4:
        return ORDER_C2_TOP
    if spec.p == 3:
        return TriangularOrder(({indices[0]}, set(indices[1:])))
    if spec.p == 6:
        return ORDER_A3
    raise BadIndices(spec.gamma)


def build_R(variant: str, indices, spec=None, order=None, rules=None) -> OperatorExpr:
    """Three-index solution operators; indices must sit on weight-one slots."""
    i, j, k = indices
    if len({i, j, k}) != 3:
        raise BadIndices(indices)
    spec = spec or SPEC_A2
    for t in indices:
        if spec.gamma[t - 1] != 1:
            raise BadIndices(f"index {t} has weight {spec.gamma[t - 1]}")
    subs = {1: i, 2: j, 3: k}
    if order is None:
        if spec.p == 3:
            up = variant in ("plus", "bar-minus", "final")
            order = TriangularOrder(({i}, {j, k})) if up else \
                TriangularOrder(({k}, {i, j}))
        else:
            order = order_for(spec, indices)
    if variant == "final":
        pre = _weyl_factors(spec, C.R_FINAL_PARTS["pre"], subs, rules)
        post = _weyl_factors(spec, C.R_FINAL_PARTS["post"], subs, rules)
        pdata, rho = C.p_final(i, j, k)
        tail = NilGroupElement.from_factors(spec, order, pdata, rho_pair=rho,
                                            psubs=rules)
        return OperatorExpr(spec, pre + post, tail, tail_pos=2)
    table = {"plus": (C.R_WEYL["+"], C.P_R["+"]),
             "minus": (C.R_WEYL["-"], C.P_R["-"]),
             "bar-plus": (C.RBAR_WEYL["+"], C.P_RBAR["+"]),
             "bar-minus": (C.RBAR_WEYL["-"], C.P_RBAR["-"])}
    if variant not in table:
        raise UnknownName(variant)
    facs_data, (pdata, rho) = table[variant]
    facs = _weyl_factors(spec, facs_data, subs, rules)
    tail = NilGroupElement.from_factors(spec, order, pdata, rho_pair=rho,
                                        subs_idx=subs, psubs=rules)
    return OperatorExpr(spec, facs, tail)


_K24_PAIRS = {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def build_K(ktype: str, eps, indices, spec=None, order=None, rules=None,
            final=False) -> OperatorExpr:
    """Four-index solution operators of the two reflection types."""
    i, j, k, l = indices
    spec = spec or SPEC_C2
    eps = tuple(eps)
    if eps not in _K24_PAIRS:
        raise BadIndices(f"sign pair {eps} is not one of the allowed four")
    subs = {1: i, 2: j, 3: k, 4: l}
    if ktype == "rho24":
        want = (1, 2, 1, 2)
        table, (pdata, rho) = C.K24_WEYL[eps], C.P_K24
        order = order or (ORDER_C2_TOP if spec.p == 4 else order_for(spec, indices))
    elif ktype == "rho13":
        want = (1, 2, 1, 2)
        table, (pdata, rho) = C.K13_WEYL[eps], C.P_K13
        order = order or (ORDER_C2_BOT if spec.p == 4 else order_for(spec, indices))
    else:
        raise UnknownName(ktype)
    got = tuple(spec.gamma[t - 1] for t in indices)
    if got != want:
        raise BadIndices(f"weight pattern {got}, need {want}")
    if final:
        facs = _weyl_factors(spec, C.k_final_factors(i, j, k, l, a_equals_c=True), None,
                             rules)
        pdata, rho = C.pk_final(i, j, k, l)
        tail = NilGroupElement.from_factors(spec, order, pdata, rho_pair=rho,
                                            psubs=rules)
        return OperatorExpr(spec, facs, tail)
    facs = _weyl_factors(spec, table, subs, rules)
    tail = NilGroupElement.from_factors(spec, order, pdata, rho_pair=rho,
                                        subs_idx=subs, psubs=rules)
    return OperatorExpr(spec, facs, tail)


def build_FG(name: str) -> OperatorExpr:
    """Limit-target operators on the small quivers."""
    cat = {
        "K-C2:++-": (SPEC_C2, ORDER_C2_TOP, C.K_FG_C2["++-"]),
        "K-C2:-++": (SPEC_C2, ORDER_C2_TOP, C.K_FG_C2["-++"]),
        "K-B2:++-": (SPEC_B2, ORDER_C2_TOP, C.K_FG_B2["++-"]),
        "K-B2:-++": (SPEC_B2, ORDER_C2_TOP, C.K_FG_B2["-++"]),
        "R+": (SPEC_A2, TriangularOrder(({1}, {2, 3})), C.R_FG["+"]),
        "R-": (SPEC_A2, TriangularOrder(({3}, {1, 2})), C.R_FG["-"]),
    }
    if name not in cat:
        raise UnknownName(name)
    spec, order, (facs_data, (pdata, rho)) = cat[name]
    facs = _weyl_factors(spec, facs_data)
    tail = NilGroupElement.from_factors(spec, order, pdata, rho_pair=rho)
    return OperatorExpr(spec, facs, tail)


def ray(name: str) -> dict:
    if name not in C.RAYS:
        raise UnknownName(name)
    return dict(C.RAYS[name])


def take_limit(op: OperatorExpr, direction: dict) -> OperatorExpr:
    """Keep rate-zero factors, drop negative ones, reject divergence."""
    out = []
    for base, expo, m in op.factors:
        r = m.pexp.rate(direction)
        if r > 0:
            raise DivergentFactor(f"factor rate {r}: {m}")
        if r == 0:
            out.append((base, expo, m))
    tail = op.tail
    if tail is not None:
        for axis, pf in tail.l.lin.items():
            if pf.rate(direction) != 0:
                raise DivergentFactor(f"tail coefficient diverges at {axis}")
    return OperatorExpr(op.spec, out, tail)


# ---------------------------------------------------------------------------
# reduction diagrams


def _collect_pexp_diffs(pairs):
    rows = []
    for left, right in pairs:
        if left.cexp != right.cexp:
            raise AssertionError("canonical parts of diagram differ")
        if not (left.coeff == right.coeff):
            raise AssertionError("scalar parts of diagram differ")
        d = left.pexp - right.pexp
        if not d.is_zero():
            rows.append(d)
    return rows


def reduction_diagram(name: str):
    """Verify a stacked degeneration diagram; return the forced system.

    The returned LinSystem is what commutativity of the upper and middle
    squares forces; the lower square is then checked modulo it (together
    with the ambient sum constraints).  Raises on structural mismatch.
    """
    from .qtorus import QuantumTorus
    from .quivers import builtin
    from .compose import hom_from_table

    if name in ("cd-C2", "cd-B2"):
        big = QuantumTorus(builtin("B(C2)"))
        bigp = QuantumTorus(builtin("B'(C2)"))
        phi = build_subst_hom(big, SPEC_C2, C.PHI_C2)
        phip = build_subst_hom(bigp, SPEC_C2, C.PHIP_C2)
        if name == "cd-C2":
            fg = QuantumTorus(builtin("B_FG(C2)"))
            fgp = QuantumTorus(builtin("B'_FG(C2)"))
            phi_fg = build_subst_hom(fg, SPEC_C2, C.PHI_FG_C2)
            phip_fg = build_subst_hom(fgp, SPEC_C2, C.PHIP_FG_C2)
            alpha = hom_from_table(builtin("B_FG(C2)"), builtin("B(C2)"), C.ALPHA_C2)
            alphap = hom_from_table(builtin("B'_FG(C2)"), builtin("B'(C2)"), C.ALPHA_C2)
            eta_small = AffineCanonMap.from_table(SPEC_C2, C.PIK_C2)
            eta_big = AffineCanonMap.from_table(SPEC_C2, C.ETA_K24)
            upper = [(phi.apply(alpha.apply(fg.gen(i))), phi_fg.images[i])
                     for i in fg.labels]
            lower = [(phip.apply(alphap.apply(fgp.gen(i))), phip_fg.images[i])
                     for i in fgp.labels]
            expect = "condi"
        else:
            fg = QuantumTorus(builtin("B_FG(B2)"))
            fgp = QuantumTorus(builtin("B'_FG(B2)"))
            psi_fg = build_subst_hom(fg, SPEC_B2, C.PSI_FG_B2)
            psip_fg = build_subst_hom(fgp, SPEC_B2, C.PSIP_FG_B2)
            beta = hom_from_table(builtin("B_FG(B2)"), builtin("B(C2)"), C.BETA_B2)
            betap = hom_from_table(builtin("B'_FG(B2)"), builtin("B'(C2)"), C.BETA_B2)
            eta_small = AffineCanonMap.from_table(SPEC_B2, C.PIK_B2)
            eta_big = AffineCanonMap.from_table(SPEC_C2, C.ETA_K13)
            upper = [(phi.apply(beta.apply(fg.gen(i))),
                      iota_b2_to_c2(psi_fg.images[i])) for i in fg.labels]
            lower = [(phip.apply(betap.apply(fgp.gen(i))),
                      iota_b2_to_c2(psip_fg.images[i])) for i in fgp.labels]
            expect = "con14"
        rows = _collect_pexp_diffs(upper)
        rows += _middle_square(eta_big, eta_small, name)
        forced = LinSystem(rows, name)
        base = constraints("econ").extend(constraints("ccon"))
        full = forced.extend(base)
        for left, right in lower:
            if not full.implies(left.pexp - right.pexp):
                raise AssertionError("lower square not implied")
        return forced, constraints(expect)

    if name in ("cd3-left", "cd3-right"):
        big = QuantumTorus(builtin("B(A2)"))
        bigp = QuantumTorus(builtin("B'(A2)"))
        phi = build_subst_hom(big, SPEC_A2, C.PHI_A2)
        phip = build_subst_hom(bigp, SPEC_A2, C.PHIP_A2)
        fg = QuantumTorus(builtin("B_FG(A2)"))
        fgp = QuantumTorus(builtin("B'_FG(A2)"))
        phi_fg = build_subst_hom(fg, SPEC_A2, C.PHI_FG_A2)
        phip_fg = build_subst_hom(fgp, SPEC_A2, C.PHIP_FG_A2)
        alpha = hom_from_table(builtin("B_FG(A2)"), builtin("B(A2)"), C.ALPHA_A2)
        alphap = hom_from_table(builtin("B'_FG(A2)"), builtin("B'(A2)"), C.ALPHAP_A2)
        if name == "cd3-left":
            eta_big = AffineCanonMap.from_table(SPEC_A2, C.ETA_R["+"])
            eta_small = AffineCanonMap.from_table(SPEC_A2, C.PI_PLUS)
            expect = ("pare1", "pare1-2")
        else:
            eta_big = AffineCanonMap.from_table(SPEC_A2, C.ETA_R["-"])
            eta_small = AffineCanonMap.from_table(SPEC_A2, C.PI_MINUS)
            expect = ("pare1-3", "pare1-2")
        upper = [(phi.apply(alpha.apply(fg.gen(i))), phi_fg.images[i])
                 for i in fg.labels]
        lower = [(phip.apply(alphap.apply(fgp.gen(i))), phip_fg.images[i])
                 for i in fgp.labels]
        rows = _collect_pexp_diffs(upper)
        rows += _middle_square(eta_big, eta_small, name)
        forced = LinSystem(rows, name)
        full = forced.extend(constraints("econ-a"))
        for left, right in lower:
            if not full.implies(left.pexp - right.pexp):
                raise AssertionError("lower square not implied")
        want = LinSystem(sum((list(constraints(e).constraints) for e in expect),
                             []), "+".join(expect))
        return forced, want

    raise UnknownName(name)


def _middle_square(eta_big: AffineCanonMap, eta_small: AffineCanonMap, ctx):
    if ctx == "cd-B2":
        eta_small = _conjugate_by_iota(eta_small)
    if eta_big.lin != eta_small.lin:
        raise AssertionError("linear parts of the middle square differ")
    rows = []
    for s1, s2 in zip(eta_big.shift, eta_small.shift):
        d = s1 - s2
        if not d.is_zero():
            rows.append(d)
    return rows


def iota_b2_to_c2(m: WeylMonomial) -> WeylMonomial:
    flip = {1: 4, 2: 3, 3: 2, 4: 1}
    cexp = {}
    for axis in "uw":
        for idx in range(1, 5):
            v = m.cexp[SPEC_B2.index(f"{axis}{idx}")]
            if v:
                cexp[f"{axis}{flip[idx]}"] = v
    pexp = ParamForm({("th" + str(flip[int(k[2:])]) if k.startswith("th") else k): v
                      for k, v in m.pexp.terms.items()}, m.pexp.const)
    return WeylMonomial(SPEC_C2, m.coeff, pexp, SPEC_C2.vec(cexp))


def iota_operator(op: OperatorExpr) -> OperatorExpr:
    """Transport an operator over the dual small spec through the index
    reversal u_i -> u_{5-i}, w_i -> w_{5-i}, th_i -> th_{5-i}."""
    from .nilgroup import NilLieElement
    flip = {1: 4, 2: 3, 3: 2, 4: 1}
    facs = [(b, e, iota_b2_to_c2(m)) for b, e, m in op.factors]
    tail = op.tail
    if tail is not None:
        theta = {f"th{i}": ParamForm({f"th{flip[i]}": 1}) for i in range(1, 5)}
        order = ORDER_C2_BOT
        quad = {(flip[i], flip[j]): v for (i, j), v in tail.q.quad.items()}
        lin = {f"{a[0]}{flip[int(a[1:])]}": pf.subs(theta)
               for a, pf in tail.l.lin.items()}
        from .cluster import Perm
        sigma = Perm({flip[k]: flip[v] for k, v in tail.sigma.map.items()})
        tail = NilGroupElement(SPEC_C2, order, sigma,
                               NilLieElement(SPEC_C2, order, quad),
                               NilLieElement(SPEC_C2, order, {}, lin),
                               tail.c.subs(theta))
    return OperatorExpr(SPEC_C2, facs, tail, op.tail_pos)


def _conjugate_by_iota(eta: AffineCanonMap) -> AffineCanonMap:
    """iota o eta o iota^{-1}: transport a B2-side map to the C2 spec."""
    flip = {1: 4, 2: 3, 3: 2, 4: 1}

    def conv_axis(idx):
        kind = "u" if idx < 4 else "w"
        i = (idx % 4) + 1
        return SPEC_C2.index(f"{kind}{flip[i]}")

    n = 8
    lin = [[0] * n for _ in range(n)]
    shift = [ParamForm() for _ in range(n)]
    for a in range(n):
        ca = conv_axis(a)
        row = eta.lin[a]
        for b in range(n):
            lin[ca][conv_axis(b)] = row[b]
        pf = eta.shift[a]
        shift[ca] = ParamForm(
            {("th" + str(flip[int(k[2:])]) if k.startswith("th") else k): v
             for k, v in pf.terms.items()}, pf.const)
    return AffineCanonMap(SPEC_C2, lin, shift, check=False)
