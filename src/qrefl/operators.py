"""Named operators: the one table of catalog data for R, Rbar, K and
their limit targets, the builders that read it (dilogarithm factor lists
with monomial tails, canonical and torus maps), parameter systems and
elimination, directional limits, and the stacked reduction diagrams that
force the degeneration constraints.
"""

from __future__ import annotations

from functools import reduce
from operator import getitem
from typing import NamedTuple

from . import catalog as C
from .cluster import Perm
from .compose import hom_from_table
from .nilgroup import (NilGroupElement, NilLieElement, ORDER_C3, TriangularOrder,
                       adjoint)
from .params import LinSystem, ParamForm
from .qtorus import QuantumTorus
from .quivers import builtin
from .qweyl import (IOTA, AffineCanonMap, CanonSpec, SPEC_A2, SPEC_B2, SPEC_C2,
                    SPEC_C3, WeylMonomial, build_subst_hom, iota_monomial,
                    iota_params, iota_vec, relabel_axis, relabel_pf)
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
    """Named parameter system: a catalog system, a compound, or several
    catalog systems joined by "+"."""
    parts = _COMPOUND.get(name, name.split("+"))
    if not all(part in C.CONSTRAINTS for part in parts):
        raise UnknownName(name)
    return LinSystem([ParamForm(r) for part in parts for r in C.CONSTRAINTS[part]],
                     name)


def rules_for(name: str, prefer=None) -> dict:
    """Solve a named system, by default in its PREFER elimination order."""
    return constraints(name).eliminate(PREFER.get(name, ()) if prefer is None
                                       else prefer)


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


class Operator(NamedTuple):
    """Catalog data of one operator.

    The data fields are paths into ``catalog``: a table name, then keys.
    They are read each time an operator is built, so a patched catalog
    table shows.  ``order`` gives the blocks of the triangular order,
    lowest first, as positions in the operator's index tuple.
    """

    spec: CanonSpec             # the spec the catalog rows are written on
    order: tuple
    rows: tuple                 # canonical-variable factor rows
    tail: tuple                 # tail factors with their exchanged pair
    eta: tuple = None           # canonical map
    tau: tuple = None           # torus map
    tail_pos: int = None        # factors before the tail, if not all


def sign_text(signs) -> str:
    return "".join("+" if s > 0 else "-" for s in signs)


K_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_UP, _DOWN = ((0,), (1, 2)), ((2,), (0, 1))
_TOP, _BOT = ((0,), (1, 3), (2,)), ((3,), (0, 2), (1,))

# name -> catalog data; a name is the operator's kind followed by its signs
OPERATORS = {
    "R+": Operator(SPEC_A2, _UP, ("R_WEYL", "+"), ("P_R", "+"),
                   ("ETA_R", "+"), ("TAU_R", "+")),
    "R-": Operator(SPEC_A2, _DOWN, ("R_WEYL", "-"), ("P_R", "-"),
                   ("ETA_R", "-"), ("TAU_R", "-")),
    "Rbar+": Operator(SPEC_A2, _DOWN, ("RBAR_WEYL", "+"), ("P_RBAR", "+"),
                      ("ETA_RBAR", "+"), ("TAU_RBAR", "+")),
    "Rbar-": Operator(SPEC_A2, _UP, ("RBAR_WEYL", "-"), ("P_RBAR", "-"),
                      ("ETA_RBAR", "-"), ("TAU_RBAR", "-")),
    "R-final": Operator(SPEC_A2, _UP, ("R_FINAL_WEYL",), ("P_R_FINAL",),
                        tail_pos=2),
    **{"K-rho24" + sign_text(e): Operator(SPEC_C2, _TOP, ("K24_WEYL", e),
                                          ("P_K24",), ("ETA_K24",), ("TAU_K24",))
       for e in K_SIGNS},
    **{"K-rho13" + sign_text(e): Operator(SPEC_C2, _BOT, ("K13_WEYL", e),
                                          ("P_K13",), ("ETA_K13",))
       for e in K_SIGNS},
    "K-final": Operator(SPEC_C2, _TOP, ("K_FINAL_WEYL",), ("P_K_FINAL",)),
    # the Fock-Goncharov limit targets, on B_FG(C2), B_FG(B2) and B_FG(A2)
    **{f"K-{fg}:{s}": Operator(spec, _TOP, (f"K_FG_{fg}", s, 0),
                               (f"K_FG_{fg}", s, 1), (f"PIK_{fg}",))
       for fg, spec in (("C2", SPEC_C2), ("B2", SPEC_B2)) for s in ("++-", "-++")},
    "R-A2:+": Operator(SPEC_A2, _UP, ("R_FG", "+", 0), ("R_FG", "+", 1),
                       ("PI_PLUS",)),
    "R-A2:-": Operator(SPEC_A2, _DOWN, ("R_FG", "-", 0), ("R_FG", "-", 1),
                       ("PI_MINUS",)),
}


def _read(path):
    return reduce(getitem, path[1:], getattr(C, path[0]))


def _place(name, indices, spec):
    """The operator's table entry, spec and indices, checked: distinct
    slots of ``spec`` whose weights repeat those of the catalog data."""
    if name not in OPERATORS:
        raise UnknownName(name)
    op = OPERATORS[name]
    spec = spec or op.spec
    indices = tuple(indices or range(1, op.spec.p + 1))
    if len(indices) != op.spec.p or len(set(indices)) != len(indices) \
            or not all(1 <= t <= spec.p for t in indices):
        raise BadIndices(f"{name} takes {op.spec.p} distinct indices in "
                         f"1..{spec.p}, got {indices}")
    got = tuple(spec.gamma[t - 1] for t in indices)
    if got != op.spec.gamma:
        raise BadIndices(f"{name} needs weights {op.spec.gamma}, got {got}")
    return op, spec, indices


def _order(op, spec, indices):
    """The triangular order housing the tail: the table's blocks on the
    operator's own spec, the reflection composite's order on C3."""
    if spec == op.spec:
        return TriangularOrder([{indices[p] for p in block} for block in op.order])
    if spec == SPEC_C3:
        return ORDER_C3
    raise BadIndices(f"no triangular order for spec {spec.gamma}")


def factors(name, indices=None, spec=None, rules=None):
    """The dilogarithm factors (base, expo, WeylMonomial) of an operator."""
    op, spec, indices = _place(name, indices, spec)
    subs = dict(enumerate(indices, 1))
    out = []
    for base, expo, pexp, cexp in _read(op.rows):
        m = WeylMonomial(
            spec, ONE, relabel_pf(pexp, subs),
            spec.vec({relabel_axis(a, subs): v for a, v in cexp.items()}))
        if rules:
            m = m.subs_params(rules)
        out.append((base, expo, m))
    return out


def tail(name, indices=None, spec=None, order=None, rules=None) -> NilGroupElement:
    """The monomial tail of an operator, in ``order`` when one is given."""
    op, spec, indices = _place(name, indices, spec)
    pdata, rho = _read(op.tail)
    return NilGroupElement.from_factors(
        spec, order or _order(op, spec, indices), pdata, rho_pair=rho,
        subs_idx=dict(enumerate(indices, 1)), psubs=rules)


def canonical_map(name, indices=None, spec=None, rules=None) -> AffineCanonMap:
    """The canonical map eta of an operator."""
    op, spec, indices = _place(name, indices, spec)
    return AffineCanonMap.from_table(spec, _read(op.eta),
                                     subs_idx=dict(enumerate(indices, 1)),
                                     psubs=rules)


def torus_map(name, source, target):
    """The torus map tau of an operator between two tori."""
    if name not in OPERATORS:
        raise UnknownName(name)
    return hom_from_table(source, target, _read(OPERATORS[name].tau))


def build(name, indices=None, spec=None, rules=None) -> OperatorExpr:
    """An operator by name: its factors and tail on ``indices`` of ``spec``
    (by default 1, 2, ... of the spec its catalog data are written on)."""
    op, spec, indices = _place(name, indices, spec)
    return OperatorExpr(spec, factors(name, indices, spec, rules),
                        tail(name, indices, spec, rules=rules), op.tail_pos)


_R_VARIANTS = {"plus": "R+", "minus": "R-", "bar-plus": "Rbar+",
               "bar-minus": "Rbar-", "final": "R-final"}


def build_R(variant: str, indices, spec=None, rules=None) -> OperatorExpr:
    """Three-index solution operators; indices must sit on weight-one slots."""
    if variant not in _R_VARIANTS:
        raise UnknownName(variant)
    return build(_R_VARIANTS[variant], indices, spec, rules)


def build_K(ktype: str, eps, indices, spec=None, rules=None,
            final=False) -> OperatorExpr:
    """Four-index solution operators of the two reflection types."""
    if tuple(eps) not in K_SIGNS:
        raise BadIndices(f"sign pair {eps} is not one of the allowed four")
    return build("K-final" if final else f"K-{ktype}{sign_text(eps)}",
                 indices, spec, rules)


def build_FG(name: str) -> OperatorExpr:
    """Limit targets by the names the limit reports print; R+ and R- are
    the targets R-A2:+ and R-A2:- on B_FG(A2)."""
    return build({"R+": "R-A2:+", "R-": "R-A2:-"}.get(name, name))


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


class Reduction(NamedTuple):
    """A stacked degeneration diagram: the big tori B(X), B'(X) carry the
    operator, the FG tori B_FG(Y), B'_FG(Y) its limit target.  The middle
    square compares the canonical maps of the two."""

    big: str                # X
    fg: str                 # Y
    phi: tuple              # substitution maps of B(X), B'(X)
    phi_fg: tuple           # substitution maps of B_FG(Y), B'_FG(Y)
    alpha: tuple            # monomial maps B_FG(Y) -> B(X), B'_FG(Y) -> B'(X)
    operator: str
    target: str
    ambient: str            # the system the lower square is checked modulo
    expect: str             # the system the squares should force


REDUCTIONS = {
    "cd-C2": Reduction("C2", "C2", (C.PHI_C2, C.PHIP_C2),
                       (C.PHI_FG_C2, C.PHIP_FG_C2), (C.ALPHA_C2, C.ALPHA_C2),
                       "K-rho24-+", "K-C2:++-", "econ+ccon", "condi"),
    "cd-B2": Reduction("C2", "B2", (C.PHI_C2, C.PHIP_C2),
                       (C.PSI_FG_B2, C.PSIP_FG_B2), (C.BETA_B2, C.BETA_B2),
                       "K-rho13-+", "K-B2:++-", "econ+ccon", "con14"),
    "cd3-left": Reduction("A2", "A2", (C.PHI_A2, C.PHIP_A2),
                          (C.PHI_FG_A2, C.PHIP_FG_A2), (C.ALPHA_A2, C.ALPHAP_A2),
                          "R+", "R-A2:+", "econ-a", "pare1+pare1-2"),
    "cd3-right": Reduction("A2", "A2", (C.PHI_A2, C.PHIP_A2),
                           (C.PHI_FG_A2, C.PHIP_FG_A2), (C.ALPHA_A2, C.ALPHAP_A2),
                           "R-", "R-A2:-", "econ-a", "pare1-3+pare1-2"),
}


def reduction_diagram(name: str):
    """Verify a stacked degeneration diagram; return the forced system.

    The returned LinSystem is what commutativity of the upper and middle
    squares forces; the lower square is then checked modulo it (together
    with the ambient sum constraints).  Raises on structural mismatch.
    A limit target on the dual spec B2 is moved to C2 by the index
    reversal.
    """
    if name not in REDUCTIONS:
        raise UnknownName(name)
    r = REDUCTIONS[name]
    eta_big, eta_small = canonical_map(r.operator), canonical_map(r.target)
    spec, fg_spec = eta_big.spec, eta_small.spec
    moved = fg_spec != spec
    if moved:
        eta_small = AffineCanonMap(
            spec, iota_vec([iota_vec(row) for row in eta_small.lin]),
            iota_vec([iota_params(s) for s in eta_small.shift]), check=False)
    squares = []
    for big, fg, phi, phi_fg, alpha in zip(
            (f"B({r.big})", f"B'({r.big})"), (f"B_FG({r.fg})", f"B'_FG({r.fg})"),
            r.phi, r.phi_fg, r.alpha):
        hbig = build_subst_hom(QuantumTorus(builtin(big)), spec, phi)
        fgt = QuantumTorus(builtin(fg))
        hfg = build_subst_hom(fgt, fg_spec, phi_fg)
        hom = hom_from_table(builtin(fg), builtin(big), alpha)
        squares.append([(hbig.apply(hom.apply(fgt.gen(i))),
                         iota_monomial(hfg.images[i], spec) if moved else hfg.images[i])
                        for i in fgt.labels])
    upper, lower = squares
    if eta_big.lin != eta_small.lin:
        raise AssertionError("linear parts of the middle square differ")
    rows = _collect_pexp_diffs(upper)
    rows += [d for d in (s1 - s2 for s1, s2 in zip(eta_big.shift, eta_small.shift))
             if not d.is_zero()]
    forced = LinSystem(rows, name)
    full = forced.extend(constraints(r.ambient))
    for left, right in lower:
        if not full.implies(left.pexp - right.pexp):
            raise AssertionError("lower square not implied")
    return forced, constraints(r.expect)


def iota_operator(op: OperatorExpr) -> OperatorExpr:
    """Transport an operator over the dual small spec through the index
    reversal u_i -> u_{5-i}, w_i -> w_{5-i}, th_i -> th_{5-i}."""
    facs = [(b, e, iota_monomial(m, SPEC_C2)) for b, e, m in op.factors]
    tail = op.tail
    if tail is not None:
        order = TriangularOrder([{IOTA[i] for i in level} for level in tail.order.levels])
        quad = {(IOTA[i], IOTA[j]): v for (i, j), v in tail.q.quad.items()}
        lin = {relabel_axis(a, IOTA): iota_params(pf) for a, pf in tail.l.lin.items()}
        sigma = Perm({IOTA[k]: IOTA[v] for k, v in tail.sigma.map.items()})
        tail = NilGroupElement(SPEC_C2, order, sigma,
                               NilLieElement(SPEC_C2, order, quad),
                               NilLieElement(SPEC_C2, order, {}, lin),
                               iota_params(tail.c))
    return OperatorExpr(SPEC_C2, facs, tail, op.tail_pos)
