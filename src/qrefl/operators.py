"""Named operators: the one table of catalog data for R, Rbar, K and
their limit targets, the one placement of that data on other indices,
the builders that read it (dilogarithm factor lists with monomial tails,
canonical and torus maps), parameter systems and elimination,
directional limits, and the stacked reduction diagrams that force the
degeneration constraints.
"""

from __future__ import annotations

from functools import reduce
from operator import getitem
from typing import NamedTuple

from . import catalog as C
from .cluster import UnknownName
from .compose import hom_from_table
from .nilgroup import NilGroupElement, ORDER_C3, TriangularOrder, adjoint
from .params import LinSystem, ParamForm
from .qtorus import QuantumTorus
from .quivers import builtin
from .qweyl import (AffineCanonMap, CanonSpec, SPEC_A2, SPEC_B2, SPEC_C2, SPEC_C3,
                    WeylMonomial, build_subst_hom)
from .scalars import ONE


class BadIndices(Exception):
    pass


class DivergentFactor(Exception):
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


class Placement(NamedTuple):
    """Catalog data written on the indices 1..p, placed on ``indices``.

    The one renaming of catalog data: the index suffix of every axis
    (u2 -> u5) and of every parameter symbol (a2 -> a5, th2 -> th5), the
    quadratic keys and the exchanged pair.  ``rules`` are then
    substituted into the parameter forms.
    """

    indices: tuple
    rules: dict = None

    def index(self, i):
        return self.indices[i - 1] if 1 <= i <= len(self.indices) else i

    def symbol(self, sym):
        stem = sym.rstrip("0123456789")
        return stem + str(self.index(int(sym[len(stem):]))) if stem != sym else sym

    def form(self, pexp) -> ParamForm:
        pf = ParamForm({self.symbol(k): v for k, v in pexp.items()})
        return pf.subs(self.rules) if self.rules else pf

    def entry(self, pexp, cexp):
        """A (pexp, cexp) row: its ParamForm and its axis exponents."""
        return self.form(pexp), {self.symbol(a): v for a, v in cexp.items()}

    def monomial(self, spec, pexp, cexp) -> WeylMonomial:
        pf, c = self.entry(pexp, cexp)
        return WeylMonomial(spec, ONE, pf, spec.vec(c))

    def pair(self, pair):
        return tuple(map(self.index, pair))

    def lie(self, kind, data):
        """A ('quad', {(i, j): coeff}) or ('lin', {axis: pexp}) component."""
        if kind == "quad":
            return kind, {self.pair(k): v for k, v in data.items()}
        return kind, {self.symbol(a): self.form(pf) for a, pf in data.items()}


def _place(name, indices, spec, rules=None):
    """The operator's table entry, spec and placement, checked: distinct
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
    return op, spec, Placement(indices, rules)


def _order(op, spec, place):
    """The triangular order housing the tail: the reflection composite's
    order on C3, the table's blocks placed on the operator's indices on
    any other spec."""
    if spec == SPEC_C3:
        return ORDER_C3
    return TriangularOrder([{place.indices[p] for p in block} for block in op.order])


def factors(name, indices=None, spec=None, rules=None):
    """The dilogarithm factors (base, expo, WeylMonomial) of an operator."""
    op, spec, place = _place(name, indices, spec, rules)
    return [(base, expo, place.monomial(spec, pexp, cexp))
            for base, expo, pexp, cexp in _read(op.rows)]


def tail(name, indices=None, spec=None, order=None, rules=None) -> NilGroupElement:
    """The monomial tail of an operator, in ``order`` when one is given."""
    op, spec, place = _place(name, indices, spec, rules)
    pdata, rho = _read(op.tail)
    return NilGroupElement.from_factors(
        spec, order or _order(op, spec, place),
        [[place.lie(*c) for c in components] for components in pdata],
        rho_pair=place.pair(rho))


def canonical_map(name, indices=None, spec=None, rules=None) -> AffineCanonMap:
    """The canonical map eta of an operator."""
    op, spec, place = _place(name, indices, spec, rules)
    return AffineCanonMap.from_table(
        spec, {place.symbol(a): place.entry(*row) for a, row in _read(op.eta).items()})


def torus_map(name, source, target):
    """The torus map tau of an operator between two tori."""
    if name not in OPERATORS:
        raise UnknownName(name)
    return hom_from_table(source, target, _read(OPERATORS[name].tau))


def build(name, indices=None, spec=None, rules=None) -> OperatorExpr:
    """An operator by name: its factors and tail on ``indices`` of ``spec``
    (by default 1, 2, ... of the spec its catalog data are written on)."""
    op, spec, place = _place(name, indices, spec)
    return OperatorExpr(spec, factors(name, place.indices, spec, rules),
                        tail(name, place.indices, spec, rules=rules), op.tail_pos)


def _fg_slots(name):
    """Where a limit target is compared with its operator: a target
    written on B2 lands on the indices (4, 3, 2, 1) of C2, the others stay
    where they are written."""
    if name in OPERATORS and OPERATORS[name].spec == SPEC_B2:
        return (4, 3, 2, 1), SPEC_C2
    return None, None


def build_FG(name: str) -> OperatorExpr:
    """Limit targets by the names the limit reports print, placed where
    they are compared; R+ and R- are the targets R-A2:+ and R-A2:- on
    B_FG(A2)."""
    name = {"R+": "R-A2:+", "R-": "R-A2:-"}.get(name, name)
    return build(name, *_fg_slots(name))


def ray(name: str) -> dict:
    if name not in C.RAYS:
        raise UnknownName(name)
    return dict(C.RAYS[name])


def take_limit(op: OperatorExpr, direction: dict) -> OperatorExpr:
    """Keep rate-zero factors, drop negative ones, reject divergence; the
    tail stays after the kept factors that came before it."""
    out, before = [], 0
    for k, (base, expo, m) in enumerate(op.factors):
        r = m.pexp.rate(direction)
        if r > 0:
            raise DivergentFactor(f"factor rate {r}: {m}")
        if r == 0:
            out.append((base, expo, m))
            before += k < op.tail_pos
    tail = op.tail
    if tail is not None:
        for axis, pf in tail.l.lin.items():
            if pf.rate(direction) != 0:
                raise DivergentFactor(f"tail coefficient diverges at {axis}")
    return OperatorExpr(op.spec, out, tail, before)


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
    The limit target and its substitution maps are placed where
    ``build_FG`` places the target.
    """
    if name not in REDUCTIONS:
        raise UnknownName(name)
    r = REDUCTIONS[name]
    slots = _fg_slots(r.target)
    _, spec, place = _place(r.target, *slots)
    eta_big, eta_small = canonical_map(r.operator), canonical_map(r.target, *slots)
    squares = []
    for big, fg, phi, phi_fg, alpha in zip(
            (f"B({r.big})", f"B'({r.big})"), (f"B_FG({r.fg})", f"B'_FG({r.fg})"),
            r.phi, r.phi_fg, r.alpha):
        hbig = build_subst_hom(QuantumTorus(builtin(big)), spec, phi)
        fgt = QuantumTorus(builtin(fg))
        hom = hom_from_table(builtin(fg), builtin(big), alpha)
        squares.append([(hbig.apply(hom.apply(fgt.gen(i))),
                         place.monomial(spec, *phi_fg[i]))
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

