"""Triangular nilpotent operator group with permutation part.

Elements are sigma * exp(Q/hbar) * exp(L/hbar) * exp(C/hbar) where Q is a
strictly triangular quadratic u_i w_j part with rational coefficients,
L is linear with ParamForm coefficients, and C is central (degree <= 2
polynomial in the parameters).  The triangular order makes the quadratic
subalgebra nilpotent of class two, so every product is assembled from
finitely many exact commutators; any violation raises OrderViolation
instead of silently extending the type.
"""

from __future__ import annotations

from fractions import Fraction

from .params import ParamForm, ParamQuad
from .qweyl import AffineCanonMap, CanonSpec


class OrderViolation(Exception):
    pass


class TriangularOrder:
    """Levels of a strict partial order; u_i w_j allowed iff lvl(i) > lvl(j)."""

    __slots__ = ("levels", "_rank")

    def __init__(self, levels):
        self.levels = tuple(frozenset(l) for l in levels)
        self._rank = {}
        for r, lvl in enumerate(self.levels):
            for x in lvl:
                self._rank[x] = r

    def allows(self, i, j) -> bool:
        return self._rank[i] > self._rank[j]


ORDER_A3 = TriangularOrder(({1}, {2, 4}, {3, 5, 6}))
ORDER_A3_PRIME = TriangularOrder(({6}, {4, 5}, {1, 2, 3}))
ORDER_C3 = TriangularOrder(({1}, {2, 4}, {3, 5, 6, 7, 8, 9}))


class NilLieElement:
    """Q + L + C as coefficients of 1/hbar."""

    __slots__ = ("spec", "order", "quad", "lin", "central")

    def __init__(self, spec: CanonSpec, order: TriangularOrder,
                 quad=None, lin=None, central=None):
        self.spec = spec
        self.order = order
        q = {}
        for (i, j), v in (quad or {}).items():
            v = Fraction(v)
            if v:
                if not order.allows(i, j):
                    raise OrderViolation(f"u{i} w{j} outside the order")
                q[(i, j)] = v
        self.quad = q
        l = {}
        for axis, pf in (lin or {}).items():
            pf = pf if isinstance(pf, ParamForm) else ParamForm(pf)
            if not pf.is_zero():
                l[axis] = pf
        self.lin = l
        self.central = central or ParamQuad()

    def is_zero(self):
        return not self.quad and not self.lin and self.central.is_zero()

    def __add__(self, other):
        quad = dict(self.quad)
        for k, v in other.quad.items():
            quad[k] = quad.get(k, Fraction(0)) + v
        lin = dict(self.lin)
        for k, v in other.lin.items():
            lin[k] = lin.get(k, ParamForm()) + v
        return NilLieElement(self.spec, self.order, quad, lin,
                             self.central + other.central)

    def scale(self, c):
        c = Fraction(c)
        return NilLieElement(self.spec, self.order,
                             {k: v * c for k, v in self.quad.items()},
                             {k: v.scale(c) for k, v in self.lin.items()},
                             self.central.scale(c))

    def relabel(self, perm):
        quad = {(perm(i), perm(j)): v for (i, j), v in self.quad.items()}
        lin = {f"{a[0]}{perm(int(a[1:]))}": v for a, v in self.lin.items()}
        return NilLieElement(self.spec, self.order, quad, lin, self.central)

    def subs_params(self, rules):
        return NilLieElement(self.spec, self.order, dict(self.quad),
                             {k: v.subs(rules) for k, v in self.lin.items()},
                             self.central.subs(rules))

    def lin_at(self, axis) -> ParamForm:
        return self.lin.get(axis, ParamForm())

    def __eq__(self, other):
        return (isinstance(other, NilLieElement) and self.quad == other.quad
                and self.lin == other.lin and self.central == other.central)

    def __repr__(self):
        return (f"NilLie(quad={self.quad}, "
                f"lin={{{', '.join(f'{a}: {pf}' for a, pf in sorted(self.lin.items()))}}}, "
                f"central={self.central})")


def bracket(x: NilLieElement, y: NilLieElement) -> NilLieElement:
    """[x, y] for elements X/hbar, rescaled back to the 1/hbar grading."""
    if x.spec != y.spec:
        raise OrderViolation("different canonical specs")
    g = x.spec.gamma
    quad = {}
    for (i, j), v1 in x.quad.items():
        for (k, l), v2 in y.quad.items():
            if j == k:
                key = (i, l)
                if i != l:
                    if not x.order.allows(i, l):
                        raise OrderViolation(f"bracket leaves order at u{i} w{l}")
                    quad[key] = quad.get(key, Fraction(0)) - g[j - 1] * v1 * v2
            if i == l:
                key = (k, j)
                if k != j:
                    if not x.order.allows(k, j):
                        raise OrderViolation(f"bracket leaves order at u{k} w{j}")
                    quad[key] = quad.get(key, Fraction(0)) + g[i - 1] * v1 * v2
    lin = {}

    def add_lin(axis, pf):
        if not pf.is_zero():
            lin[axis] = lin.get(axis, ParamForm()) + pf

    for (i, j), v in x.quad.items():
        a = y.lin_at(f"u{j}")
        add_lin(f"u{i}", a.scale(-g[j - 1] * v))
        b = y.lin_at(f"w{i}")
        add_lin(f"w{j}", b.scale(g[i - 1] * v))
    for (i, j), v in y.quad.items():
        a = x.lin_at(f"u{j}")
        add_lin(f"u{i}", a.scale(g[j - 1] * v))
        b = x.lin_at(f"w{i}")
        add_lin(f"w{j}", b.scale(-g[i - 1] * v))
    central = ParamQuad()
    for i in range(1, x.spec.p + 1):
        ax, bx = x.lin_at(f"u{i}"), x.lin_at(f"w{i}")
        ay, by = y.lin_at(f"u{i}"), y.lin_at(f"w{i}")
        if (not ax.is_zero() and not by.is_zero()):
            central = central + ParamQuad.product(ax, by).scale(g[i - 1])
        if (not bx.is_zero() and not ay.is_zero()):
            central = central - ParamQuad.product(ay, bx).scale(g[i - 1])
    # quad-quad brackets with i == l and k == j simultaneously would give
    # central q-power terms; the triangular order excludes them (i > j,
    # k > l with j == k and l == i is impossible), so nothing is lost.
    return NilLieElement(x.spec, x.order, quad, lin, central)


class NilGroupElement:
    """sigma * exp(Q/hbar) * exp(L/hbar) * exp(C/hbar), canonical form."""

    __slots__ = ("spec", "order", "sigma", "q", "l", "c")

    def __init__(self, spec, order, sigma, q: NilLieElement, l: NilLieElement,
                 c: ParamQuad):
        self.spec = spec
        self.order = order
        self.sigma = sigma
        self.q = q
        self.l = l
        self.c = c

    @classmethod
    def identity(cls, spec, order):
        from .cluster import Perm
        z = NilLieElement(spec, order)
        return cls(spec, order, Perm(), z, z, ParamQuad())

    @classmethod
    def from_lie(cls, x: NilLieElement):
        """exp(X/hbar) for mixed X = Q + L + C, split into canonical form.

        Left Zassenhaus expansion exp(Q+L) = exp(Q) exp(L) exp(C2)
        exp(C3) exp(C4) with C2 = -[Q,L]/2, C3 = [L,[Q,L]]/3 +
        [Q,[Q,L]]/6, C4 = -[L,[Q,[Q,L]]]/8; all higher terms vanish in
        class two (asserted).  The linear exponentials are then folded
        left-to-right, accumulating the central Heisenberg cocycles.
        """
        from .cluster import Perm
        spec, order = x.spec, x.order
        q = NilLieElement(spec, order, dict(x.quad))
        b = NilLieElement(spec, order, {}, dict(x.lin))
        ab = bracket(q, b)
        aab = bracket(q, ab)
        if not bracket(q, aab).is_zero():
            raise OrderViolation("exp splitting does not terminate")
        c2 = ab.scale(Fraction(-1, 2))
        c3l = aab.scale(Fraction(1, 6))
        cen = x.central + bracket(b, ab).central.scale(Fraction(1, 3)) \
            + bracket(b, aab).central.scale(Fraction(-1, 8))
        l_acc = b
        for tail in (c2, c3l):
            if tail.is_zero():
                continue
            cen = cen + bracket(l_acc, tail).central.scale(Fraction(1, 2))
            l_acc = l_acc + tail
        lin_only = NilLieElement(spec, order, {}, dict(l_acc.lin))
        cen = cen + l_acc.central
        return cls(spec, order, Perm(), q, lin_only, cen)

    @classmethod
    def from_factors(cls, spec, order, factors, rho_pair=None):
        """Build from catalog factor data (sequence of exponential factors).

        Each factor is ('quad', {(i,j): coeff}) or ('lin', {axis: pexp}).
        ``rho_pair`` appends the exchange of a canonical pair.
        """
        from .cluster import Perm

        out = cls.identity(spec, order)
        for components in factors:
            x = NilLieElement(spec, order)
            for kind, data in components:
                x = x + (NilLieElement(spec, order, data) if kind == "quad"
                         else NilLieElement(spec, order, {}, data))
            out = bch_mul(out, cls.from_lie(x))
        if rho_pair:
            a, b = rho_pair
            out = bch_mul(out, cls(spec, order, Perm({a: b, b: a}),
                                   NilLieElement(spec, order),
                                   NilLieElement(spec, order), ParamQuad()))
        return out

    def subs_params(self, rules):
        return NilGroupElement(self.spec, self.order, self.sigma,
                               self.q.subs_params(rules),
                               self.l.subs_params(rules),
                               self.c.subs(rules))

    def inverse(self) -> "NilGroupElement":
        from .cluster import Perm
        z = NilLieElement(self.spec, self.order)
        inv = NilGroupElement(self.spec, self.order, Perm(), z, z,
                              self.c.scale(-1))
        inv = bch_mul(inv, NilGroupElement.from_lie(self.l.scale(-1)))
        inv = bch_mul(inv, NilGroupElement.from_lie(self.q.scale(-1)))
        inv = bch_mul(inv, NilGroupElement(self.spec, self.order,
                                           self.sigma.inv(), z, z, ParamQuad()))
        return inv

    def __eq__(self, other):
        return (isinstance(other, NilGroupElement)
                and self.sigma == other.sigma and self.q == other.q
                and self.l == other.l and self.c == other.c)

    def discrepancy(self, other):
        if self.sigma != other.sigma:
            return ("sigma", self.sigma, other.sigma)
        if self.q != other.q:
            return ("quad", self.q.quad, other.q.quad)
        if self.l != other.l:
            diff = {a: (self.l.lin_at(a), other.l.lin_at(a))
                    for a in set(self.l.lin) | set(other.l.lin)
                    if self.l.lin_at(a) != other.l.lin_at(a)}
            return ("linear", diff, None)
        if self.c != other.c:
            return ("central", self.c, other.c)
        return None

    def __repr__(self):
        return (f"NilGroup(sigma={self.sigma}, quad={self.q.quad}, "
                f"lin={self.l.lin}, central={self.c})")


def _ad_exp(q: NilLieElement, x: NilLieElement, sign=1) -> NilLieElement:
    """exp(sign * ad_Q)(x), exact by nilpotency."""
    out = x
    term = x
    k = 0
    fact = Fraction(1)
    while True:
        k += 1
        fact = fact * k
        term = bracket(q, term).scale(sign)
        if term.is_zero():
            break
        out = out + term.scale(Fraction(1) / fact)
        if k > 2 * q.spec.p:
            raise OrderViolation("adjoint series failed to terminate")
    return out


def bch_mul(g1: NilGroupElement, g2: NilGroupElement) -> NilGroupElement:
    """Exact product in the canonical form sigma exp(Q) exp(L) exp(C)."""
    spec, order = g1.spec, g1.order
    if spec != g2.spec:
        raise OrderViolation("different canonical specs")
    sigma = g1.sigma * g2.sigma
    inv2 = g2.sigma.inv()
    q1 = g1.q.relabel(inv2)
    l1 = g1.l.relabel(inv2)
    # quadratic parts: class-two product
    qq = bracket(q1, g2.q)
    if not (bracket(q1, qq).is_zero() and bracket(g2.q, qq).is_zero()):
        raise OrderViolation("quadratic part not class two")
    q = q1 + g2.q + qq.scale(Fraction(1, 2))
    # move exp(l1) through exp(q2): exp(l1) exp(q2) = exp(q2) exp(e^{-ad q2} l1)
    l1p = _ad_exp(g2.q, l1, sign=-1)
    lin1 = NilLieElement(spec, order, {}, dict(l1p.lin))
    # Heisenberg cocycle between the two linear tails
    coc = bracket(lin1, g2.l).central.scale(Fraction(1, 2))
    l = lin1 + g2.l
    lin = NilLieElement(spec, order, {}, dict(l.lin))
    c = g1.c + g2.c + l1p.central + l.central + coc
    return NilGroupElement(spec, order, sigma, q, lin, c)


def adjoint(g: NilGroupElement) -> AffineCanonMap:
    """The affine action Ad(g) on linear forms in the canonical variables."""
    spec, order = g.spec, g.order
    p = spec.p
    n = 2 * p
    axes = spec.axes()
    gam = spec.gamma
    one = ParamForm({}, 1)
    rows = []
    shifts = []
    for ax in axes:
        kind, i = ax[0], int(ax[1:])
        # translation from Ad(exp(L/hbar)): x_a -> x_a + [L, x_a]/hbar
        if kind == "u":
            tr = g.l.lin_at(f"w{i}").scale(-gam[i - 1])
        else:
            tr = g.l.lin_at(f"u{i}").scale(gam[i - 1])
        base = NilLieElement(spec, order, {}, {ax: one})
        y = _ad_exp(g.q, base, sign=1)
        if not y.central.is_zero():
            raise OrderViolation("adjoint produced a central term")
        row = [0] * n
        for ax2, pf in y.lin.items():
            if pf.terms:
                raise OrderViolation("adjoint linear part not rational")
            coeff = pf.const
            if coeff.denominator != 1:
                raise OrderViolation("adjoint linear part not integral")
            k2, i2 = ax2[0], int(ax2[1:])
            row[spec.index(f"{k2}{g.sigma(i2)}")] += int(coeff)
        rows.append(row)
        shifts.append(tr)
    return AffineCanonMap(spec, rows, shifts, check=False)


def group_equal(g, h):
    """Equality of canonical forms, with a discrepancy when they differ."""
    if g == h:
        return True, None
    return False, g.discrepancy(h)
