"""Linear and quadratic forms in the free parameters, and linear systems.

Parameter symbols are short strings ('a1', 'd7', 'th2', ...).  A
ParamForm is an affine-linear combination with exact rational
coefficients, stored as ints where integral; ParamQuad, stored the same
way, adds degree-two monomials (needed for the central part of the
triangular operator group).  LinSystem does exact fraction-free Gaussian elimination on
sparse integer rows (``pivot``) for rank computation and for solving a system
into a substitution map.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def canonical(v):
    """The one stored form of an exact rational: an int stays an int, any
    other value becomes a Fraction, and an integral Fraction its numerator.
    Python gives hash(Fraction(n)) == hash(n) and Fraction(n) == n, so
    equality and hashing are those of the rational."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _form(terms, const):
    """A ParamForm from nonzero values already in canonical form."""
    out = ParamForm.__new__(ParamForm)
    out.terms = terms
    out.const = const
    return out


class ParamForm:
    """Affine-linear form c0 + sum coeff_s * s over parameter symbols; each
    coefficient and the constant are stored in ``canonical`` form."""

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=0):
        t = {}
        for k, v in (terms or {}).items():
            v = canonical(v)
            if v:
                t[k] = v
        self.terms = t
        self.const = canonical(const)

    @classmethod
    def sym(cls, name, coeff=1):
        return cls({name: coeff})

    def is_zero(self):
        return not self.terms and self.const == 0

    def __add__(self, other):
        return _form(_add_terms(self.terms, other.terms),
                     canonical(self.const + other.const))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _form({k: -v for k, v in self.terms.items()}, -self.const)

    def scale(self, c):
        c = canonical(c)
        if c == 0:
            return ParamForm()
        return _form({k: canonical(v * c) for k, v in self.terms.items()},
                     canonical(self.const * c))

    def subs(self, rules: dict) -> "ParamForm":
        """Substitute symbols by ParamForms (symbols absent from rules stay)."""
        out = _form({}, self.const)
        for k, v in self.terms.items():
            if k in rules:
                out = out + rules[k].scale(v)
            else:
                out = out + _form({k: v}, 0)
        return out

    def rate(self, direction: dict) -> Fraction:
        """Pairing with a rate vector symbol -> rational (absent = 0)."""
        return sum((v * Fraction(direction.get(k, 0)) for k, v in self.terms.items()),
                   Fraction(0))

    def coeff(self, name):
        return self.terms.get(name, 0)

    def key(self):
        return (tuple(sorted(self.terms.items())), self.const)

    def __eq__(self, other):
        if not isinstance(other, ParamForm):
            return NotImplemented
        return self.terms == other.terms and self.const == other.const

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for k, v in sorted(self.terms.items()):
            bits.append(f"{'+' if v > 0 else '-'}{abs(v)}*{k}" if abs(v) != 1
                        else f"{'+' if v > 0 else '-'}{k}")
        if self.const:
            bits.append(f"{'+' if self.const > 0 else '-'}{abs(self.const)}")
        s = "".join(bits)
        return s[1:] if s.startswith("+") else s


class ParamQuad:
    """Degree <= 2 polynomial in the parameter symbols (exact rationals);
    each coefficient and the constant are stored in ``canonical`` form."""

    __slots__ = ("quad", "lin", "const")

    def __init__(self, quad=None, lin=None, const=0):
        q = {}
        for k, v in (quad or {}).items():
            v = canonical(v)
            if v:
                k = tuple(sorted(k))
                q[k] = canonical(q.get(k, 0) + v)
        self.quad = {k: v for k, v in q.items() if v}
        l = {}
        for k, v in (lin or {}).items():
            v = canonical(v)
            if v:
                l[k] = v
        self.lin = l
        self.const = canonical(const)

    @classmethod
    def from_linear(cls, f: ParamForm):
        return _quad({}, dict(f.terms), f.const)

    @classmethod
    def product(cls, f: ParamForm, g: ParamForm):
        quad = {}
        for k1, v1 in f.terms.items():
            for k2, v2 in g.terms.items():
                key = tuple(sorted((k1, k2)))
                quad[key] = quad.get(key, 0) + v1 * v2
        lin = {}
        for k, v in f.terms.items():
            w = v * g.const
            if w:
                lin[k] = lin.get(k, 0) + w
        for k, v in g.terms.items():
            w = v * f.const
            if w:
                lin[k] = lin.get(k, 0) + w
        return cls(quad, lin, f.const * g.const)

    def is_zero(self):
        return not self.quad and not self.lin and self.const == 0

    def __add__(self, other):
        return _quad(_add_terms(self.quad, other.quad),
                     _add_terms(self.lin, other.lin),
                     canonical(self.const + other.const))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = canonical(c)
        if c == 0:
            return ParamQuad()
        return _quad({k: canonical(v * c) for k, v in self.quad.items()},
                     {k: canonical(v * c) for k, v in self.lin.items()},
                     canonical(self.const * c))

    def subs(self, rules: dict) -> "ParamQuad":
        out = _quad({}, {}, self.const)
        for (s1, s2), v in self.quad.items():
            f1 = rules.get(s1, ParamForm.sym(s1))
            f2 = rules.get(s2, ParamForm.sym(s2))
            out = out + ParamQuad.product(f1, f2).scale(v)
        lin = ParamForm(self.lin).subs(rules)
        return out + ParamQuad.from_linear(lin)

    def __eq__(self, other):
        if not isinstance(other, ParamQuad):
            return NotImplemented
        return (self.quad == other.quad and self.lin == other.lin
                and self.const == other.const)

    def __repr__(self):
        # values print as Fractions, integral ones included
        quad = {k: Fraction(v) for k, v in self.quad.items()}
        lin = {k: Fraction(v) for k, v in self.lin.items()}
        return f"ParamQuad(quad={quad}, lin={lin}, const={self.const})"


def _quad(quad, lin, const):
    """A ParamQuad from nonzero values already in canonical form."""
    out = ParamQuad.__new__(ParamQuad)
    out.quad = quad
    out.lin = lin
    out.const = const
    return out


def _add_terms(a, b):
    """The coefficient dict a + b of canonical values: a's keys in their
    order, then b's new keys, with the sums that cancel dropped."""
    out = dict(a)
    for k, v in b.items():
        w = out.get(k, 0) + v
        if w:
            out[k] = canonical(w)
        elif k in out:
            del out[k]
    return out


class Inconsistent(Exception):
    pass


class LinSystem:
    """A list of affine-linear constraints (each ParamForm = 0)."""

    def __init__(self, constraints, name=""):
        self.constraints = [c for c in constraints if not c.is_zero()]
        self.name = name

    def symbols(self):
        out = set()
        for c in self.constraints:
            out.update(c.terms)
        return sorted(out)

    def _rows(self, order):
        """Each constraint as a sparse integer row {column: nonzero}: the
        coefficients in ``order``, then the constant in column len(order)."""
        idx = {s: i for i, s in enumerate(order)}
        rows = []
        for c in self.constraints:
            den = lcm(c.const.denominator, *(v.denominator for v in c.terms.values()))
            row = {idx[k]: int(v * den) for k, v in c.terms.items()}
            if c.const:
                row[len(order)] = int(c.const * den)
            rows.append(row)
        return rows

    def rank(self) -> int:
        order = self.symbols()
        rows = self._rows(order)
        return len(_row_reduce(rows, len(order)))

    def extend(self, other: "LinSystem", name="") -> "LinSystem":
        return LinSystem(self.constraints + other.constraints, name)

    def drop(self, index: int) -> "LinSystem":
        rest = [c for i, c in enumerate(self.constraints) if i != index]
        return LinSystem(rest, f"{self.name}[-{index}]")

    def implies(self, form: ParamForm) -> bool:
        """True iff form = 0 on every solution of the system."""
        return LinSystem(self.constraints + [form]).rank() == self.rank()

    def equivalent(self, other: "LinSystem") -> bool:
        r = self.rank()
        if r != other.rank():
            return False
        return LinSystem(self.constraints + other.constraints).rank() == r

    def eliminate(self, prefer=()) -> dict:
        """Solve into a substitution map dependent -> ParamForm of the rest.

        Pivots are chosen scanning ``prefer`` first, then the remaining
        symbols in name order.  Raises Inconsistent on 0 = c != 0.
        """
        order = list(prefer) + [s for s in self.symbols() if s not in prefer]
        rows = self._rows(order)
        n = len(order)
        pivots = _row_reduce(rows, n)
        if any(len(row) == 1 and n in row for row in rows):
            raise Inconsistent(self.name or "linear system")
        rules = {}
        for row, col in zip(rows, pivots):
            p = row[col]
            rules[order[col]] = ParamForm(
                {order[j]: Fraction(-v, p) for j, v in sorted(row.items())
                 if j != col and j < n},
                Fraction(-row.get(n, 0), p))
        return rules


def pivot(rows, r, c):
    """Fraction-free Gauss-Jordan step (Bareiss 1968) on sparse integer
    rows {column: nonzero}: with p = rows[r][c], every other row i with an
    entry in column c becomes p*row_i - row_i[c]*row_r, divided by its gcd
    taken with the sign of p.  So each row stays a positive multiple of its
    rational counterpart row_i - (row_i[c]/p)*row_r, whatever the sign of
    p: every sign and every ratio within a row is kept."""
    pr = rows[r]
    p = pr[c]
    for i, row in enumerate(rows):
        f = row.get(c)
        if f and i != r:
            new = {k: p * v for k, v in row.items()} if p != 1 else dict(row)
            for k, v in pr.items():
                w = new.get(k, 0) - f * v
                if w:
                    new[k] = w
                else:
                    del new[k]
            g = gcd(*new.values()) or 1
            if p < 0:
                g = -g
            rows[i] = {k: v // g for k, v in new.items()} if g != 1 else new


def _row_reduce(rows, ncols):
    """In-place integer reduced echelon form of sparse rows over columns
    0..ncols-1; returns the pivot columns (row k holds the k-th pivot)."""
    pivots = []
    for col in range(ncols):
        k = len(pivots)
        piv = next((r for r in range(k, len(rows)) if col in rows[r]), None)
        if piv is not None:
            rows[k], rows[piv] = rows[piv], rows[k]
            pivot(rows, k, col)
            pivots.append(col)
    return pivots
