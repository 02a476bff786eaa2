"""Linear and quadratic forms in the free parameters, and linear systems.

Parameter symbols are short strings ('a1', 'd7', 'th2', ...).  A
ParamForm is an affine-linear combination with exact rational
coefficients; ParamQuad adds degree-two monomials (needed for the
central part of the triangular operator group).  LinSystem does exact
Gaussian elimination for rank computation and for solving a system into
a substitution map.
"""

from __future__ import annotations

from fractions import Fraction


class ParamForm:
    """Affine-linear form c0 + sum coeff_s * s over parameter symbols."""

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=0):
        t = {}
        for k, v in (terms or {}).items():
            v = Fraction(v)
            if v:
                t[k] = v
        self.terms = t
        self.const = Fraction(const)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def sym(cls, name, coeff=1):
        return cls({name: Fraction(coeff)})

    def is_zero(self):
        return not self.terms and self.const == 0

    def __add__(self, other):
        t = dict(self.terms)
        for k, v in other.terms.items():
            w = t.get(k, Fraction(0)) + v
            if w:
                t[k] = w
            elif k in t:
                del t[k]
        return ParamForm(t, self.const + other.const)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ParamForm({k: -v for k, v in self.terms.items()}, -self.const)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return ParamForm()
        return ParamForm({k: v * c for k, v in self.terms.items()}, self.const * c)

    def subs(self, rules: dict) -> "ParamForm":
        """Substitute symbols by ParamForms (symbols absent from rules stay)."""
        out = ParamForm({}, self.const)
        for k, v in self.terms.items():
            if k in rules:
                out = out + rules[k].scale(v)
            else:
                out = out + ParamForm({k: v})
        return out

    def rate(self, direction: dict) -> Fraction:
        """Pairing with a rate vector symbol -> rational (absent = 0)."""
        return sum((v * Fraction(direction.get(k, 0)) for k, v in self.terms.items()),
                   Fraction(0))

    def coeff(self, name) -> Fraction:
        return self.terms.get(name, Fraction(0))

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
    """Degree <= 2 polynomial in the parameter symbols (exact rationals)."""

    __slots__ = ("quad", "lin", "const")

    def __init__(self, quad=None, lin=None, const=0):
        q = {}
        for k, v in (quad or {}).items():
            v = Fraction(v)
            if v:
                q[tuple(sorted(k))] = q.get(tuple(sorted(k)), Fraction(0)) + v
        self.quad = {k: v for k, v in q.items() if v}
        l = {}
        for k, v in (lin or {}).items():
            v = Fraction(v)
            if v:
                l[k] = v
        self.lin = l
        self.const = Fraction(const)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_linear(cls, f: ParamForm):
        return cls({}, dict(f.terms), f.const)

    @classmethod
    def product(cls, f: ParamForm, g: ParamForm):
        quad = {}
        for k1, v1 in f.terms.items():
            for k2, v2 in g.terms.items():
                key = tuple(sorted((k1, k2)))
                quad[key] = quad.get(key, Fraction(0)) + v1 * v2
        lin = {}
        for k, v in f.terms.items():
            w = v * g.const
            if w:
                lin[k] = lin.get(k, Fraction(0)) + w
        for k, v in g.terms.items():
            w = v * f.const
            if w:
                lin[k] = lin.get(k, Fraction(0)) + w
        return cls(quad, lin, f.const * g.const)

    def is_zero(self):
        return not self.quad and not self.lin and self.const == 0

    def __add__(self, other):
        q = dict(self.quad)
        for k, v in other.quad.items():
            w = q.get(k, Fraction(0)) + v
            if w:
                q[k] = w
            elif k in q:
                del q[k]
        l = dict(self.lin)
        for k, v in other.lin.items():
            w = l.get(k, Fraction(0)) + v
            if w:
                l[k] = w
            elif k in l:
                del l[k]
        return ParamQuad(q, l, self.const + other.const)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return ParamQuad()
        return ParamQuad({k: v * c for k, v in self.quad.items()},
                         {k: v * c for k, v in self.lin.items()},
                         self.const * c)

    def subs(self, rules: dict) -> "ParamQuad":
        out = ParamQuad({}, {}, self.const)
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
        return f"ParamQuad(quad={self.quad}, lin={self.lin}, const={self.const})"


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
        idx = {s: i for i, s in enumerate(order)}
        rows = []
        for c in self.constraints:
            row = [Fraction(0)] * len(order)
            for k, v in c.terms.items():
                row[idx[k]] = v
            row.append(c.const)
            rows.append(row)
        return rows

    def rank(self) -> int:
        order = self.symbols()
        rows = self._rows(order)
        return _row_reduce(rows, len(order))[0]

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
        rank, pivots = _row_reduce(rows, n)
        for row in rows:
            if all(v == 0 for v in row[:n]) and row[n] != 0:
                raise Inconsistent(self.name or "linear system")
        rules = {}
        for r, col in enumerate(pivots):
            form = ParamForm({}, -rows[r][n])
            for j in range(n):
                if j != col and rows[r][j]:
                    form = form + ParamForm({order[j]: -rows[r][j]})
            rules[order[col]] = form
        return rules


def _row_reduce(rows, ncols):
    """In-place fraction-exact RREF over the first ncols columns."""
    rank = 0
    pivots = []
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        inv = Fraction(1) / pr[col]
        for j in range(len(pr)):
            pr[j] *= inv
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        pivots.append(col)
        rank += 1
    return rank, pivots
