"""Linear and quadratic forms in the free parameters, and linear systems.

Parameter symbols are short strings ('a1', 'd7', 'th2', ...).  A
ParamForm is an affine-linear combination with exact rational
coefficients; ParamQuad adds degree-two monomials (needed for the central
part of the triangular operator group).  Both are stored fraction-free:
integer numerators over one positive denominator, in lowest terms, so
their arithmetic is integer arithmetic plus at most one gcd per result.
LinSystem does exact fraction-free Gaussian elimination on sparse integer
rows (``pivot``) for rank computation and for solving a system into a
substitution map.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def canonical(v):
    """The one readable form of an exact rational: an int stays an int, any
    other value becomes a Fraction, and an integral Fraction its numerator.
    Python gives hash(Fraction(n)) == hash(n) and Fraction(n) == n, so
    equality and hashing are those of the rational."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _value(n, den):
    """The rational n/den in ``canonical`` form."""
    return n if den == 1 else canonical(Fraction(n, den))


def _merged(a, ma, b, mb):
    """The int dict ma*a + mb*b: a's keys in their order, then b's new
    keys, with the sums that cancel dropped."""
    out = dict(a) if ma == 1 else {k: v * ma for k, v in a.items()}
    for k, v in b.items():
        w = out.get(k, 0) + v * mb
        if w:
            out[k] = w
        else:
            del out[k]
    return out


def _form(num, c, den):
    """A ParamForm from nonzero int numerators already in lowest terms."""
    if den == 1:
        out = object.__new__(ParamForm)
    else:
        out = object.__new__(_Fractional)
        out.den = den
    out.num = num
    out.c = c
    return out


def _reduced(num, c, den):
    """The ParamForm (c + num) / den, brought to lowest terms (den > 0)."""
    if den == 1:
        return _form(num, c, 1)
    g = gcd(den, c, *num.values())
    if g == 1:
        return _form(num, c, den)
    return _form({k: v // g for k, v in num.items()}, c // g, den // g)


class ParamForm:
    """Affine-linear form (c + sum num_s * s) / den over parameter symbols:
    nonzero int numerators ``num``, an int ``c`` and ``den`` >= 1 with
    gcd(num, c, den) = 1.  Each rational form has exactly one such layout,
    so ``==``, ``hash`` and ``key`` compare it directly.  ``terms`` and
    ``const`` read the values as ``canonical`` rationals.  A form is never
    changed after it is built, so results may share a zero or an operand.
    An integral form, the common case, stores no denominator (``den`` is
    the class attribute 1); any other is a ``_Fractional``."""

    __slots__ = ("num", "c")
    den = 1

    def __new__(cls, terms=None, const=0):
        if not terms and not const:
            return _form({}, 0, 1)
        const = canonical(const)
        vals = {}
        for k, v in (terms or {}).items():
            v = canonical(v)
            if v:
                vals[k] = v
        # values in lowest terms are in lowest terms over their least
        # common denominator too
        den = lcm(const.denominator, *(v.denominator for v in vals.values()))
        return _form({k: v.numerator * (den // v.denominator) for k, v in vals.items()},
                     const.numerator * (den // const.denominator), den)

    @classmethod
    def sym(cls, name, coeff=1):
        return cls({name: coeff})

    @property
    def terms(self):
        d = self.den
        return {k: _value(v, d) for k, v in self.num.items()}

    @property
    def const(self):
        return _value(self.c, self.den)

    def is_zero(self):
        return not self.num and not self.c

    def __add__(self, other):
        if not other.num and not other.c:
            return self
        if not self.num and not self.c:
            return other
        d1, d2 = self.den, other.den
        den = d1 if d1 == d2 else lcm(d1, d2)
        m1, m2 = den // d1, den // d2
        return _reduced(_merged(self.num, m1, other.num, m2),
                        self.c * m1 + other.c * m2, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _form({k: -v for k, v in self.num.items()}, -self.c, self.den)

    def scale(self, c):
        c = canonical(c)
        p, q = c.numerator, c.denominator
        if not p:
            return _ZERO
        if p == q:
            return self
        return _reduced({k: v * p for k, v in self.num.items()}, self.c * p,
                        self.den * q)

    def subs(self, rules: dict) -> "ParamForm":
        """Substitute symbols by ParamForms (symbols absent from rules stay).
        Everything is summed in the order of the symbols, over the common
        denominator of the rules used."""
        used = [rules[k] for k in self.num if k in rules]
        if not used:
            return self
        m = lcm(*(r.den for r in used))
        num = {}
        c = self.c * m
        for k, v in self.num.items():
            r = rules.get(k)
            if r is None:
                part, f = ((k, v),), m
            else:
                part, f = r.num.items(), v * (m // r.den)
                c += r.c * f
            for k2, v2 in part:
                w = num.get(k2, 0) + v2 * f
                if w:
                    num[k2] = w
                else:
                    del num[k2]
        return _reduced(num, c, self.den * m)

    def rate(self, direction: dict) -> Fraction:
        """Pairing with a rate vector symbol -> rational (absent = 0)."""
        return sum((v * Fraction(direction.get(k, 0)) for k, v in self.num.items()),
                   Fraction(0)) / self.den

    def coeff(self, name):
        return _value(self.num.get(name, 0), self.den)

    def key(self):
        """A hashable, order-free key; an integral form's key is its sorted
        terms and its constant, a non-integral one adds the denominator."""
        items = tuple(sorted(self.num.items()))
        return (items, self.c) if self.den == 1 else (items, self.c, self.den)

    def __eq__(self, other):
        if not isinstance(other, ParamForm):
            return NotImplemented
        return self.den == other.den and self.c == other.c and self.num == other.num

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for k, v in sorted(self.terms.items()):
            bits.append(f"{'+' if v > 0 else '-'}{abs(v)}*{k}" if abs(v) != 1
                        else f"{'+' if v > 0 else '-'}{k}")
        const = self.const
        if const:
            bits.append(f"{'+' if const > 0 else '-'}{abs(const)}")
        s = "".join(bits)
        return s[1:] if s.startswith("+") else s


class _Fractional(ParamForm):
    """A ParamForm whose denominator is not 1; only these carry the slot."""

    __slots__ = ("den",)


_ZERO = ParamForm()


def _quad(form):
    """A ParamQuad around a form in lowest terms."""
    out = ParamQuad.__new__(ParamQuad)
    out.form = form
    return out


class ParamQuad:
    """Degree <= 2 polynomial in the parameter symbols.  It is stored as
    one ParamForm whose keys are sorted symbol pairs (the quadratic part)
    and symbols (the linear part), so it shares that layout and its
    arithmetic; ``quad``, ``lin`` and ``const`` read the values of each
    part as ``canonical`` rationals, in their order in the form."""

    __slots__ = ("form",)

    def __init__(self, quad=None, lin=None, const=0):
        q = {}
        for k, v in (quad or {}).items():
            v = canonical(v)
            if v:
                k = tuple(sorted(k))
                q[k] = q.get(k, 0) + v
        self.form = ParamForm({**q, **(lin or {})}, const)

    @classmethod
    def from_linear(cls, f: ParamForm):
        return _quad(f)

    @classmethod
    def product(cls, f: ParamForm, g: ParamForm):
        num = {}
        for k1, v1 in f.num.items():
            for k2, v2 in g.num.items():
                key = (k1, k2) if k1 <= k2 else (k2, k1)
                num[key] = num.get(key, 0) + v1 * v2
        fc, gc = f.c, g.c
        if gc:
            for k, v in f.num.items():
                num[k] = v * gc
        if fc:
            for k, v in g.num.items():
                num[k] = num.get(k, 0) + v * fc
        return _quad(_reduced({k: v for k, v in num.items() if v}, fc * gc,
                              f.den * g.den))

    def _part(self, kind, read=_value):
        """The values of the part whose keys have type ``kind``, each
        numerator read over the denominator by ``read``."""
        f = self.form
        return {k: read(v, f.den) for k, v in f.num.items() if type(k) is kind}

    @property
    def quad(self):
        return self._part(tuple)

    @property
    def lin(self):
        return self._part(str)

    @property
    def const(self):
        return self.form.const

    def is_zero(self):
        return self.form.is_zero()

    def __add__(self, other):
        return _quad(self.form + other.form)

    def __sub__(self, other):
        return _quad(self.form - other.form)

    def scale(self, c):
        return _quad(self.form.scale(c))

    def subs(self, rules: dict) -> "ParamQuad":
        # summed over the numerators, then divided by den once
        f = self.form
        out = _quad(_form({}, f.c, 1))
        lin = {}
        for k, v in f.num.items():
            if type(k) is str:
                lin[k] = v
            else:
                f1 = rules.get(k[0], ParamForm.sym(k[0]))
                f2 = rules.get(k[1], ParamForm.sym(k[1]))
                out = out + ParamQuad.product(f1, f2).scale(v)
        out = out + ParamQuad.from_linear(_form(lin, 0, 1).subs(rules))
        return out.scale(Fraction(1, f.den))

    def __eq__(self, other):
        if not isinstance(other, ParamQuad):
            return NotImplemented
        return self.form == other.form

    def __repr__(self):
        # values print as Fractions, integral ones included
        return (f"ParamQuad(quad={self._part(tuple, Fraction)}, "
                f"lin={self._part(str, Fraction)}, const={self.const})")


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
            out.update(c.num)
        return sorted(out)

    def _rows(self, order):
        """Each constraint as a sparse integer row {column: nonzero}: the
        coefficients in ``order``, then the constant in column len(order)."""
        idx = {s: i for i, s in enumerate(order)}
        rows = []
        for c in self.constraints:
            # a form in lowest terms: its numerators are the primitive row
            row = {idx[k]: v for k, v in c.num.items()}
            if c.c:
                row[len(order)] = c.c
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
            # order[col] = -(rest of the row) / p, over the denominator |p|
            p = row[col]
            s = -1 if p > 0 else 1
            rules[order[col]] = _reduced(
                {order[j]: s * v for j, v in sorted(row.items()) if j != col and j < n},
                s * row.get(n, 0), abs(p))
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
