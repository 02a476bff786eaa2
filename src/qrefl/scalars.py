"""Exact scalars for the quantum algebras: rational functions in s = q^(1/2).

A scalar is stored as

    N(s) / (iden * prod_{m} (1 - s^m)^mult)

where N is a Laurent polynomial in s with integer coefficients, ``iden``
is a positive integer and the denominator factors are tracked as a
multiset {m: mult}.  Every scalar produced by q-powers, rational
constants and quantum-dilogarithm series coefficients lives in this
shape; sums and products stay inside it.

The numerator is packed by Kronecker substitution: N(s) = s^v * P(s) with
P(0) != 0, held as the one integer P(2^64), whose signed base-2^64 digits
are the coefficients of P.  Products, sums and exact quotients of
polynomials are then products, sums and quotients of integers, and
s^m -> 2^(64m) turns the factor (1 - s^m) into 1 - 2^(64m):

  * N(1) is P mod (2^64 - 1), and (1 - s^m) divides N exactly when
    2^(64m) - 1 divides P;
  * the quotient by (1 - s^m) is P / (1 - 2^(64m)), an exact integer
    division.

Digits stay apart only while every coefficient is below 2^63 in size, so
each scalar carries an upper bound on the l1 norm of N (the sum of the
sizes of its coefficients) and no packed product or sum is formed unless
the bound of its result is below 2^61.  A bound that would cross is first
tightened to the operands' exact norms; if these still cross, the
operation raises ``OverflowError``.  A quotient by (1 - s^m) has every
coefficient bounded by the dividend's norm, so it is read off exactly,
and its norm is counted afresh.

``num`` reads and writes the numerator as a dict exponent -> coefficient.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

_LIMIT = 1 << 61                 # every l1 bound stays below this
_ONES = (1 << 64) - 1            # 2^64 = 1 modulo this: reads N(1)
_BIT63 = bytes(7) + b"\x80"      # one digit 2^63, little-endian
_ORDER = sys.byteorder
_new = object.__new__


def _digits(p: int):
    """The signed base-2^64 digits of ``p``, lowest first, padded with
    zeros; every digit must be below 2^63 in size.  Adding 2^63 to every
    digit leaves no carries, and flipping bit 63 back gives the two's
    complement of each digit, read as machine int64s."""
    n = p.bit_length() // 64 + 1
    off = int.from_bytes(_BIT63 * n, "little")
    out = memoryview(((p + off) ^ off).to_bytes(8 * n, _ORDER)).cast("q")
    return out if _ORDER == "little" else out[::-1]


def _norm(p: int) -> int:
    return sum(map(abs, _digits(p)))


def _guard(n: int) -> int:
    """``n``, an l1 norm or bound, if it is below the limit."""
    if n >= _LIMIT:
        raise OverflowError("ScalarQ numerator reaches the l1 limit 2^61")
    return n


def _tight(x: "ScalarQ") -> int:
    """x's exact norm, kept as its bound."""
    x._l = _norm(x._p)
    return x._l


def _pack(num: dict):
    """(P(2^64), v, l1 norm) for the numerator ``num``."""
    items = [(e, c) for e, c in num.items() if c]
    if not items:
        return 0, 0, 0
    l1 = _guard(sum(abs(c) for _, c in items))
    v = min(e for e, _ in items)
    return sum(c << 64 * (e - v) for e, c in items), v, l1


def _make(p, v, l1, den, iden) -> "ScalarQ":
    out = _new(ScalarQ)
    out._p = p
    out._v = v
    out._l = l1
    out.den = den
    out.iden = iden
    return out


# -- denominators ---------------------------------------------------------
# memos of pure functions of their denominator keys, holding only ints and
# tuples; they grow with the distinct denominators (and pairs) a process meets

_EXPANSIONS = {}
_PRODUCTS = {}
_PLANS = {}


def _expansion(den: tuple):
    """(packed prod (1 - s^m)^mult, its l1 norm) for ``den``."""
    out = _EXPANSIONS.get(den)
    if out is None:
        p, l1 = 1, 1
        for m, mult in den:
            for _ in range(mult):
                p *= 1 - (1 << 64 * m)
                l1 *= 2
                if l1 >= _LIMIT:
                    l1 = _guard(_norm(p))
        out = _EXPANSIONS[den] = (p, l1)
    return out


def _den_product(da: tuple, db: tuple) -> tuple:
    key = (da, db)
    out = _PRODUCTS.get(key)
    if out is None:
        den = dict(da)
        for m, mult in db:
            den[m] = den.get(m, 0) + mult
        out = _PRODUCTS[key] = tuple(sorted(den.items()))
    return out


def _plan(da: tuple, ia: int, db: tuple, ib: int):
    """The common denominator of a/(ia*da) and b/(ib*db) and what each
    numerator is multiplied by to reach it: (den, iden, (ea, na), (eb,
    nb)) with e packed and n its l1 norm."""
    key = (da, ia, db, ib)
    out = _PLANS.get(key)
    if out is None:
        a, b = dict(da), dict(db)
        lcm_den = {m: max(a.get(m, 0), b.get(m, 0)) for m in set(a) | set(b)}
        ilcm = ia // gcd(ia, ib) * ib
        sides = []
        for d, i in ((a, ia), (b, ib)):
            missing = ((m, k - d.get(m, 0)) for m, k in lcm_den.items())
            e, n = _expansion(tuple((m, k) for m, k in missing if k))
            sides.append((e * (ilcm // i), _guard(n * (ilcm // i))))
        out = _PLANS[key] = (tuple(sorted(lcm_den.items())), ilcm, *sides)
    return out


class ScalarQ:
    """Element of Q(s), s = q^(1/2), closed under +, *, and monomial inverse."""

    __slots__ = ("_p", "_v", "_l", "den", "iden")

    def __init__(self, num: dict, den: tuple = (), iden: int = 1):
        self._p, self._v, self._l = _pack(num)
        self.den = den
        self.iden = iden

    @property
    def num(self) -> dict:
        """The numerator as a dict exponent -> nonzero coefficient."""
        if not self._p:
            return {}
        v = self._v
        return {v + i: c for i, c in enumerate(_digits(self._p)) if c}

    @num.setter
    def num(self, num: dict):
        self._p, self._v, self._l = _pack(num)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "ScalarQ":
        return _make(0, 0, 0, (), 1)

    @classmethod
    def one(cls) -> "ScalarQ":
        return _make(1, 0, 1, (), 1)

    @classmethod
    def s_pow(cls, k: int, coeff: int = 1) -> "ScalarQ":
        if coeff == 0:
            return cls.zero()
        return _make(coeff, k, _guard(abs(coeff)), (), 1)

    @classmethod
    def q_pow(cls, k) -> "ScalarQ":
        """q^k for k integer or half-integer Fraction; q = s^2."""
        e = Fraction(2) * Fraction(k)
        if e.denominator != 1:
            raise ValueError("q-power must lie in (1/2)Z")
        return _make(1, int(e), 1, (), 1)

    @classmethod
    def qpoch_inv(cls, base: int, n: int, numerator: dict) -> "ScalarQ":
        """numerator / prod_{j=1..n} (1 - s^(2*base*2*j)).

        ``base`` is the q-exponent of the dilogarithm base (1 for q, 2
        for q^2); the Pochhammer (qb^2; qb^2)_n contributes factors
        (1 - s^(4*base*j)).
        """
        den = tuple((4 * base * j, 1) for j in range(1, n + 1))
        return cls(numerator, den, 1)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self._p

    # -- arithmetic --------------------------------------------------

    def __neg__(self) -> "ScalarQ":
        return _make(-self._p, self._v, self._l, self.den, self.iden)

    def __mul__(self, other: "ScalarQ") -> "ScalarQ":
        return self.mul_shift(other, 0)

    def mul_shift(self, other: "ScalarQ", k: int) -> "ScalarQ":
        """(self * other).shift(k), built as one object."""
        p = self._p * other._p
        if not p:
            return ScalarQ.zero()
        bound = self._l * other._l
        if bound >= _LIMIT:
            bound = _guard(_tight(self) * _tight(other))
        da, db = self.den, other.den
        den = _den_product(da, db) if da or db else ()
        iden = self.iden * other.iden
        out = _make(p, self._v + other._v + k, bound, den, iden)
        if den and not p % _ONES or iden != 1:
            out._reduce()
        return out

    def __add__(self, other: "ScalarQ") -> "ScalarQ":
        if not self._p:
            return other
        if not other._p:
            return self
        if self.den == other.den and self.iden == other.iden:
            den, iden = self.den, self.iden
            pa, na, pb, nb = self._p, 1, other._p, 1
        else:
            den, iden, (ea, na), (eb, nb) = _plan(self.den, self.iden,
                                                  other.den, other.iden)
            pa, pb = self._p * ea, other._p * eb
        bound = self._l * na + other._l * nb
        if bound >= _LIMIT:
            bound = _guard(_tight(self) * na + _tight(other) * nb)
        va, vb = self._v, other._v
        if va > vb:
            pa, pb, va, vb = pb, pa, vb, va
        p = pa + (pb << 64 * (vb - va))
        if not p:
            return ScalarQ.zero()
        if not p & _ONES:
            # the lowest digits cancelled: drop the zero digits
            k = ((p & -p).bit_length() - 1) // 64
            p >>= 64 * k
            va += k
        out = _make(p, va, bound, den, iden)
        out._reduce()
        return out

    def shift(self, k: int) -> "ScalarQ":
        """s^k * self.  A unit factor changes no divisibility by any
        (1 - s^m), so a reduced form stays reduced."""
        if not self._p:
            return ScalarQ.zero()
        return _make(self._p, self._v + k, self._l, self.den, self.iden)

    def __sub__(self, other: "ScalarQ") -> "ScalarQ":
        return self + (-other)

    def inverse(self) -> "ScalarQ":
        """Inverse, defined when the numerator is a single monomial."""
        c = self._p
        if not 0 < abs(c) < 1 << 63:
            raise ValueError("ScalarQ.inverse: numerator is not a monomial")
        p, l1 = _expansion(self.den)
        p, l1 = p * self.iden, _guard(l1 * self.iden)
        if c < 0:
            p, c = -p, -c
        return _make(p, -self._v, l1, (), c)

    def _reduce(self):
        """Cancel the (1 - s^m) and the integer factors that divide the
        numerator; the numerator is nonzero."""
        p = self._p
        # (1 - s^m) divides N only if N(1) = 0, and a quotient by
        # (1 - s^m') is divisible by (1 - s^m) only if N was: one pass
        # over the factors, which stops once the value at 1 is nonzero
        if self.den and not p % _ONES:
            den, at_one, divided = [], 0, False
            for m, mult in self.den:
                cyc = (1 << 64 * m) - 1
                while mult and not at_one:
                    q, r = divmod(p, cyc)
                    if r:
                        break
                    p, divided = -q, True
                    mult -= 1
                    at_one = p % _ONES
                if mult:
                    den.append((m, mult))
            if divided:
                self._p, self._l = p, _norm(p)
            self.den = tuple(den)
        if self.iden != 1:
            g = gcd(self.iden, p)
            if g > 1:
                g = gcd(g, *_digits(p))
            if g > 1:
                self._p = p // g
                self._l //= g
                self.iden //= g

    # -- comparison ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarQ):
            return NotImplemented
        if self.den == other.den and self.iden == other.iden:
            return self._p == other._p and self._v == other._v
        _, _, (ea, na), (eb, nb) = _plan(self.den, self.iden, other.den, other.iden)
        for x, n in ((self, na), (other, nb)):
            if x._l * n >= _LIMIT:
                _guard(_tight(x) * n)
        # the multipliers have a positive constant term, so neither
        # product moves its valuation
        left, right = self._p * ea, other._p * eb
        return left == right and (self._v == other._v or not left)

    # -- display ------------------------------------------------------

    def as_pair_str(self) -> str:
        """Render as "num/den" with both sides polynomials in s."""
        num = "+".join(
            f"{c}*s^{e}" if e else str(c) for e, c in sorted(self.num.items())
        ) or "0"
        parts = [str(self.iden)] if self.iden != 1 else []
        parts += [f"(1-s^{m})^{k}" if k > 1 else f"(1-s^{m})" for m, k in self.den]
        return f"{num}/{'*'.join(parts)}" if parts else num

    def __repr__(self):
        return f"ScalarQ({self.as_pair_str()})"


ONE = ScalarQ.one()
