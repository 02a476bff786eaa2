"""Exact scalars for the quantum algebras: rational functions in s = q^(1/2).

A scalar is stored as

    num / (iden * prod_{m} (1 - s^m)^mult)

where ``num`` is a Laurent polynomial in s with integer coefficients
(sparse dict exponent -> coeff), ``iden`` is a positive integer and the
denominator factors are tracked as a multiset {m: mult}.  Every scalar
produced by q-powers, rational constants and quantum-dilogarithm series
coefficients lives in this shape; sums and products stay inside it.

Keeping the denominator factored makes reduction cheap: divisibility of
``num`` by (1 - s^m) is a fold of exponents mod m, and the quotient is a
single synthetic division.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _fold_mod(num: dict, m: int) -> bool:
    """True iff num is divisible by (1 - s^m)."""
    acc = {}
    for e, c in num.items():
        r = e % m
        acc[r] = acc.get(r, 0) + c
    return all(c == 0 for c in acc.values())


def _divide_cyc(num: dict, m: int) -> dict:
    """Exact division of num by (1 - s^m); caller guarantees divisibility."""
    if not num:
        return {}
    work = dict(num)
    out = {}
    while work:
        e = max(work)
        c = work.pop(e)
        if c == 0:
            continue
        # leading term of (1 - s^m) * q is -q_top * s^(m + top)
        qe = e - m
        out[qe] = out.get(qe, 0) - c
        prev = work.get(qe, 0) + c
        if prev:
            work[qe] = prev
        elif qe in work:
            del work[qe]
    return {e: c for e, c in out.items() if c}


def _num_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = out.get(e, 0) + ca * cb
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def _num_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


def _den_expand(den: tuple) -> dict:
    out = {0: 1}
    for m, mult in den:
        f = {0: 1, m: -1}
        for _ in range(mult):
            out = _num_mul(out, f)
    return out


class ScalarQ:
    """Element of Q(s), s = q^(1/2), closed under +, *, and monomial inverse."""

    __slots__ = ("num", "den", "iden")

    def __init__(self, num: dict, den: tuple = (), iden: int = 1):
        self.num = num
        self.den = den
        self.iden = iden

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "ScalarQ":
        return cls({})

    @classmethod
    def one(cls) -> "ScalarQ":
        return cls({0: 1})

    @classmethod
    def s_pow(cls, k: int, coeff: int = 1) -> "ScalarQ":
        if coeff == 0:
            return cls({})
        return cls({k: coeff})

    @classmethod
    def q_pow(cls, k) -> "ScalarQ":
        """q^k for k integer or half-integer Fraction; q = s^2."""
        e = Fraction(2) * Fraction(k)
        if e.denominator != 1:
            raise ValueError("q-power must lie in (1/2)Z")
        return cls({int(e): 1})

    @classmethod
    def from_fraction(cls, fr) -> "ScalarQ":
        fr = Fraction(fr)
        if fr == 0:
            return cls({})
        return cls({0: fr.numerator}, (), fr.denominator)

    @classmethod
    def qpoch_inv(cls, base: int, n: int, numerator: dict) -> "ScalarQ":
        """numerator / prod_{j=1..n} (1 - s^(2*base*2*j)).

        ``base`` is the q-exponent of the dilogarithm base (1 for q, 2
        for q^2); the Pochhammer (qb^2; qb^2)_n contributes factors
        (1 - s^(4*base*j)).
        """
        den = tuple((4 * base * j, 1) for j in range(1, n + 1))
        return cls(dict(numerator), den, 1)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self == ScalarQ.one()

    # -- arithmetic --------------------------------------------------

    def __neg__(self) -> "ScalarQ":
        return ScalarQ({e: -c for e, c in self.num.items()}, self.den, self.iden)

    def __mul__(self, other: "ScalarQ") -> "ScalarQ":
        if not self.num or not other.num:
            return ScalarQ({})
        den = dict(self.den)
        for m, mult in other.den:
            den[m] = den.get(m, 0) + mult
        out = ScalarQ(
            _num_mul(self.num, other.num),
            tuple(sorted(den.items())),
            self.iden * other.iden,
        )
        out._reduce()
        return out

    def __add__(self, other: "ScalarQ") -> "ScalarQ":
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den and self.iden == other.iden:
            out = ScalarQ(_num_add(self.num, other.num), self.den, self.iden)
            out._reduce()
            return out
        da, db = dict(self.den), dict(other.den)
        lcm_den = {}
        for m in set(da) | set(db):
            lcm_den[m] = max(da.get(m, 0), db.get(m, 0))
        ig = gcd(self.iden, other.iden)
        ilcm = self.iden // ig * other.iden
        fa = {m: lcm_den[m] - da.get(m, 0) for m in lcm_den}
        fb = {m: lcm_den[m] - db.get(m, 0) for m in lcm_den}
        na = _num_mul(self.num, _den_expand(tuple((m, k) for m, k in fa.items() if k)))
        nb = _num_mul(other.num, _den_expand(tuple((m, k) for m, k in fb.items() if k)))
        if ilcm // self.iden != 1:
            na = {e: c * (ilcm // self.iden) for e, c in na.items()}
        if ilcm // other.iden != 1:
            nb = {e: c * (ilcm // other.iden) for e, c in nb.items()}
        out = ScalarQ(_num_add(na, nb), tuple(sorted(lcm_den.items())), ilcm)
        out._reduce()
        return out

    def shift(self, k: int) -> "ScalarQ":
        """s^k * self.  A unit factor changes no divisibility by any
        (1 - s^m), so a reduced form stays reduced."""
        if not self.num:
            return ScalarQ({})
        return ScalarQ({e + k: c for e, c in self.num.items()}, self.den, self.iden)

    def __sub__(self, other: "ScalarQ") -> "ScalarQ":
        return self + (-other)

    def inverse(self) -> "ScalarQ":
        """Inverse, defined when the numerator is a single monomial."""
        num = {e: c for e, c in self.num.items() if c}
        if len(num) != 1:
            raise ValueError("ScalarQ.inverse: numerator is not a monomial")
        (e, c), = num.items()
        den_poly = _num_mul(_den_expand(self.den), {0: self.iden})
        if c < 0:
            den_poly = {k: -v for k, v in den_poly.items()}
            c = -c
        out = {k - e: v for k, v in den_poly.items()}
        if c != 1:
            return ScalarQ(out, (), c)
        return ScalarQ(out)

    def _reduce(self):
        if not self.num:
            self.den = ()
            self.iden = 1
            return
        if self.den:
            den = dict(self.den)
            changed = True
            while changed:
                changed = False
                for m in list(den):
                    while den.get(m, 0) > 0 and _fold_mod(self.num, m):
                        self.num = _divide_cyc(self.num, m)
                        den[m] -= 1
                        if den[m] == 0:
                            del den[m]
                        changed = True
            self.den = tuple(sorted(den.items()))
        if self.iden != 1:
            g = self.iden
            for c in self.num.values():
                g = gcd(g, c)
                if g == 1:
                    break
            if g > 1:
                self.num = {e: c // g for e, c in self.num.items()}
                self.iden //= g

    # -- comparison ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarQ):
            return NotImplemented
        if self.den == other.den and self.iden == other.iden:
            return self.num == other.num
        left = _num_mul(self.num, _den_expand(other.den))
        right = _num_mul(other.num, _den_expand(self.den))
        left = {e: c * other.iden for e, c in left.items()}
        right = {e: c * self.iden for e, c in right.items()}
        return left == right

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
