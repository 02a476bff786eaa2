"""The nested layout that ``qrefl.qweyl.WeylSeries`` used before its
parameter exponents became integer coordinates, kept as the reference for
the flat series.

A series maps cexp -> {pexp.key(): (pexp, ScalarQ)}: every product adds
two ``ParamForm``s, sorts a key and merges at two levels.  Any parameter
form is accepted, a denominator or a constant term included.  ``expand``
is the degree-bucketed loop of ``qrefl.qtorus.GradedSeries.expand`` as it
was, one power of a factor at a time over a whole bucket.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from math import floor, lcm
from operator import add, mul

from qrefl.params import ParamForm
from qrefl.qtorus import NonpositiveGrading, dilog_coefficients, skew_image
from qrefl.scalars import ONE, ScalarQ


class WeylSeries:
    """Graded truncated series: cexp -> {pexp-key: (pexp, ScalarQ)}."""

    def __init__(self, spec, grading, cutoff, terms=None):
        self.spec = spec
        self.grading = tuple(grading)
        self.cutoff = cutoff
        self.terms = terms or {}
        self._skew = spec.skew()
        scale = lcm(*(Fraction(g).denominator for g in self.grading))
        self._g = tuple(int(g * scale) for g in self.grading)
        self._top = floor(cutoff * scale)

    @classmethod
    def one(cls, spec, grading, cutoff):
        zero = (0,) * (2 * spec.p)
        return cls(spec, grading, cutoff, {zero: {ParamForm().key(): (ParamForm(), ONE)}})

    def gdeg(self, cexp) -> int:
        return sum(map(mul, self._g, cexp))

    def keeps(self, cexp) -> bool:
        return self.gdeg(cexp) <= self._top

    def _like(self, terms=None):
        out = copy(self)
        out.terms = terms or {}
        return out

    def add_term(self, cexp, pexp: ParamForm, coeff: ScalarQ):
        """Add coeff * e^pexp * e^cexp."""
        key = pexp.key()
        bucket = self.terms.setdefault(cexp, {})
        cur = bucket.get(key)
        if cur is not None:
            coeff = cur[1] + coeff
            if coeff.is_zero():
                del bucket[key]
                if not bucket:
                    del self.terms[cexp]
                return
        bucket[key] = (pexp, coeff)

    def _mul_into(self, out, terms, m, coeff):
        """Add the products of ``terms`` with coeff * m into ``out``, both
        {cexp: bucket}; a sum that cancels is deleted, and so is a bucket
        that it empties."""
        beta, mp, mc = m.cexp, m.pexp, m.coeff * coeff
        col = skew_image(self._skew, beta)
        for cexp, bucket in terms.items():
            gamma = tuple(map(add, cexp, beta))
            s = sum(map(mul, cexp, col))
            dest = out.setdefault(gamma, {})
            for pexp, c in bucket.values():
                pexp = pexp + mp
                key = pexp.key()
                c = (c * mc).shift(s)
                cur = dest.get(key)
                if cur is not None:
                    c = cur[1] + c
                    if c.is_zero():
                        del dest[key]
                        continue
                dest[key] = (pexp, c)
            if not dest:
                del out[gamma]

    def mul_monomial(self, m) -> "WeylSeries":
        """self times m, truncated to the cutoff."""
        out = self._like()
        if m.coeff.is_zero():
            return out
        top = self._top - self.gdeg(m.cexp)
        self._mul_into(out.terms, {a: v for a, v in self.terms.items()
                                   if self.gdeg(a) <= top}, m, ONE)
        return out

    def expand(self, factors):
        """self times prod Psi_{q^base}(arg)^expo over ``factors`` (base,
        expo, arg), left to right, each truncated to the cutoff."""
        top = self._top
        acc = {}
        for cexp, bucket in self.terms.items():
            e = self.gdeg(cexp)
            if e <= top:
                acc.setdefault(e, {})[cexp] = copy(bucket)
        for base, expo, arg in factors:
            d = self.gdeg(arg.cexp)
            if d <= 0:
                raise NonpositiveGrading(f"factor argument {arg} of grade <= 0")
            coeffs = dilog_coefficients(base, expo, top // d)
            powers = [(arg.pow(n), coeffs[n]) for n in range(1, len(coeffs))]
            for e in sorted(acc, reverse=True):
                for n, (p, c) in enumerate(powers[:(top - e) // d], 1):
                    self._mul_into(acc.setdefault(e + n * d, {}), acc[e], p, c)
        return self._like({a: v for e in sorted(acc) for a, v in acc[e].items()})

    def first_difference(self, other: "WeylSeries", region=None):
        """(cexp, pexp, own coefficient, other coefficient) at the first
        term where the two series differ, or None when they agree."""
        zero = (None, ScalarQ.zero())
        for cexp in {**self.terms, **other.terms}:
            if region is not None and not region(cexp):
                continue
            b1 = self.terms.get(cexp, {})
            b2 = other.terms.get(cexp, {})
            for key in {**b1, **b2}:
                p1, c1 = b1.get(key, zero)
                p2, c2 = b2.get(key, zero)
                if c1 != c2:
                    return cexp, p2 if p1 is None else p1, c1, c2
        return None

    def __len__(self):
        return sum(len(b) for b in self.terms.values())


def expand_weyl_product(factors, spec, grading, cutoff) -> WeylSeries:
    """Product of dilog factors (base, expo, WeylMonomial) left to right."""
    return WeylSeries.one(spec, grading, cutoff).expand(factors)
