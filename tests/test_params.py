from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qrefl.params import Inconsistent, LinSystem, ParamForm, ParamQuad

SYMS = ("a", "b", "c", "d")
HALF = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
FORM = st.builds(lambda coeffs, const: ParamForm(dict(zip(SYMS, coeffs)), const),
                 st.lists(HALF, min_size=len(SYMS), max_size=len(SYMS)), HALF)


@settings(max_examples=150, deadline=None)
@given(st.lists(FORM, min_size=1, max_size=5),
       st.lists(st.sampled_from(SYMS), max_size=3, unique=True))
def test_linsystem_matches_sympy(forms, prefer):
    # rank, dependents, rules and inconsistency against sympy's rref of the
    # augmented matrix [A | c] (each row c0 + sum c_s s = 0), with the
    # columns in the order eliminate scans them
    system = LinSystem(forms)
    order = prefer + [s for s in system.symbols() if s not in prefer]
    n = len(order)
    rows = [[sympy.Rational(c.coeff(s).numerator, c.coeff(s).denominator) for s in order]
            + [sympy.Rational(c.const.numerator, c.const.denominator)]
            for c in system.constraints]
    aug = sympy.Matrix(len(rows), n + 1, [x for row in rows for x in row])
    assert system.rank() == aug[:, :n].rank()
    reduced, pivots = aug.rref()
    if n in pivots:
        with pytest.raises(Inconsistent):
            system.eliminate(prefer)
        return
    rules = system.eliminate(prefer)
    assert list(rules) == [order[col] for col in pivots]
    for k, col in enumerate(pivots):
        want = ParamForm({order[j]: -Fraction(str(reduced[k, j])) for j in range(n)
                          if j != col}, -Fraction(str(reduced[k, n])))
        assert rules[order[col]] == want


QUARTER = st.integers(-8, 8).map(lambda k: Fraction(k, 4))
QFORM = st.tuples(st.lists(QUARTER, min_size=len(SYMS), max_size=len(SYMS)), QUARTER)


def _plain(coeffs, const):
    """A form as a dict of Fractions and a Fraction constant."""
    return {s: c for s, c in zip(SYMS, coeffs) if c}, Fraction(const)


def _plain_add(x, y):
    t = dict(x[0])
    for k, v in y[0].items():
        t[k] = t.get(k, Fraction(0)) + v
    return {k: v for k, v in t.items() if v}, x[1] + y[1]


def _plain_scale(x, c):
    return {k: v * c for k, v in x[0].items() if v * c}, x[1] * c


def _plain_subs(x, rules):
    out = ({}, x[1])
    for k, v in x[0].items():
        out = _plain_add(out, _plain_scale(rules[k], v) if k in rules else ({k: v}, 0))
    return out


@settings(max_examples=200, deadline=None)
@given(QFORM, QFORM, QUARTER, st.lists(st.sampled_from(SYMS), max_size=2, unique=True))
def test_paramform_values_are_canonical(a, b, c, substituted):
    # after every operation an integral value is stored as an int and any
    # other as a Fraction; the values are those of plain Fraction arithmetic,
    # and equal forms reached by different routes share key() and hash
    pa, pb = _plain(*a), _plain(*b)
    fa, fb = ParamForm(*pa), ParamForm(*pb)
    rules = {s: fb.scale(c) for s in substituted}
    plain_rules = {s: _plain_scale(pb, c) for s in substituted}
    cases = [
        (fa, pa),
        (fa + fb, _plain_add(pa, pb)),
        (fa - fb, _plain_add(pa, _plain_scale(pb, -1))),
        (-fa, _plain_scale(pa, -1)),
        (fa.scale(c), _plain_scale(pa, c)),
        (fa.subs(rules), _plain_subs(pa, plain_rules)),
    ]
    for form, (terms, const) in cases:
        for v in (*form.terms.values(), form.const):
            assert type(v) is (int if v.denominator == 1 else Fraction)
        assert form.terms == terms and form.const == const
        rebuilt = ParamForm(terms, const)
        assert form == rebuilt
        assert form.key() == rebuilt.key() and hash(form) == hash(rebuilt)
    assert (fa + fb) - fb == fa
    assert hash((fa + fb) - fb) == hash(fa) and hash(fa.scale(4).scale(Fraction(1, 4))) == hash(fa)


class FractionQuad:
    """A degree-two form kept as dicts of Fractions, built as ParamQuad
    was before it stored integral values as ints: the reference for the
    values, their key order and the repr."""

    def __init__(self, quad=None, lin=None, const=0):
        q = {}
        for k, v in (quad or {}).items():
            v = Fraction(v)
            if v:
                q[tuple(sorted(k))] = q.get(tuple(sorted(k)), Fraction(0)) + v
        self.quad = {k: v for k, v in q.items() if v}
        self.lin = {k: Fraction(v) for k, v in (lin or {}).items() if v}
        self.const = Fraction(const)

    @classmethod
    def product(cls, f, g):
        quad = {}
        for k1, v1 in f.terms.items():
            for k2, v2 in g.terms.items():
                key = tuple(sorted((k1, k2)))
                quad[key] = quad.get(key, Fraction(0)) + v1 * v2
        lin = {}
        for a, b in ((f, g), (g, f)):
            for k, v in a.terms.items():
                if v * b.const:
                    lin[k] = lin.get(k, Fraction(0)) + v * b.const
        return cls(quad, lin, f.const * g.const)

    def __add__(self, other):
        parts = []
        for mine, theirs in ((self.quad, other.quad), (self.lin, other.lin)):
            out = dict(mine)
            for k, v in theirs.items():
                w = out.get(k, Fraction(0)) + v
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
            parts.append(out)
        return FractionQuad(*parts, self.const + other.const)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return FractionQuad()
        return FractionQuad({k: v * c for k, v in self.quad.items()},
                            {k: v * c for k, v in self.lin.items()}, self.const * c)

    def subs(self, rules):
        out = FractionQuad({}, {}, self.const)
        for (s1, s2), v in self.quad.items():
            out = out + FractionQuad.product(rules.get(s1, ParamForm.sym(s1)),
                                             rules.get(s2, ParamForm.sym(s2))).scale(v)
        lin = ParamForm(self.lin).subs(rules)
        return out + FractionQuad({}, dict(lin.terms), lin.const)

    def __repr__(self):
        return f"ParamQuad(quad={self.quad}, lin={self.lin}, const={self.const})"


PAIRS = [(a, b) for a in SYMS for b in SYMS]
QUAD = st.tuples(st.dictionaries(st.sampled_from(PAIRS), QUARTER, max_size=5),
                 st.dictionaries(st.sampled_from(SYMS), QUARTER, max_size=3), QUARTER)


@settings(max_examples=200, deadline=None)
@given(QUAD, QUAD, QFORM, QFORM, QUARTER,
       st.lists(st.sampled_from(SYMS), max_size=2, unique=True))
def test_paramquad_values_are_canonical(a, b, f, g, c, substituted):
    # after construction, +, -, scale, product and subs every value is an
    # int exactly when integral, the values and their key order are those
    # of the Fraction reference, and the repr prints the same bytes
    fa, fb = ParamForm(*_plain(*f)), ParamForm(*_plain(*g))
    rules = {s: fb.scale(c) for s in substituted}
    qa, qb = ParamQuad(*a), ParamQuad(*b)
    ra, rb = FractionQuad(*a), FractionQuad(*b)
    cases = [
        (qa, ra),
        (qa + qb, ra + rb),
        (qa - qb, ra + rb.scale(-1)),
        (qa.scale(c), ra.scale(c)),
        (ParamQuad.product(fa, fb), FractionQuad.product(fa, fb)),
        (qa.subs(rules), ra.subs(rules)),
        (ParamQuad.from_linear(fa), FractionQuad({}, fa.terms, fa.const)),
    ]
    for got, want in cases:
        for v in (*got.quad.values(), *got.lin.values(), got.const):
            assert type(v) is (int if v.denominator == 1 else Fraction)
        assert list(got.quad.items()) == list(want.quad.items())
        assert list(got.lin.items()) == list(want.lin.items())
        assert got.const == want.const
        assert repr(got) == repr(want)
    assert (qa + qb) - qb == qa


def test_paramquad_integral_entries_as_ints():
    two = ParamQuad({("b", "a"): 2, ("a", "c"): Fraction(1, 2)}, {"c": Fraction(4, 2)},
                    3)
    same = ParamQuad({("a", "b"): Fraction(2), ("a", "c"): Fraction(1, 2)}, {"c": 2},
                     Fraction(3))
    assert two == same
    assert type(two.quad["a", "b"]) is int and type(same.quad["a", "b"]) is int
    assert type(same.lin["c"]) is int and type(same.const) is int
    assert repr(two) == repr(same) == (
        "ParamQuad(quad={('a', 'b'): Fraction(2, 1), ('a', 'c'): Fraction(1, 2)}, "
        "lin={'c': Fraction(2, 1)}, const=3)")
    half = ParamQuad({}, {}, Fraction(1, 2))
    assert repr(half) == "ParamQuad(quad={}, lin={}, const=1/2)"
