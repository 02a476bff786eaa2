from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qrefl.params import Inconsistent, LinSystem, ParamForm

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
