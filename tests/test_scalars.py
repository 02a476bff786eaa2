from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from qrefl.scalars import ONE, ScalarQ, _divide_cyc, _fold_mod, _num_mul


def test_q_powers():
    assert ScalarQ.q_pow(2) == ScalarQ({4: 1})
    assert ScalarQ.q_pow(Fraction(1, 2)) == ScalarQ({1: 1})
    with pytest.raises(ValueError):
        ScalarQ.q_pow(Fraction(1, 3))


def test_cyclotomic_division_roundtrip():
    a = {0: 1, 4: -1}
    b = {0: 1, 8: -1}
    prod = _num_mul(a, b)
    assert _fold_mod(prod, 4) and _fold_mod(prod, 8)
    assert _divide_cyc(prod, 4) == b
    assert _divide_cyc(prod, 8) == a


def test_add_reduce_cancel():
    x = ScalarQ.qpoch_inv(1, 2, {2: 1})
    y = ScalarQ.qpoch_inv(1, 1, {0: 1})
    z = x + y
    assert z + (-y) == x
    assert (x + (-x)).is_zero()


def test_inverse_monomial():
    m = ScalarQ.s_pow(3, -2)
    assert (m * m.inverse()).is_one()
    with pytest.raises(ValueError):
        (ScalarQ({0: 1, 2: 1})).inverse()


def test_scalars_are_unhashable():
    # 1/(1-s^2) and (1+s^2)/(1-s^4) are equal in different forms; with no
    # canonical form there is no sound hash, so a set must refuse them
    a = ScalarQ({0: 1}, ((2, 1),))
    b = ScalarQ({0: 1, 2: 1}, ((4, 1),))
    assert a == b
    with pytest.raises(TypeError):
        {a, b}


def test_fraction_constants():
    half = ScalarQ.from_fraction(Fraction(1, 2))
    assert half + half == ScalarQ.one()
    third = ScalarQ.from_fraction(Fraction(2, 6))
    assert third * ScalarQ.from_fraction(3) == ScalarQ.one()


small = st.integers(min_value=-3, max_value=3)


@st.composite
def scalars(draw):
    num = {draw(st.integers(-6, 6)): draw(st.integers(-4, 4)) or 1
           for _ in range(draw(st.integers(1, 3)))}
    den = tuple((4 * m, 1) for m in draw(st.sets(st.integers(1, 3), max_size=2)))
    return ScalarQ(num, den, draw(st.integers(1, 3)))


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


# numerators for qpoch_inv, among them some that a Pochhammer factor divides
NUMERATORS = st.one_of(
    st.dictionaries(st.integers(-8, 8), st.integers(-3, 3).filter(bool), min_size=1,
                    max_size=3),
    st.sampled_from(({0: 1, 4: -1}, {2: 1, 10: -1}, {0: 1, 8: -1}, {0: 2, 12: -2})))
FACTORS = st.one_of(
    st.builds(ScalarQ.s_pow, st.integers(-6, 6), st.integers(-3, 3)),
    st.builds(ScalarQ.from_fraction, st.fractions(-4, 4, max_denominator=6)),
    st.builds(ScalarQ.qpoch_inv, st.sampled_from((1, 2)), st.integers(0, 3), NUMERATORS))


@settings(max_examples=150, deadline=None)
@given(st.lists(FACTORS, max_size=4), st.integers(-9, 9))
def test_shift_is_the_reduced_product_with_s_pow(factors, k):
    c = reduce(mul, factors, ONE)
    want = c * ScalarQ.s_pow(k)
    got = c.shift(k)
    assert (got.num, got.den, got.iden) == (want.num, want.den, want.iden)
