from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from qrefl.qtorus import dilog_coefficients
from qrefl.scalars import ONE, ScalarQ

import scalar_reference as ref
from monomial_reference import coefficients
from scalar_reference import (_divide_cyc, _fold_mod, _num_mul, from_fraction,
                              is_one)


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
    assert is_one(m * m.inverse())
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
    half = from_fraction(Fraction(1, 2))
    assert half + half == ScalarQ.one()
    third = from_fraction(Fraction(2, 6))
    assert third * from_fraction(3) == ScalarQ.one()


small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=60, deadline=None)
@given(coefficients(), coefficients(), coefficients())
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
    st.builds(from_fraction, st.fractions(-4, 4, max_denominator=6)),
    st.builds(ScalarQ.qpoch_inv, st.sampled_from((1, 2)), st.integers(0, 3), NUMERATORS))


@settings(max_examples=150, deadline=None)
@given(st.lists(FACTORS, max_size=4), st.integers(-9, 9))
def test_shift_is_the_reduced_product_with_s_pow(factors, k):
    c = reduce(mul, factors, ONE)
    want = c * ScalarQ.s_pow(k)
    got = c.shift(k)
    assert (got.num, got.den, got.iden) == (want.num, want.den, want.iden)


def reference_reduce(self):
    """The two-pass reduction that ``ScalarQ._reduce`` replaced: sweep the
    denominator factors until no (1 - s^m) divides the numerator."""
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


# c_n of Psi_{q^base}(U)^expo, n <= 5, times s^k
DILOG_COEFFS = st.builds(
    lambda base, expo, n, k: dilog_coefficients(base, expo, 5)[n].shift(k),
    st.sampled_from((1, 2)), st.sampled_from((1, -1)), st.integers(0, 5), st.integers(-6, 6))


@settings(max_examples=200, deadline=None)
@given(DILOG_COEFFS, st.lists(st.tuples(st.booleans(), DILOG_COEFFS), max_size=6))
def test_reduce_matches_the_two_pass_reduction(first, steps):
    # every reduction made while summing and multiplying dilogarithm
    # coefficients gives the reference's (num, den, iden)
    one_pass = ScalarQ._reduce

    def both(self):
        want = ref.ScalarQ(self.num, self.den, self.iden)
        reference_reduce(want)
        one_pass(self)
        assert (self.num, self.den, self.iden) == (want.num, want.den, want.iden)

    ScalarQ._reduce = both
    try:
        acc = first
        for is_product, c in steps:
            acc = acc * c if is_product else acc + c
            acc = acc + (-c) * acc
    finally:
        ScalarQ._reduce = one_pass


# -- the packed numerators against the dict arithmetic ----------------------


def _form(c):
    return c.num, c.den, c.iden


# (num, den, iden) with exponents of both signs, numerators that a
# Pochhammer factor (1 - s^4), (1 - s^8) or (1 - s^12) divides, and iden > 1
FORMS = st.tuples(
    st.one_of(
        st.dictionaries(st.integers(-9, 9), st.integers(-3, 3).filter(bool),
                        max_size=4),
        st.sampled_from(({0: 1, 4: -1}, {-2: 1, 10: -1}, {0: 1, 8: -1},
                         {-6: 2, 6: -2}, {0: 1, 4: -1, 8: -1, 12: 1}))),
    st.lists(st.sampled_from((4, 8, 12)), max_size=3).map(
        lambda ms: tuple(sorted((m, ms.count(m)) for m in set(ms)))),
    st.integers(1, 4))

BINARY = {"+": lambda a, b, k: a + b, "-": lambda a, b, k: a - b,
          "*": lambda a, b, k: a * b, "neg": lambda a, b, k: -a,
          "shift": lambda a, b, k: a.shift(k)}


@settings(max_examples=300, deadline=None)
@given(st.lists(FORMS, min_size=1, max_size=3),
       st.lists(st.tuples(st.sampled_from(sorted(BINARY) + ["==", "inverse"]),
                          st.integers(0, 30), st.integers(0, 30), st.integers(-9, 9)),
                max_size=10))
def test_packed_arithmetic_matches_the_dict_reference(forms, program):
    # every result, and every operand it is built from, has the reference's
    # (num, den, iden); results join the pool of operands
    pool = [(ScalarQ(dict(n), d, i), ref.ScalarQ(dict(n), d, i)) for n, d, i in forms]
    for op, i, j, k in program:
        (a, ra), (b, rb) = pool[i % len(pool)], pool[j % len(pool)]
        if op == "==":
            assert (a == b) == (ra == rb)
            continue
        if op == "inverse" and len(ra.num) != 1:
            with pytest.raises(ValueError):
                a.inverse()
            continue
        if op == "inverse":
            got, want = a.inverse(), ra.inverse()
        else:
            got, want = BINARY[op](a, b, k), BINARY[op](ra, rb, k)
        assert _form(got) == _form(want)
        pool.append((got, want))
    assert all(_form(a) == _form(ra) for a, ra in pool)


@settings(max_examples=200, deadline=None)
@given(FORMS, FORMS, st.integers(-9, 9))
def test_mul_shift_is_the_shifted_product(fa, fb, k):
    # empty numerators among the forms give zero operands
    a, b = ScalarQ(dict(fa[0]), *fa[1:]), ScalarQ(dict(fb[0]), *fb[1:])
    assert _form(a.mul_shift(b, k)) == _form((a * b).shift(k))
    assert _form(ScalarQ.zero().mul_shift(b, k)) == _form(ScalarQ.zero())


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 1 << 32), st.integers(1, 1 << 32), st.integers(-9, 9))
@example((1 << 30) - 1, 1 << 31, 2)
@example((1 << 30) - 2, 1 << 31, 2)
def test_mul_shift_raises_at_the_limit_where_the_product_does(x, y, k):
    # norms x + 1 and y: the product's norm reaches 2^61 or stays below
    a, b = ScalarQ({0: x, 3: -1}), ScalarQ({1: y})
    at_limit = (x + 1) * y >= 1 << 61
    for op in (lambda: a * b, lambda: a.mul_shift(b, k)):
        if at_limit:
            with pytest.raises(OverflowError):
                op()
        else:
            op()
    if not at_limit:
        assert _form(a.mul_shift(b, k)) == _form((a * b).shift(k))


def test_equal_values_in_different_forms_compare_equal():
    # 1/(1-s^4) = (1+s^4)/(1-s^8), 2/2 = 1 and s^-3/(1-s^4) =
    # (s^-3-s^5)/((1-s^4)(1-s^8)): across denominators, iden and valuations
    a = ScalarQ({0: 1}, ((4, 1),))
    b = ScalarQ({0: 1, 4: 1}, ((8, 1),))
    assert a == b and b == a and not a == b.shift(1)
    assert ScalarQ({0: 2}, (), 2) == ScalarQ({0: 1})
    assert ScalarQ({-3: 2}, ((4, 1),), 2) == ScalarQ({-3: 1, 5: -1}, ((4, 1), (8, 1)))
    assert ScalarQ({}, ((4, 1),)) == ScalarQ.zero() != ONE


def test_num_reads_and_writes_the_dict_layout():
    c = ScalarQ({-3: 2, 0: -1, 5: 7}, ((4, 1),), 3)
    assert c.num == {-3: 2, 0: -1, 5: 7}
    c.num = {2: -1, 9: 4, 4: 0}
    assert _form(c) == ({2: -1, 9: 4}, ((4, 1),), 3)
    assert c == ScalarQ({2: -1, 9: 4}, ((4, 1),), 3)
    c.num = {}
    assert c.is_zero() and c.num == {}


LIMIT = 1 << 61


@pytest.mark.parametrize("num", [{0: LIMIT}, {0: LIMIT // 2, 5: -(LIMIT // 2)},
                                 {-7: -LIMIT - 1}])
def test_constructor_refuses_a_numerator_at_the_limit(num):
    with pytest.raises(OverflowError):
        ScalarQ(num)
    ScalarQ({k: v // 2 - 1 for k, v in num.items()})


def test_products_and_sums_refuse_to_reach_the_limit():
    # exact norms whose product or sum reaches 2^61: the operation raises
    # and never wraps a digit into the next
    a, b = ScalarQ({0: 1 << 30}), ScalarQ({1: 1 << 31})
    with pytest.raises(OverflowError):
        a * b
    with pytest.raises(OverflowError):
        ScalarQ.s_pow(3, LIMIT)
    half = ScalarQ({0: 1 << 60}, ((4, 1),))
    with pytest.raises(OverflowError):
        half + ScalarQ({3: 1 << 60}, ((4, 1),))
    # across denominators the numerators first gain the missing factors
    other = ScalarQ({0: 1}, ((8, 1),))
    with pytest.raises(OverflowError):
        half + other
    with pytest.raises(OverflowError):
        half == other
    # just below the limit everything is exact
    below = ScalarQ({0: (1 << 60) - 1}, ((4, 1),))
    got = below + ScalarQ({3: 1 - (1 << 60)}, ((4, 1),))
    assert got.num == {0: (1 << 60) - 1, 3: 1 - (1 << 60)}
    assert _form(ScalarQ({0: (1 << 30) - 1}) * ScalarQ({1: 1 << 31})) == \
        ({1: ((1 << 30) - 1) << 31}, (), 1)


def test_a_loose_bound_is_tightened_before_it_raises():
    # bounds far above the exact norms, as long chains of sums leave them:
    # the operations tighten them to the exact norms and stay exact
    a, b = ScalarQ({-2: 3, 5: -1}, ((4, 1),)), ScalarQ({1: 5}, ((8, 1),))
    ra, rb = ref.ScalarQ(a.num, a.den), ref.ScalarQ(b.num, b.den)
    for x in (a, b):
        x._l = LIMIT - 1
    assert _form(a * b) == _form(ra * rb)
    assert (a._l, b._l) == (4, 5)
    for x in (a, b):
        x._l = LIMIT - 1
    assert _form(a + b) == _form(ra + rb)
    assert _form(a + a) == _form(ra + ra)
    a._l = LIMIT - 1
    assert (a == b) is False and a == ScalarQ(a.num, a.den)
