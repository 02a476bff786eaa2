"""Triangular group: bracket oracle, group laws, adjoint realizations.

The bracket is cross-checked against an independent normal-ordering
oracle: polynomials in the canonical generators with hbar-graded
commutation pushed to u-before-w normal form.
"""

from fractions import Fraction

import pytest

import qrefl.catalog as C
from qrefl.cluster import Perm
from qrefl.nilgroup import (NilGroupElement, NilLieElement, OrderViolation,
                            TriangularOrder, adjoint, bch_mul, bracket,
                            group_equal)
from qrefl.operators import tail
from qrefl.params import ParamForm, ParamQuad
from qrefl.qweyl import SPEC_A2, SPEC_C2, SPEC_C3, AffineCanonMap

UP = TriangularOrder(({1}, {2, 3}))
DOWN = TriangularOrder(({3}, {1, 2}))
# the C2 orders housing the 2-4 and the 1-3 movers
ORDER_C2_TOP = tail("K-rho24-+").order
ORDER_C2_BOT = tail("K-rho13-+").order


# -- independent oracle -----------------------------------------------------
# polynomial = {(u_multidegree, w_multidegree, hbar_power): coefficient}

def _mono_mul(spec, m1, c1, m2, c2, out):
    u1, w1, h1 = m1
    u2, w2, h2 = m2
    # move each w_i of m1 across u_i^n of m2:
    # w u^n = u^n w - n hbar gamma u^(n-1)
    stack = [(w1, (0,) * spec.p, u2, 0, Fraction(c1) * Fraction(c2))]
    while stack:
        w_rem, w_done, u_right, extra_h, coeff = stack.pop()
        pick = next((i for i in range(spec.p)
                     if w_rem[i] and u_right[i]), None)
        if pick is None:
            key = (tuple(a + b for a, b in zip(u1, u_right)),
                   tuple(a + b + c for a, b, c in zip(w_rem, w_done, w2)),
                   h1 + h2 + extra_h)
            out[key] = out.get(key, Fraction(0)) + coeff
            continue
        i, n = pick, u_right[pick]
        w_minus = tuple(w_rem[j] - (1 if j == i else 0) for j in range(spec.p))
        stack.append((w_minus,
                      tuple(w_done[j] + (1 if j == i else 0)
                            for j in range(spec.p)),
                      u_right, extra_h, coeff))
        stack.append((w_minus, w_done,
                      tuple(u_right[j] - (1 if j == i else 0)
                            for j in range(spec.p)),
                      extra_h + 1, -coeff * n * spec.gamma[i]))


def _poly_mul(spec, p1, p2):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            _mono_mul(spec, m1, c1, m2, c2, out)
    return {k: v for k, v in out.items() if v}


def _commutator(spec, p1, p2):
    a = _poly_mul(spec, p1, p2)
    b = _poly_mul(spec, p2, p1)
    for k, v in b.items():
        a[k] = a.get(k, Fraction(0)) - v
    return {k: v for k, v in a.items() if v}


def _as_poly(spec, x: NilLieElement, symbol_values):
    """Lie element -> polynomial, with hbar-grading shifted by -1."""
    out = {}
    z = (0,) * spec.p
    for (i, j), v in x.quad.items():
        u = tuple(1 if t == i - 1 else 0 for t in range(spec.p))
        w = tuple(1 if t == j - 1 else 0 for t in range(spec.p))
        out[(u, w, -1)] = out.get((u, w, -1), Fraction(0)) + v
    for axis, pf in x.lin.items():
        val = pf.const + sum(pf.coeff(s) * symbol_values.get(s, Fraction(0))
                             for s in pf.terms)
        idx = int(axis[1:]) - 1
        if axis[0] == "u":
            key = (tuple(1 if t == idx else 0 for t in range(spec.p)), z, -1)
        else:
            key = (z, tuple(1 if t == idx else 0 for t in range(spec.p)), -1)
        out[key] = out.get(key, Fraction(0)) + val
    cen = x.central
    cval = cen.const + sum(v * symbol_values.get(k, Fraction(0))
                           for k, v in cen.lin.items())
    for (s1, s2), v in cen.quad.items():
        cval += v * symbol_values.get(s1, Fraction(0)) * \
            symbol_values.get(s2, Fraction(0))
    if cval:
        out[(z, z, -1)] = out.get((z, z, -1), Fraction(0)) + cval
    return {k: v for k, v in out.items() if v}


def _numeric(spec, x: NilLieElement, vals):
    return _as_poly(spec, x, vals)


VALS = {"a1": Fraction(2), "b1": Fraction(-1), "c2": Fraction(3),
        "th1": Fraction(5), "e2": Fraction(7)}


def lie(spec, order, quad=None, lin=None, central=None):
    return NilLieElement(spec, order,
                         quad or {},
                         {k: ParamForm(v) for k, v in (lin or {}).items()},
                         central)


def test_bracket_matches_normal_ordering_oracle():
    spec, order = SPEC_C2, ORDER_C2_TOP
    xs = [lie(spec, order, quad={(2, 1): 1}),
          lie(spec, order, quad={(4, 1): -2}),
          lie(spec, order, lin={"u1": {"a1": 1}, "w2": {"b1": 2}}),
          lie(spec, order, lin={"w1": {"c2": 1}, "u4": {"th1": 1}})]
    for x in xs:
        for y in xs:
            got = bracket(x, y)
            want = _commutator(spec, _numeric(spec, x, VALS),
                               _numeric(spec, y, VALS))
            assert _numeric(spec, got, VALS) == want


def test_bracket_examples():
    spec, order = SPEC_C2, ORDER_C2_TOP
    # [a u_2, b w_2] -> central a b gamma_2
    x = lie(spec, order, lin={"u2": {"a1": 1}})
    y = lie(spec, order, lin={"w2": {"b1": 1}})
    z = bracket(x, y)
    assert not z.quad and not z.lin
    assert z.central == ParamQuad({("a1", "b1"): 2})
    # [u_2 w_1, c u_1] -> -c gamma_1 u_2 (normal-ordering oracle sign)
    x = lie(spec, order, quad={(2, 1): 1})
    y = lie(spec, order, lin={"u1": {"c2": 1}})
    z = bracket(x, y)
    assert z.lin == {"u2": ParamForm({"c2": -1})}
    # [u_3 w_2, u_2 w_1] with 3 > 2 > 1 -> -gamma_2 u_3 w_1
    o = TriangularOrder(({1}, {2}, {3}))
    s3 = SPEC_A2
    z = bracket(lie(s3, o, quad={(3, 2): 1}), lie(s3, o, quad={(2, 1): 1}))
    assert z.quad == {(3, 1): Fraction(-1)}


def test_bracket_antisymmetry_and_jacobi():
    spec, order = SPEC_C2, ORDER_C2_TOP
    xs = [lie(spec, order, quad={(2, 1): 1}, lin={"u3": {"a1": 1}}),
          lie(spec, order, quad={(4, 1): 1}, lin={"w4": {"b1": 1}}),
          lie(spec, order, lin={"u1": {"c2": 2}, "w2": {"th1": 1}})]
    for x in xs:
        for y in xs:
            assert _numeric(spec, bracket(x, y) + bracket(y, x), VALS) == {}
    x, y, z = xs
    jac = bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + \
        bracket(z, bracket(x, y))
    assert _numeric(spec, jac, VALS) == {}


def test_group_laws_and_inverse():
    order = ORDER_C2_TOP
    P24 = NilGroupElement.from_factors(SPEC_C2, order, C.P_K24[0],
                                       rho_pair=C.P_K24[1])
    ident = NilGroupElement.identity(SPEC_C2, order)
    assert bch_mul(P24, P24.inverse()) == ident
    assert bch_mul(P24.inverse(), P24) == ident
    # exp(X) exp(X) == exp(2X) for a mixed exponent
    x = NilLieElement(SPEC_C2, order, {(2, 1): 1},
                      {"u2": ParamForm({"a1": 1}), "w4": ParamForm({"b1": 2})})
    one_x = NilGroupElement.from_lie(x)
    two_x = NilGroupElement.from_lie(x.scale(2))
    assert bch_mul(one_x, one_x) == two_x
    # associativity on a mixed triple
    y = NilLieElement(SPEC_C2, order, {(4, 1): -1}, {"u1": ParamForm({"c2": 1})})
    z = NilLieElement(SPEC_C2, order, {}, {"w2": ParamForm({"th1": 1})})
    gy, gz = NilGroupElement.from_lie(y), NilGroupElement.from_lie(z)
    assert bch_mul(bch_mul(one_x, gy), gz) == bch_mul(one_x, bch_mul(gy, gz))


def test_adjoint_is_homomorphism():
    a = tail("K-rho24-+", (1, 3, 5, 6), SPEC_C3)
    b = tail("R+", (1, 2, 4), SPEC_C3)
    assert adjoint(bch_mul(a, b)) == adjoint(a).compose(adjoint(b))
    assert adjoint(NilGroupElement.identity(SPEC_C3, a.order)) == \
        AffineCanonMap.identity(SPEC_C3)


def test_adjoint_realizations_match_catalog():
    cases = [
        (SPEC_A2, UP, C.P_R["+"], C.ETA_R["+"]),
        (SPEC_A2, DOWN, C.P_R["-"], C.ETA_R["-"]),
        (SPEC_A2, UP, C.P_RBAR["-"], C.ETA_RBAR["-"]),
        (SPEC_A2, DOWN, C.P_RBAR["+"], C.ETA_RBAR["+"]),
    ]
    for spec, order, (pdata, rho), table in cases:
        P = NilGroupElement.from_factors(spec, order, pdata, rho_pair=rho)
        assert adjoint(P) == AffineCanonMap.from_table(spec, table)
    P24 = NilGroupElement.from_factors(SPEC_C2, ORDER_C2_TOP, C.P_K24[0],
                                       rho_pair=C.P_K24[1])
    assert adjoint(P24) == AffineCanonMap.from_table(SPEC_C2, C.ETA_K24)
    P13 = NilGroupElement.from_factors(SPEC_C2, ORDER_C2_BOT, C.P_K13[0],
                                       rho_pair=C.P_K13[1])
    assert adjoint(P13) == AffineCanonMap.from_table(SPEC_C2, C.ETA_K13)


def test_group_equal_witness():
    order = ORDER_C2_TOP
    g = NilGroupElement.from_factors(SPEC_C2, order, C.P_K24[0],
                                     rho_pair=C.P_K24[1])
    shifted = NilGroupElement(g.spec, g.order, g.sigma, g.q, g.l,
                              g.c + ParamQuad({}, {"a1": 1}))
    ok, wit = group_equal(g, shifted)
    assert not ok and wit[0] == "central"


def test_order_violation_is_loud():
    with pytest.raises(OrderViolation):
        NilLieElement(SPEC_C2, ORDER_C2_TOP, {(1, 2): 1})
    # relabeling by a permutation that breaks the levels must raise
    x = NilLieElement(SPEC_C2, ORDER_C2_TOP, {(2, 1): 1})
    with pytest.raises(OrderViolation):
        x.relabel(Perm({1: 3, 3: 1}))


def test_bch_termination_depth_on_big_spec():
    # iterated brackets of catalog quadratic parts vanish by depth 4
    a = tail("K-rho24-+", (2, 3, 7, 9), SPEC_C3)
    b = tail("R+", (1, 2, 4), SPEC_C3)
    q1, q2 = a.q, b.q
    depth = 0
    term = q1
    while not term.is_zero() and depth < 6:
        term = bracket(term, q2)
        depth += 1
    assert depth <= 4


def _random_element(rng, spec, order):
    syms = ["a1", "b1", "c2", "th1"]
    quad_pairs = [(2, 1), (4, 1), (3, 1)]
    quad = {p: rng.randint(-2, 2) for p in rng.sample(quad_pairs, 2)}
    lin = {}
    for ax in rng.sample(["u1", "u2", "w2", "w4", "u3"], 3):
        lin[ax] = ParamForm({rng.choice(syms): rng.randint(-2, 2)})
    x = NilLieElement(spec, order, quad, lin)
    return NilGroupElement.from_lie(x)


def test_random_group_laws_and_adjoint_homomorphism():
    import random
    rng = random.Random(11)
    spec, order = SPEC_C2, ORDER_C2_TOP
    ident = NilGroupElement.identity(spec, order)
    for _ in range(10):
        g = _random_element(rng, spec, order)
        h = _random_element(rng, spec, order)
        k = _random_element(rng, spec, order)
        assert bch_mul(g, g.inverse()) == ident
        assert bch_mul(bch_mul(g, h), k) == bch_mul(g, bch_mul(h, k))
        assert adjoint(bch_mul(g, h)) == adjoint(g).compose(adjoint(h))
