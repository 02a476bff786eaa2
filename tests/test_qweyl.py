from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qrefl.catalog as C
from qrefl.params import ParamForm
from qrefl.qtorus import QuantumTorus
from qrefl.quivers import builtin
from qrefl.qweyl import (AffineCanonMap, NonUnimodular, SPEC_A2, SPEC_B2,
                         SPEC_C2, SPEC_C3, SpecMismatch, WeylMonomial,
                         build_subst_hom, diagram_commutes)
from qrefl.scalars import ONE, ScalarQ


def test_weyl_mul_examples():
    e_u2 = WeylMonomial.from_dicts(SPEC_C2, {}, {"u2": 1})
    e_w2 = WeylMonomial.from_dicts(SPEC_C2, {}, {"w2": 1})
    prod = e_u2 * e_w2
    # gamma_2 = 2: symmetric form picks up q^(2/2 * 2) = q
    assert prod.coeff == ScalarQ.q_pow(1)
    assert prod.cexp == SPEC_C2.vec({"u2": 1, "w2": 1})
    # commuting generators carry no scalar
    e_u1 = WeylMonomial.from_dicts(SPEC_C2, {}, {"u1": 1})
    assert (e_u1 * e_u2).coeff == ONE
    with pytest.raises(SpecMismatch):
        e_u1 * WeylMonomial.from_dicts(SPEC_A2, {}, {"u1": 1})
    # q-Weyl pair: e^{u2} e^{w2} = q^2 e^{w2} e^{u2}
    assert (e_u2 * e_w2).coeff == (e_w2 * e_u2).coeff * ScalarQ.q_pow(2)


def test_subst_hom_examples():
    big = QuantumTorus(builtin("B(A2)"))
    phi = build_subst_hom(big, SPEC_A2, C.PHI_A2)
    img = phi.images[5]
    assert img.pexp == ParamForm({"e1": 1})
    assert img.cexp == SPEC_A2.vec({"u1": 2})
    c3 = QuantumTorus(builtin("B(C3)"))
    phi9 = build_subst_hom(c3, SPEC_C3, C.PHI_C3)
    img22 = phi9.images[22]
    assert img22.pexp == ParamForm({"c1": 1, "c4": 1, "c7": 1})
    assert img22.cexp == SPEC_C3.vec({"w1": 1, "w4": 1, "w7": 1})
    assert phi9.apply(c3.one()) == WeylMonomial(SPEC_C3, ONE, ParamForm(),
                                                (0,) * 18)


def test_subst_homs_respect_commutation():
    cases = [
        ("B(A2)", SPEC_A2, C.PHI_A2), ("B'(A2)", SPEC_A2, C.PHIP_A2),
        ("B'(A2)", SPEC_A2, C.PHIBAR_A2), ("B(A2)", SPEC_A2, C.PHIBARP_A2),
        ("B(C2)", SPEC_C2, C.PHI_C2), ("B'(C2)", SPEC_C2, C.PHIP_C2),
        ("B(C3)", SPEC_C3, C.PHI_C3),
        ("B_FG(C2)", SPEC_C2, C.PHI_FG_C2), ("B'_FG(C2)", SPEC_C2, C.PHIP_FG_C2),
        ("B_FG(B2)", SPEC_B2, C.PSI_FG_B2), ("B'_FG(B2)", SPEC_B2, C.PSIP_FG_B2),
        ("B_FG(A2)", SPEC_A2, C.PHI_FG_A2), ("B'_FG(A2)", SPEC_A2, C.PHIP_FG_A2),
    ]
    for name, spec, table in cases:
        seed = builtin(name)
        hom = build_subst_hom(QuantumTorus(seed), spec, table)
        assert hom.respects_commutation(seed), name


def test_weyl_commutator_of_images():
    big = QuantumTorus(builtin("B(C2)"))
    phi = build_subst_hom(big, SPEC_C2, C.PHI_C2)
    a = phi.images[2] * phi.images[1]
    b = phi.images[1] * phi.images[2]
    # bhat_21 = -2 so the images q-commute with q^-4
    assert a.cexp == b.cexp and a.coeff == b.coeff * ScalarQ.q_pow(-4)


def test_affine_catalog_preserves_commutators():
    for spec, table in [
            (SPEC_A2, C.ETA_R["+"]), (SPEC_A2, C.ETA_R["-"]),
            (SPEC_A2, C.ETA_RBAR["+"]), (SPEC_A2, C.ETA_RBAR["-"]),
            (SPEC_C2, C.ETA_K24), (SPEC_C2, C.ETA_K13),
            (SPEC_C2, C.PIK_C2), (SPEC_B2, C.PIK_B2),
            (SPEC_A2, C.PI_PLUS), (SPEC_A2, C.PI_MINUS)]:
        m = AffineCanonMap.from_table(spec, table)
        assert m.preserves_commutators()


def test_affine_rows_match_spot_values():
    eta = AffineCanonMap.from_table(SPEC_A2, C.ETA_R["+"])
    r = eta.lin[SPEC_A2.index("u1")]
    assert r == tuple([1, 1, -1, 0, 0, 0])
    assert eta.shift[SPEC_A2.index("u1")] == ParamForm(
        {"e2": Fraction(1, 2), "e3": Fraction(-1, 2)})
    assert eta.shift[SPEC_A2.index("w2")] == ParamForm(
        {"c1": 1, "c2": -1, "c3": 1})
    ek = AffineCanonMap.from_table(SPEC_C2, C.ETA_K24)
    h = Fraction(1, 2)
    assert ek.shift[SPEC_C2.index("u2")] == ParamForm(
        {"b2": h, "b4": -h, "c1": -1, "c2": 1, "c4": -1, "d2": h, "d4": -h})
    assert ek.lin[SPEC_C2.index("u2")] == tuple([0, 0, 0, 1, 0, 0, 0, 0])


def test_affine_compose_and_identity():
    eta = AffineCanonMap.from_table(SPEC_A2, C.ETA_R["+"])
    ident = AffineCanonMap.identity(SPEC_A2)
    assert ident.compose(eta) == eta
    assert eta.compose(ident) == eta
    m = WeylMonomial.from_dicts(SPEC_A2, {"a1": 1}, {"u1": 1, "w3": -2})
    assert ident.apply(m) == m
    with pytest.raises(NonUnimodular):
        AffineCanonMap(SPEC_A2, [[2 if i == j else 0 for j in range(6)]
                                 for i in range(6)],
                       [ParamForm() for _ in range(6)])


def test_diagram_commutes_identity():
    big = QuantumTorus(builtin("B(A2)"))
    phi = build_subst_hom(big, SPEC_A2, C.PHI_A2)
    from qrefl.compose import hom_from_table
    ident_tau = hom_from_table(builtin("B(A2)"), builtin("B(A2)"), {})
    ok, wit = diagram_commutes(phi, phi, ident_tau,
                               AffineCanonMap.identity(SPEC_A2))
    assert ok and wit is None


def affine_apply_series(eta, series):
    """Image of a truncated canonical-variable series under an affine map,
    term by term."""
    from qrefl.qweyl import WeylSeries
    out = WeylSeries(series.spec, series.grading, series.cutoff)
    for cexp, bucket in series.terms.items():
        for pexp, coeff in bucket.values():
            m = eta.apply(WeylMonomial(series.spec, coeff, pexp, cexp))
            if out.keeps(m.cexp):
                out.add_term(m.cexp, m.pexp, m.coeff)
    return out


def test_subst_and_affine_series_application():
    from qrefl.qtorus import TorusSeries
    big = QuantumTorus(builtin("B(A2)"))
    phi = build_subst_hom(big, SPEC_A2, C.PHI_A2)
    g = tuple(1 for _ in big.labels)
    s = TorusSeries(big, g, 2)
    s.add_term(big.unit(5), ONE)
    s.add_term(big.unit(2), ScalarQ.q_pow(1))
    gw = (1,) * 6
    out = phi.apply_series(s, gw, 4)
    assert out.gdeg(SPEC_A2.vec({"u1": 2})) == 2
    assert len(out) == 2
    eta = AffineCanonMap.from_table(SPEC_A2, C.ETA_R["+"])
    moved = affine_apply_series(eta, out)
    assert len(moved) == 2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([SPEC_C3, SPEC_B2]), st.data())
def test_weyl_products_match_omega_sums(spec, data):
    p = spec.p
    vec = st.lists(st.integers(-3, 3), min_size=2 * p, max_size=2 * p)
    x, y = data.draw(vec), data.draw(vec)
    want = sum(g * (x[i] * y[p + i] - x[p + i] * y[i])
               for i, g in enumerate(spec.gamma))
    prod = WeylMonomial(spec, ONE, ParamForm(), tuple(x)) * \
        WeylMonomial(spec, ONE, ParamForm(), tuple(y))
    assert prod.coeff == ScalarQ.q_pow(Fraction(want, 2))
    assert prod.cexp == tuple(a + b for a, b in zip(x, y))
    assert spec.omega(x, y) == want


def test_constant_is_one_reads_the_parameter_exponent():
    from qrefl.qweyl import WeylSeries
    g = (1,) * 8
    assert WeylSeries.one(SPEC_C2, g, 2).constant_is_one()
    zero = (0,) * 8
    # a lone e^{a1} at the zero exponent is not the constant term 1
    lone = WeylSeries(SPEC_C2, g, 2)
    lone.add_term(zero, ParamForm({"a1": 1}), ONE)
    assert not lone.constant_is_one()
    both = WeylSeries.one(SPEC_C2, g, 2)
    both.add_term(zero, ParamForm({"a1": 1}), ONE)
    assert not both.constant_is_one()
    two = WeylSeries(SPEC_C2, g, 2)
    two.add_term(zero, ParamForm(), ScalarQ.s_pow(0, 2))
    assert not two.constant_is_one()
    assert not WeylSeries(SPEC_C2, g, 2).constant_is_one()
