from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import qrefl.catalog as C
from qrefl.compose import hom_from_table
from qrefl.params import ParamForm
from qrefl.qtorus import QuantumTorus
from qrefl.quivers import builtin
from qrefl.qweyl import (AffineCanonMap, NonUnimodular, SPEC_A2, SPEC_B2,
                         SPEC_C2, SPEC_C3, SpecMismatch, SubstHom, WeylMonomial,
                         build_subst_hom, diagram_commutes)
from qrefl.scalars import ONE, ScalarQ

from monomial_reference import coefficients, exponents, reference_apply


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


SUBST_CASES = [
    ("B(A2)", SPEC_A2, C.PHI_A2), ("B'(A2)", SPEC_A2, C.PHIP_A2),
    ("B'(A2)", SPEC_A2, C.PHIBAR_A2), ("B(A2)", SPEC_A2, C.PHIBARP_A2),
    ("B(C2)", SPEC_C2, C.PHI_C2), ("B'(C2)", SPEC_C2, C.PHIP_C2),
    ("B(C3)", SPEC_C3, C.PHI_C3),
    ("B_FG(C2)", SPEC_C2, C.PHI_FG_C2), ("B'_FG(C2)", SPEC_C2, C.PHIP_FG_C2),
    ("B_FG(B2)", SPEC_B2, C.PSI_FG_B2), ("B'_FG(B2)", SPEC_B2, C.PSIP_FG_B2),
    ("B_FG(A2)", SPEC_A2, C.PHI_FG_A2), ("B'_FG(A2)", SPEC_A2, C.PHIP_FG_A2),
]


def test_subst_homs_respect_commutation():
    for name, spec, table in SUBST_CASES:
        hom = build_subst_hom(QuantumTorus(builtin(name)), spec, table)
        assert hom.respects_commutation(), name


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_subst_homs_send_coefficients_through(data):
    # on every catalog table, applying the map equals the long way: the
    # ordering twist times the ordered product of the image powers
    for name, spec, table in SUBST_CASES:
        torus = QuantumTorus(builtin(name))
        hom = build_subst_hom(torus, spec, table)
        alpha, coeff = data.draw(exponents(torus.n())), data.draw(coefficients())
        zero = (0,) * (2 * spec.p)
        want = reference_apply(torus, hom.images,
                               lambda c: WeylMonomial(spec, c, ParamForm(), zero),
                               coeff, alpha)
        assert hom.apply(torus.element(coeff, alpha)) == want, name


def test_table_maps_refuse_images_that_do_not_pass_coefficients():
    fg, big = builtin("B_FG(C2)"), builtin("B(C2)")
    assert hom_from_table(fg, big, C.ALPHA_C2).respects_commutation()
    s_exp, powers = C.ALPHA_C2[2]
    with pytest.raises(ValueError, match="coefficient"):
        hom_from_table(fg, big, {**C.ALPHA_C2, 2: (s_exp + 1, powers)})
    with pytest.raises(ValueError, match="q-commute"):
        hom_from_table(fg, big, {**C.ALPHA_C2, 1: (0, ((1, -1),))})
    torus = QuantumTorus(big)
    pexp, cexp = C.PHI_C2[2]
    with pytest.raises(NonUnimodular):
        build_subst_hom(torus, SPEC_C2, {**C.PHI_C2, 2: (pexp, {"u2": 3})})
    images = build_subst_hom(torus, SPEC_C2, C.PHI_C2).images
    m = images[2]
    with pytest.raises(NonUnimodular):
        SubstHom(torus, SPEC_C2, {**images, 2: WeylMonomial(
            SPEC_C2, ScalarQ.q_pow(1), m.pexp, m.cexp)})


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
    assert WeylSeries.one(SPEC_C2, g, 2, ("a1", "b2")).constant_is_one()
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


# -- the flat series layout ------------------------------------------------

_PEXP_POOL = (ParamForm(), ParamForm({"a1": 1}), ParamForm({"a1": -1, "a2": 1}),
              ParamForm({"b3": 2}))
_SIGNED = (ONE, -ONE, ScalarQ.s_pow(1), -ScalarQ.s_pow(1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nested_terms_view_returns_what_add_term_put_in(data):
    # the same add_terms, with sums that cancel, give the nested
    # reference's terms: cexp -> {pexp.key(): (pexp, coefficient)}
    from qrefl.qweyl import WeylSeries
    import weyl_reference
    cexps = st.lists(st.integers(-1, 1), min_size=8, max_size=8).map(tuple)
    pool = data.draw(st.lists(st.tuples(cexps, st.sampled_from(_PEXP_POOL)),
                              min_size=1, max_size=3))
    flat = WeylSeries(SPEC_C2, (1,) * 8, 3)
    nested = weyl_reference.WeylSeries(SPEC_C2, (1,) * 8, 3)
    for _ in range(data.draw(st.integers(0, 10))):
        (cexp, p), c = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(_SIGNED))
        flat.add_term(cexp, p, c)
        nested.add_term(cexp, p, c)
    form = lambda terms: {(cexp, k): (p, c.num, c.den, c.iden)
                          for cexp, b in terms.items() for k, (p, c) in b.items()}
    assert form(flat.terms) == form(nested.terms)
    assert all(k == p.key() for b in flat.terms.values() for k, (p, _) in b.items())
    assert len(flat) == len(nested)


def test_series_over_different_symbol_sets_compare_on_one_basis():
    from qrefl.qweyl import WeylSeries
    x = SPEC_C2.vec({"u1": 1})
    a, b = WeylSeries(SPEC_C2, (1,) * 8, 2), WeylSeries(SPEC_C2, (1,) * 8, 2)
    a.add_term(x, ParamForm({"a1": 1}), ONE)
    b.add_term(x, ParamForm({"a2": 1}), ONE)
    b.add_term(x, ParamForm({"a2": 1}), -ONE)
    b.add_term(x, ParamForm({"a1": 1}), ONE)
    assert (a.symbols, b.symbols) == (("a1",), ("a1", "a2"))
    assert a.equal_on(b) and b.equal_on(a)
    b.add_term(x, ParamForm({"a2": -1}), ScalarQ.s_pow(1))
    assert b.first_difference(a) == (x, ParamForm({"a2": -1}), ScalarQ.s_pow(1),
                                     ScalarQ.zero())


@pytest.mark.parametrize("bad", [ParamForm({"a1": Fraction(1, 2)}),
                                 ParamForm({"a1": 1}, 1), ParamForm({}, -2)])
def test_series_refuse_a_parameter_form_with_a_denominator_or_a_constant(bad):
    # such a form has no integer coordinates; it is refused, not truncated
    from qrefl.qweyl import WeylSeries, expand_weyl_product
    x, g = SPEC_C2.vec({"u1": 1}), (1,) * 8
    with pytest.raises(ValueError):
        WeylSeries(SPEC_C2, g, 2).add_term(x, bad, ONE)
    facs = [(1, 1, WeylMonomial(SPEC_C2, ONE, ParamForm({"a1": 1}), x)),
            (1, -1, WeylMonomial(SPEC_C2, ONE, bad, x))]
    with pytest.raises(ValueError):
        expand_weyl_product(facs, SPEC_C2, g, 2)
