from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qrefl.catalog as C
from qrefl.cluster import ExchangeSeed
from qrefl.compose import CompositeState, FactorSpec, hom_from_table
from qrefl.qtorus import (Infeasible, NonpositiveGrading, QuantumTorus,
                          TorusSeries, expand_product,
                          quantum_mutate, recession_cone_trivial_fm,
                          series_inverse, series_mul, staged_certificate,
                          stiemke_grading, tau_step)
from qrefl.quivers import builtin
from qrefl.scalars import ONE, ScalarQ


def two_vertex_seed():
    return ExchangeSeed((1, 2), {1: {2: Fraction(1)}, 2: {1: Fraction(-1)}},
                        {1: 1, 2: 1})


def test_torus_mul_examples():
    torus = QuantumTorus(builtin("B(C2)"))
    y1, y2 = torus.gen(1), torus.gen(2)
    lhs = y1 * y2
    rhs = y2 * y1
    # bhat_12 = 2, so Y1 Y2 = q^4 Y2 Y1
    assert lhs.coeff == rhs.coeff * ScalarQ.q_pow(4)
    x = torus.monomial(3, ((1, 2), (7, -1)))
    assert (torus.one() * x) == x


def test_center_elements_commute():
    torus = QuantumTorus(builtin("B(C2)"))
    for powers in C.C2_CENTER:
        z = torus.monomial(0, powers)
        for l in torus.labels:
            assert z.commutes_with(torus.gen(l))


def test_tau_step_images():
    seed = builtin("B(A2)")
    t = tau_step(seed, 6, 1)
    assert t.images[6] == t.target.gen(6, -1)
    assert t.respects_commutation(
        __import__("qrefl.cluster", fromlist=["mutate_matrix"]).mutate_matrix(seed, 6))


def test_tau_catalog_and_inverse_property():
    BA2, BpA2 = builtin("B(A2)"), builtin("B'(A2)")
    for key in ("+", "-"):
        st1 = CompositeState(BA2)
        st1.apply_factor(FactorSpec("R", (1, 2, 3), (6, 5, 7, 2),
                                    ((5, 7), (2, 6))), delta=1 if key == "+" else -1)
        assert st1.hom == hom_from_table(st1.seed, BA2, C.TAU_R[key])
        st2 = CompositeState(BpA2)
        st2.apply_factor(FactorSpec("Rbar", (1, 2, 3), (6, 5, 7, 2),
                                    ((5, 7), (2, 6))), delta=1 if key == "+" else -1)
        # tau o taubar is the identity homomorphism
        comp = st1.hom.compose(st2.hom)
        ident = hom_from_table(BA2, BA2, {})
        assert comp == ident


def test_tauK_catalog_and_eps_independence():
    BC2 = builtin("B(C2)")
    homs = []
    for pair in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        s = CompositeState(BC2)
        s.apply_factor(FactorSpec("K", (1, 2, 3, 4), (8, 3, 9, 2, 7, 4, 9, 2, 8, 3)),
                       kpair=pair)
        homs.append(s.hom)
        assert s.hom == hom_from_table(s.seed, BC2, C.TAU_K24)
    assert all(h == homs[0] for h in homs)


def test_dilog_factor_lists_match_catalog():
    BC2 = builtin("B(C2)")
    T = QuantumTorus(BC2)
    s = CompositeState(BC2)
    s.apply_factor(FactorSpec("K", (1, 2, 3, 4), (8, 3, 9, 2, 7, 4, 9, 2, 8, 3)),
                   kpair=(-1, 1))
    want = [(b, T.monomial(sx, pw), e) for b, e, sx, pw in C.K24_TORUS[(-1, 1)]]
    assert [(b, a, e) for b, a, e in s.dilogs] == want
    # first factor argument is the plain generator of the first step
    assert s.dilogs[0][1].alpha == tuple(
        -1 if l == 8 else 0 for l in T.labels)


def test_dilog_series_coefficients():
    torus = QuantumTorus(two_vertex_seed())
    u = torus.gen(1)
    plus = expand_product([(1, u, 1)], (1, 0), 3)
    minus = expand_product([(1, u, -1)], (1, 0), 3)
    e1 = torus.unit(1)
    # n = 1 coefficients: -q/(1-q^2) and q/(1-q^2)
    assert plus.terms[e1] == ScalarQ.qpoch_inv(1, 1, {2: -1})
    assert minus.terms[e1] == ScalarQ.qpoch_inv(1, 1, {2: 1})
    assert plus.constant_term() == ONE
    with pytest.raises(NonpositiveGrading):
        expand_product([(1, u.inverse(), 1)], (1, 0), 3)


def test_dilog_recurrence_product():
    torus = QuantumTorus(two_vertex_seed())
    u = torus.gen(1)
    qu = torus.element(ScalarQ.q_pow(2), torus.unit(1))
    for cutoff in (1, 2, 3, 5):
        s = expand_product([(1, qu, 1), (1, u, -1)], (1, 0), cutoff)
        assert set(s.terms) == {(0, 0), (1, 0)}
        assert s.terms[(0, 0)] == ONE
        assert s.terms[(1, 0)] == ScalarQ.q_pow(1)


def test_expand_product_associativity_and_empty():
    torus = QuantumTorus(two_vertex_seed())
    g = (1, 1)
    import random
    rng = random.Random(7)
    for _ in range(6):
        facs = [(rng.choice((1, 2)), torus.gen(rng.choice((1, 2))),
                 rng.choice((1, -1))) for _ in range(3)]
        s_all = expand_product(facs, g, 4)
        left = expand_product(facs[:2], g, 4)
        right = expand_product(facs[2:], g, 4)
        assert series_mul(left, right) == s_all
        head = expand_product(facs[:1], g, 4)
        tail = expand_product(facs[1:], g, 4)
        assert series_mul(head, tail) == s_all
    one = expand_product([], g, 4, torus=torus)
    assert one.constant_term() == ONE and len(one.terms) == 1


def test_dilog_factors_function():
    from qrefl.compose import dilog_factors
    from qrefl.quivers import builtin
    from qrefl.catalog import eps_k24, K24_TORUS
    seed = builtin("B(C2)")
    ms = builtin("K-seq")
    facs, hom = dilog_factors(seed, ms, eps_k24(1, 1))
    T = QuantumTorus(seed)
    want = [(b, T.monomial(s, pw), e) for b, e, s, pw in K24_TORUS[(1, 1)]]
    assert [(b, a, e) for b, a, e in facs] == want
    # the first argument is always the generator of the first step
    assert facs[0][1].alpha == tuple(
        (-1 if l == ms.steps[0] else 0) for l in T.labels)
    with pytest.raises(ValueError):
        dilog_factors(seed, ms, (1, 1))


def test_quantum_mutate_decomposition_two_vertex():
    seed = two_vertex_seed()
    torus = QuantumTorus(seed)
    g, N = (1, 1), 4
    ys = {}
    for l in (1, 2):
        s = TorusSeries(torus, g, N)
        s.add_term(torus.unit(l), ONE)
        ys[l] = s
    new_seed, mutated = quantum_mutate(seed, ys, 1, g, N)
    # both decomposition branches agree with the direct rational formula
    for eps in (1, -1):
        tau = tau_step(seed, 1, eps)
        for i in (1, 2):
            mono = tau.apply(tau.source.gen(i))
            # conjugation by the dilogarithm of Y_1^eps: the argument
            # commutes past the monomial with q^(2p)
            pair = torus.pairing(tuple(eps if l == 1 else 0 for l in (1, 2)),
                                 mono.alpha)
            p = int(pair)
            acc = TorusSeries(torus, g, N)
            acc.add_term(mono.alpha, mono.coeff)
            u = torus.gen(1, eps)
            # conjugating by Psi(U)^eps multiplies by the telescoped
            # product R(p, U)^eps with R = prod (1 + q^(2j-1) U)^sgn(p)
            invert = (eps > 0) != (p > 0)
            for j in range(1, abs(p) + 1):
                q_odd = ScalarQ.q_pow(2 * j - 1) if p > 0 else \
                    ScalarQ.q_pow(-(2 * j - 1))
                fac = TorusSeries.one(torus, g, N)
                fac.add_term(u.alpha, u.coeff * q_odd)
                acc = series_mul(acc, series_inverse(fac) if invert else fac)
            assert acc == mutated[i], (eps, i)


def test_series_inverse_small_grade():
    # Y1 has grade 1/8, so the inverse needs the tail's powers up to the
    # eighth within cutoff 1
    torus = QuantumTorus(two_vertex_seed())
    g = (Fraction(1, 8), Fraction(1))
    a = TorusSeries.one(torus, g, 1)
    a.add_term(torus.unit(1), ONE)
    assert series_mul(a, series_inverse(a)) == TorusSeries.one(torus, g, 1)


def test_quantum_mutate_involution():
    # exact on the two-vertex seed; on larger seeds with mixed-sign
    # gradings the truncation is not an ideal, so the round trip is only
    # checked through the tropical-sign decomposition (see verify tests)
    seed = two_vertex_seed()
    torus = QuantumTorus(seed)
    g, N = (1, 1), 4
    ys = {}
    for l in (1, 2):
        s = TorusSeries(torus, g, N)
        s.add_term(torus.unit(l), ONE)
        ys[l] = s
    s1, y1 = quantum_mutate(seed, ys, 1, g, N)
    s2, y2 = quantum_mutate(s1, y1, 1, g, N)
    assert s2 == seed
    assert all(y2[l] == ys[l] for l in (1, 2))
    assert list(y1[1].terms) == [(-1, 0)]


def test_stiemke_examples():
    g = stiemke_grading([(1, 0), (0, 1)])
    assert g[0] >= 1 and g[1] >= 1
    with pytest.raises(Infeasible):
        stiemke_grading([(1, 0), (-1, 0)])
    assert recession_cone_trivial_fm([(1, 0), (0, 1)])
    assert not recession_cone_trivial_fm([(1, 0), (-1, 0)])
    assert staged_certificate([(1, 0), (-1, 0)]) is None


@settings(max_examples=40, deadline=None)
# without row reduction, one Fourier-Motzkin step on this input builds
# over 25 million rows
@example([(1, -1, -1), (-1, -2, 2), (0, -1, 1), (1, 0, -1), (-2, -2, -2)])
@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)),
                min_size=1, max_size=5))
def test_grading_oracles_agree(vectors):
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return
    try:
        stiemke_grading(vectors)
        feasible = True
    except Infeasible:
        feasible = False
    assert recession_cone_trivial_fm(vectors) == feasible
    greedy = staged_certificate(vectors)
    if greedy is not None:
        assert feasible
