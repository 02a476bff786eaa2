import pytest

import qrefl.catalog as C
from qrefl.nilgroup import adjoint, group_equal
from qrefl.operators import (BadIndices, DivergentFactor, OperatorExpr,
                             UnknownName, build, build_FG, constraints, factors, ray,
                             reduction_diagram, rules_for, take_limit)
from qrefl.params import LinSystem, ParamForm
from qrefl.qtorus import QuantumTorus
from qrefl.qweyl import (SPEC_C2, SPEC_C3, AffineCanonMap, WeylMonomial,
                         build_subst_hom)
from qrefl.quivers import builtin
from qrefl.scalars import ONE

from printed_tables import (K13_TORUS, K24_TORUS, REDUCTION_B2_SOLUTION,
                            REDUCTION_C2_SOLUTION)


def test_constraint_ranks_and_free_count():
    full = constraints("3dre")
    assert full.rank() == 21
    assert len(full.symbols()) == 45
    assert len(full.symbols()) - full.rank() == 24
    assert LinSystem([]).rank() == 0


def test_recon2_implies_csub():
    r2 = constraints("recon2")
    for row in C.CONSTRAINTS["ksub"]:
        assert r2.implies(ParamForm(row))


def test_eliminations_match_reference_solutions():
    kc2 = constraints("k-c2")
    rules = kc2.eliminate(("a1", "a3", "c1", "c2", "c3", "d1", "d2", "d3",
                           "d4", "e1", "e2", "e3", "e4"))
    for sym, want in REDUCTION_C2_SOLUTION.items():
        assert rules[sym] == ParamForm(want), sym
    assert rules["d4"] == ParamForm({"th4": -1})
    assert rules["e1"] == ParamForm({"b1": -1, "th1": 1})
    kb2 = constraints("k-b2")
    rules13 = kb2.eliminate(("a3", "c1", "c2", "c3", "c4", "b1", "b2", "b3",
                             "b4", "e1", "e2", "e3", "e4"))
    for sym, want in REDUCTION_B2_SOLUTION.items():
        assert rules13[sym] == ParamForm(want), sym
    # single-equation solve
    one = constraints("econ-a")
    r = one.eliminate(("e1", "e2", "e3"))
    assert r["e1"] == ParamForm({"a1": -1, "b1": -1, "c1": -1, "d1": -1})


def test_build_R_examples():
    op = build("R+", (1, 2, 3))
    b, e, m = op.factors[0]
    assert (b, e) == (1, -1)
    assert m.pexp == ParamForm({"d3": -1, "c2": -1, "b1": -1})
    assert m.cexp == op.spec.vec({"u1": 1, "u3": 1, "w1": 1, "w2": -1, "w3": 1})
    with pytest.raises(BadIndices):
        build("R+", (1, 1, 2))
    with pytest.raises(BadIndices):
        build("R+", (1, 3, 6), spec=SPEC_C3)  # slot 3 has weight two


def _middle_pair_commutes(op):
    a = op.factors[1][2]
    b = op.factors[2][2]
    return op.spec.omega(a.cexp, b.cexp) == 0


def _swap_middle(op):
    f = list(op.factors)
    f[1], f[2] = f[2], f[1]
    return OperatorExpr(op.spec, f, op.tail, op.tail_pos)


def test_ac_swap_relates_variants():
    # swapping the a- and c-parameters exchanges the plus/bar-minus and
    # minus/bar-plus operators; the two middle factors commute and are
    # written in the opposite order
    swap = {}
    for i in range(1, 4):
        swap[f"a{i}"] = ParamForm({f"c{i}": 1})
        swap[f"c{i}"] = ParamForm({f"a{i}": 1})
    sum_rules = constraints("econ-a").eliminate(("e1", "e2", "e3"))
    plus = build("R+", (1, 2, 3)).subs_params(swap)
    barminus = build("Rbar-", (1, 2, 3))
    assert _middle_pair_commutes(plus)
    assert _swap_middle(plus).equal_factors(barminus)
    ok, _ = group_equal(plus.tail.subs_params(sum_rules),
                        barminus.tail.subs_params(sum_rules))
    assert ok
    minus = build("R-", (1, 2, 3)).subs_params(swap)
    barplus = build("Rbar+", (1, 2, 3))
    assert _middle_pair_commutes(minus)
    assert _swap_middle(minus).equal_factors(barplus)
    ok, _ = group_equal(minus.tail.subs_params(sum_rules),
                        barplus.tail.subs_params(sum_rules))
    assert ok


def test_final_printings_agree_under_theorem_constraints():
    rules = rules_for("3dre", tuple(f"e{i}" for i in range(1, 10)) +
                      tuple(f"a{i}" for i in range(1, 10)) + ("c5", "c7", "c8"))
    mid = build("R-final", (1, 2, 4), spec=SPEC_C3, rules=rules)
    assert mid.tail_pos == 2
    plus = build("R+", (1, 2, 4), spec=SPEC_C3, rules=rules)
    norm = mid.normalized()
    assert norm.tail_pos == len(norm.factors)
    assert norm.equal_factors(plus)
    ok, wit = group_equal(norm.tail, plus.tail)
    assert ok, wit
    # four-index final form equals the default sign-variant
    kf = build("K-final", (1, 3, 5, 6), spec=SPEC_C3, rules=rules)
    kv = build("K-rho24-+", (1, 3, 5, 6), spec=SPEC_C3, rules=rules)
    assert kf.equal_factors(kv)
    ok, wit = group_equal(kf.tail, kv.tail)
    assert ok, wit


def test_build_K_examples_and_guard():
    op = build("K-rho24-+", (1, 2, 3, 4))
    b, e, m = op.factors[2]
    assert (b, e) == (1, -1)
    assert m.pexp == ParamForm({"a3": 1, "b1": -1, "b3": 1, "c2": -1, "c3": 1})
    assert m.cexp == SPEC_C2.vec({"u1": 1, "u3": -1, "w1": 1, "w2": -1, "w3": 1})
    assert adjoint(op.tail) == AffineCanonMap.from_table(SPEC_C2, C.ETA_K24)
    with pytest.raises(UnknownName):
        build("K-rho24+", (1, 2, 3, 4))  # one sign, not a pair
    with pytest.raises(BadIndices):
        build("K-rho24-+", (2, 1, 4, 3))  # weight pattern broken


def test_appendix_forms_equal_substituted_ten_factor_lists():
    """The canonical-variable factor lists must equal the images of the
    torus-variable lists under the substitution map, once the sum
    constraints eliminate the four extra symbols."""
    torus = QuantumTorus(builtin("B(C2)"))
    phi = build_subst_hom(torus, SPEC_C2, C.PHI_C2)
    rules = constraints("econ").extend(constraints("ccon")).eliminate(
        ("e1", "e2", "e3", "e4"))
    for eps in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        sol = K24_TORUS[eps]
        weyl = C.K24_WEYL[eps]
        for (b1, e1, sexp, powers), (b2, e2, pexp, cexp) in zip(sol, weyl):
            assert (b1, e1) == (b2, e2)
            img = phi.apply(torus.monomial(sexp, powers)).subs_params(rules)
            want = WeylMonomial(SPEC_C2, ONE, ParamForm(pexp),
                                SPEC_C2.vec(cexp)).subs_params(rules)
            assert img == want
        solb = K13_TORUS[eps]
        weylb = C.K13_WEYL[eps]
        for (b1, e1, sexp, powers), (b2, e2, pexp, cexp) in zip(solb, weylb):
            img = phi.apply(torus.monomial(sexp, powers)).subs_params(rules)
            want = WeylMonomial(SPEC_C2, ONE, ParamForm(pexp),
                                SPEC_C2.vec(cexp)).subs_params(rules)
            assert img == want


def test_general_ten_factor_form_specializes():
    gen = C.k_final_factors(1, 2, 3, 4, a_equals_c=False)
    mp = C.K24_WEYL[(-1, 1)]
    rules = {"c1": ParamForm({"a1": 1}), "c3": ParamForm({"a3": 1})}
    for (b1, e1, p1, c1), (b2, e2, p2, c2) in zip(gen, mp):
        assert (b1, e1) == (b2, e2) and c1 == c2
        # with c_i = a_i, c_k = a_k imposed both printings agree
        assert ParamForm(p1).subs(rules) == ParamForm(p2).subs(rules)


def test_build_FG_catalog():
    op = build_FG("K-C2:++-")
    assert [f[0] for f in op.factors] == [2, 1, 2]
    assert [f[1] for f in op.factors] == [1, 1, -1]
    rp = build_FG("R+")
    assert len(rp.factors) == 1
    pc2 = op.tail
    assert pc2.sigma.map == {2: 4, 4: 2}


def test_b2_target_placed_on_reversed_c2_indices():
    # a limit target written on B2 lands on the indices (4, 3, 2, 1) of C2
    m = factors("K-B2:++-", (4, 3, 2, 1), SPEC_C2)[0][2]
    assert m.spec == SPEC_C2
    assert m.pexp == ParamForm({"th3": 1, "th1": -1})
    assert m.cexp == SPEC_C2.vec({"u3": 1, "u1": -1, "w3": -1, "w2": 1, "w1": -1})
    assert build_FG("K-B2:++-").factors[0][2] == m


def test_placement_renames_th_with_its_axis():
    # swapping the indices 1 and 3 swaps th1 and th3 along with u1 and u3;
    # the first factor, on th2, th4, u2 and u4, stays
    placed = factors("K-C2:++-", (3, 2, 1, 4))
    assert placed[1][2].pexp == ParamForm({"th3": 1, "th1": -1})
    assert placed[1][2].cexp == SPEC_C2.vec({"u3": 1, "u1": -1, "w3": -1,
                                             "w2": 1, "w1": -1})
    assert placed[0][2].pexp == ParamForm({"th2": 1, "th4": -1})


def test_take_limit_keeps_the_tail_position():
    # R-final's tail sits after its second factor; along e1 -> -oo the
    # second and third factors drop, and the tail follows the first
    op = build("R-final")
    assert op.tail_pos == 2
    assert take_limit(op, {}).tail_pos == 2
    lim = take_limit(op, {"e1": -1})
    assert lim.equal_factors(OperatorExpr(op.spec, [op.factors[0], op.factors[3]],
                                          None))
    assert lim.tail_pos == 1


def test_take_limit_idempotent_and_zero_ray():
    rules = rules_for("k-c2", ("a1", "a3", "c1", "c2", "c3", "d1", "d2", "d3",
                               "d4", "e1", "e2", "e3", "e4"))
    op = build("K-rho24-+", (1, 2, 3, 4), rules=rules)
    lim = take_limit(op, ray("lim24"))
    assert len(lim.factors) == 3
    again = take_limit(lim, ray("lim24"))
    assert again.equal_factors(lim)
    unchanged = take_limit(op, {})
    assert unchanged.equal_factors(op)
    with pytest.raises(DivergentFactor):
        take_limit(op, {"b1": -1})


def test_all_fg_limits():
    kai24 = rules_for("k-c2", ("a1", "a3", "c1", "c2", "c3", "d1", "d2", "d3",
                               "d4", "e1", "e2", "e3", "e4"))
    kai13 = rules_for("k-b2", ("a3", "c1", "c2", "c3", "c4", "b1", "b2", "b3",
                               "b4", "e1", "e2", "e3", "e4"))
    cases = [
        ("K-rho24-+", kai24, "lim24", build_FG("K-C2:++-")),
        ("K-rho24--", kai24, "lim24", build_FG("K-C2:-++")),
        ("K-rho13-+", kai13, "lim13", build_FG("K-B2:++-")),
        ("K-rho13--", kai13, "lim13", build_FG("K-B2:-++")),
    ]
    for name, rules, rname, want in cases:
        lim = take_limit(build(name, (1, 2, 3, 4), rules=rules), ray(rname))
        assert lim.equal_factors(want)
        ok, wit = group_equal(lim.tail, want.tail)
        assert ok, wit
    for name, sysname, rname, target in (("R+", "r-fg-plus", "elim", "R+"),
                                         ("R-", "r-fg-minus", "elim2", "R-")):
        rules = rules_for(sysname, ("a1", "a2", "a3", "c1", "c2", "c3", "d1",
                                    "d2", "d3", "e1", "e2", "e3"))
        lim = take_limit(build(name, (1, 2, 3), rules=rules), ray(rname))
        want = build_FG(target)
        assert lim.equal_factors(want)
        ok, wit = group_equal(lim.tail, want.tail)
        assert ok, wit


def test_reduction_diagrams():
    forced, expect = reduction_diagram("cd-C2")
    assert forced.equivalent(expect)
    assert forced.implies(ParamForm({"th2": 1, "a1": 1, "d2": 1}))
    forced, expect = reduction_diagram("cd-B2")
    assert forced.equivalent(expect)
    econ_a = constraints("econ-a")
    forced, expect = reduction_diagram("cd3-left")
    assert forced.extend(econ_a).equivalent(expect.extend(econ_a))
    assert forced.extend(econ_a).implies(ParamForm({"e2": 1, "e3": -1}))
    forced, expect = reduction_diagram("cd3-right")
    assert forced.extend(econ_a).equivalent(expect.extend(econ_a))
