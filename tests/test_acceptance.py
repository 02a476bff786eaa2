"""Acceptance suite: one test per criterion, exact tolerances, with a
pass/fail line and wall time printed for each criterion.
"""

import time

import qrefl.catalog as C
import qrefl.verify as V
from qrefl.nilgroup import adjoint, NilGroupElement
from qrefl.operators import constraints, tail
from qrefl.quivers import builtin
from qrefl.qtorus import QuantumTorus
from qrefl.qweyl import (AffineCanonMap, SPEC_A2, SPEC_B2, SPEC_C2,
                         build_subst_hom)

from printed_tables import BHAT_C2_PRINTED, K24_TORUS


def _report(n, label, cond, t0, budget):
    dt = time.perf_counter() - t0
    status = "PASS" if cond else "FAIL"
    print(f"[{status}] criterion {n}: {label} ({dt:.2f}s, budget {budget}s)")
    assert cond, f"criterion {n} failed"
    assert dt < budget, f"criterion {n} exceeded its runtime budget"


def test_criterion_01_quiver_fixtures():
    t0 = time.perf_counter()
    seed = builtin("B(C2)")
    lab = seed.labels
    entrywise = all(seed.bhat(i, j) == BHAT_C2_PRINTED[i - 1][j - 1]
                    for i in lab for j in lab)
    rank_ok = seed.rank_bhat() == 8
    seq_ok = builtin("K-seq").apply_matrix(seed) == builtin("B'(C2)")
    _report(1, "quiver fixtures and mutation target", entrywise and rank_ok
            and seq_ok, t0, 1)


def test_criterion_02_tetrahedron_seed_level():
    t0 = time.perf_counter()
    rep = V.check_te_seed()
    _report(2, "seed-level tetrahedron identity", rep.status, t0, 1)


def test_criterion_03_tau_level_search():
    t0 = time.perf_counter()
    good = set(V.search_good_signs_tau(homogeneous=True))
    ok = good == {(1, 1), (1, -1), (-1, -1)}
    for pair in good:
        ok = ok and V.check_re_tau(pair * 4).status
    _report(3, "monomial-level search: exactly three homogeneous signs",
            ok, t0, 10)


def test_criterion_04_eta_level_search():
    t0 = time.perf_counter()
    homog = set(V.search_good_signs_eta(homogeneous=True))
    ok = homog == {(1, 1), (1, -1), (-1, -1)}
    full = set(V.search_good_signs_eta(homogeneous=False))
    extras = {t for t in full
              if not (t[0] == t[2] == t[4] == t[6] and t[1] == t[3] == t[5] == t[7])}
    ok = ok and extras == C.ETA_EXTRA_SIGNS and len(full) == 13
    _report(4, "canonical-map search: three homogeneous plus ten listed",
            ok, t0, 30)


def test_criterion_05_operator_level():
    t0 = time.perf_counter()
    ok = V.check_re_P().status
    ok = ok and V.search_good_signs_P() == [(1, -1)]
    for w in ("P+", "P-", "Pbar-", "Pbar+"):
        ok = ok and V.check_te_P(w).status
    _report(5, "operator-level reflection and tetrahedron identities",
            ok, t0, 30)


def test_criterion_06_adjoint_realizations():
    t0 = time.perf_counter()
    from qrefl.nilgroup import TriangularOrder
    UP = TriangularOrder(({1}, {2, 3}))
    DOWN = TriangularOrder(({3}, {1, 2}))
    # the C2 orders housing the 2-4 and the 1-3 movers
    TOP, BOT = tail("K-rho24-+").order, tail("K-rho13-+").order
    cases = [
        (SPEC_A2, UP, C.P_R["+"], SPEC_A2, C.ETA_R["+"]),
        (SPEC_A2, DOWN, C.P_R["-"], SPEC_A2, C.ETA_R["-"]),
        (SPEC_A2, UP, C.P_RBAR["-"], SPEC_A2, C.ETA_RBAR["-"]),
        (SPEC_A2, DOWN, C.P_RBAR["+"], SPEC_A2, C.ETA_RBAR["+"]),
        (SPEC_C2, TOP, C.P_K24, SPEC_C2, C.ETA_K24),
        (SPEC_C2, BOT, C.P_K13, SPEC_C2, C.ETA_K13),
        (SPEC_C2, TOP, C.P_FG_C2, SPEC_C2, C.PIK_C2),
        (SPEC_B2, TOP, C.P_FG_B2, SPEC_B2, C.PIK_B2),
    ]
    ok = True
    for spec, order, (pdata, rho), espec, table in cases:
        P = NilGroupElement.from_factors(spec, order, pdata, rho_pair=rho)
        ok = ok and adjoint(P) == AffineCanonMap.from_table(espec, table)
    _report(6, "adjoint realizations of all catalog monomial operators",
            ok, t0, 5)


def test_criterion_07_commuting_squares():
    t0 = time.perf_counter()
    ok = all(V.check_diagram(n).status
             for n in ("Rcom1+", "Rcom1-", "Rcom2+", "Rcom2-", "Kcom"))
    for d in range(len(constraints("econ-a").constraints)):
        ok = ok and not V.check_diagram("Rcom1+", drop=d).status
        ok = ok and not V.check_diagram("Rcom2-", drop=d).status
    ncon = len(constraints("econ").constraints) + \
        len(constraints("ccon").constraints)
    for d in range(ncon):
        ok = ok and not V.check_diagram("Kcom", drop=d).status
    _report(7, "commuting squares with constraint-necessity negatives",
            ok, t0, 10)


def test_criterion_08_wd_certificates():
    t0 = time.perf_counter()
    ok = True
    for name in ("pnK", "alnK", "pnL", "pnR", "alL", "alR", "FFY", "FFuw"):
        rep = V.check_wd(name)
        ok = ok and rep.status
        if name in C.STAGE_PLANS:
            ok = ok and rep.details["reference_plan_valid"]
    _report(8, "all eight finite-fiber certificates with reference plans",
            ok, t0, 10)


def test_criterion_09_sign_variant_independence():
    t0 = time.perf_counter()
    ok = V.check_K_eps_indep("rho24", cutoff=5).status
    ok = ok and V.check_K_eps_indep("rho13", cutoff=5).status
    ok = ok and V.check_rewriting_lemma(6).status
    _report(9, "four-variant agreement at cutoff 5 plus rewriting identity",
            ok, t0, 60)


def test_criterion_10_full_identity():
    t0 = time.perf_counter()
    torus = V.check_re_full(cutoff=3, rep="torus")
    ok = torus.status
    ok = ok and torus.counters["base_q"] == 31
    ok = ok and torus.counters["base_q2"] == 15
    ok = ok and torus.counters["factors_per_side"] == 46
    weyl = V.check_re_full(cutoff=3, rep="weyl")
    ok = ok and weyl.status
    ok = ok and V.check_re_P().status
    _report(10, "full reflection identity at cutoff 3, both variable sets",
            ok, t0, 900)


def test_criterion_11_degeneration_limits():
    t0 = time.perf_counter()
    ok = all(V.check_fg_limit(n).status
             for n in ("K-rho24--+", "K-rho24---", "K-rho13--+",
                       "K-rho13---", "R-plus", "R-minus"))
    _report(11, "all six degeneration limits, exact factor lists", ok, t0, 5)


def test_criterion_12_parameter_bookkeeping():
    t0 = time.perf_counter()
    full = constraints("3dre")
    ok = full.rank() == 21 and len(full.symbols()) == 45
    ok = ok and (len(full.symbols()) - full.rank()) == 24
    # canonical-variable ten-factor lists equal the substituted images of
    # the torus-variable lists once the four extra symbols are removed
    torus = QuantumTorus(builtin("B(C2)"))
    phi = build_subst_hom(torus, SPEC_C2, C.PHI_C2)
    rules = constraints("econ").extend(constraints("ccon")).eliminate(
        ("e1", "e2", "e3", "e4"))
    from qrefl.params import ParamForm
    from qrefl.qweyl import WeylMonomial
    from qrefl.scalars import ONE
    for eps in ((1, 1), (-1, 1)):
        for (b1, e1, sexp, powers), (b2, e2, pexp, cexp) in zip(
                K24_TORUS[eps], C.K24_WEYL[eps]):
            img = phi.apply(torus.monomial(sexp, powers)).subs_params(rules)
            want = WeylMonomial(SPEC_C2, ONE, ParamForm(pexp),
                                SPEC_C2.vec(cexp)).subs_params(rules)
            ok = ok and img == want and (b1, e1) == (b2, e2)
    _report(12, "rank/free-parameter counts and explicit-form agreement",
            ok, t0, 1)
