from fractions import Fraction
from math import gcd
from operator import add, mul
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

import qrefl.catalog as C
import qrefl.compositions as FX
import qrefl.verify as V
from qrefl.cluster import (ExchangeSeed, FrozenVertex, MutationSequence, Perm,
                           mutate_matrix)
from qrefl.compose import (CompositeState, composite_sequence, composite_signs,
                           hom_from_table, run_composite)
from qrefl.params import ParamForm, pivot
from qrefl.qtorus import (Infeasible, NonpositiveGrading, QuantumTorus,
                          TorusSeries, _solve_lp_geq, dilog_coefficients,
                          expand_product, skew_pair, staged_certificate,
                          stiemke_grading)
from qrefl.quivers import builtin
from qrefl.qweyl import SPEC_C2, SPEC_C3, WeylMonomial, WeylSeries
from qrefl.scalars import ONE, ScalarQ

from printed_tables import C2_CENTER, K24_TORUS, TAU_K24, TAU_R, TAU_RBAR


# -- series-level oracle ----------------------------------------------------
# one quantum mutation of Y-variables held as truncated series, with the
# series product and inverse it needs


def series_mul(a: TorusSeries, b: TorusSeries) -> TorusSeries:
    out = a._like()
    for beta, cb in b.terms.items():
        out += a.mul_monomial(cb, beta)
    return out


def series_inverse(a: TorusSeries) -> TorusSeries:
    """Inverse of monomial * (1 + higher-grade tail)."""
    lead = min(a.terms, key=lambda t: (a.gdeg(t), t))
    lead_coeff = a.terms[lead]
    inv_lead = a._like()
    inv_lead.add_term(tuple(-x for x in lead), lead_coeff.inverse())
    # t := a lead^-1 - 1 must have positive grade
    t = series_mul(a, inv_lead)
    zero = (0,) * a.torus.n()
    t.add_term(zero, -(t.terms.get(zero, ScalarQ.zero())))
    if any(t.gdeg(alpha) <= 0 for alpha in t.terms):
        raise NonpositiveGrading("series tail not of positive grade")
    # 1/(1 + t) = sum_n (-t)^n; t has only positive grades, so (-t)^n
    # truncates to nothing once n times its least grade passes the cutoff
    t.terms = {alpha: -c for alpha, c in t.terms.items()}
    out = TorusSeries.one(a.torus, a.grading, a.cutoff)
    power = TorusSeries.one(a.torus, a.grading, a.cutoff)
    while power.terms:
        power = series_mul(power, t)
        out += power
    return series_mul(inv_lead, out)


class CutoffTooSmall(Exception):
    pass


def quantum_mutate(seed, yvars: dict, k, grading, cutoff):
    """One quantum mutation of Y-variables given as truncated series."""
    if k in seed.frozen:
        raise FrozenVertex(k)
    new_seed = mutate_matrix(seed, k)
    yk = yvars[k]
    qk = seed.d[k]
    out = {}
    try:
        yk_inv = series_inverse(yk)
        for i in seed.labels:
            bik = seed.entry(i, k)
            cur = yk_inv if i == k else yvars[i]
            for j in range(1, int(abs(bik)) + 1):
                factor = TorusSeries.one(yk.torus, grading, cutoff)
                for alpha, c in (yk_inv if bik > 0 else yk).terms.items():
                    factor.add_term(alpha, c * ScalarQ.q_pow(qk * (2 * j - 1)))
                cur = series_mul(cur, series_inverse(factor) if bik > 0 else factor)
            out[i] = cur
    except NonpositiveGrading as exc:
        raise CutoffTooSmall(str(exc))
    return new_seed, out


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
    for powers in C2_CENTER:
        z = torus.monomial(0, powers)
        for l in torus.labels:
            assert z.commutes_with(torus.gen(l))


# the mutation sequences of R (and Rbar, from B'(A2)) and of K
R_SEQ = MutationSequence((6, 5, 7, 2), Perm.transpositions(((5, 7), (2, 6))))
K_SEQ = MutationSequence((8, 3, 9, 2, 7, 4, 9, 2, 8, 3))


def test_tau_step_images():
    # the monomial part of one mutation step
    seed = builtin("B(A2)")
    t = run_composite(seed, MutationSequence((6,)), (1,)).hom
    assert t.images[6] == t.target.gen(6, -1)
    assert t.respects_commutation(mutate_matrix(seed, 6))


def test_tau_catalog_and_inverse_property():
    # the walk of every commuting square from its target quiver ends on
    # the square's source quiver, and its monomial map is the printed one
    printed = {"Rcom1+": TAU_R["+"], "Rcom1-": TAU_R["-"],
               "Rcom2+": TAU_RBAR["+"], "Rcom2-": TAU_RBAR["-"],
               "Kcom": TAU_K24}
    assert set(printed) == set(V._DIAGRAMS)
    for name, sq in V._DIAGRAMS.items():
        st = V._square_walk(name)
        assert st.seed == builtin(sq.source), name
        assert st.hom == hom_from_table(builtin(sq.source), builtin(sq.target),
                                        printed[name]), name
    BA2, BpA2 = builtin("B(A2)"), builtin("B'(A2)")
    for key in ("+", "-"):
        st1 = run_composite(BA2, R_SEQ, C.EPS_R[key])
        st2 = run_composite(BpA2, R_SEQ, C.EPS_R[key])
        # tau o taubar is the identity homomorphism
        comp = st1.hom.compose(st2.hom)
        ident = hom_from_table(BA2, BA2, {})
        assert comp == ident


def test_tauK_catalog_and_eps_independence():
    BC2 = builtin("B(C2)")
    homs = []
    for pair in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        s = run_composite(BC2, K_SEQ, C.eps_k24(*pair))
        homs.append(s.hom)
        assert s.hom == hom_from_table(s.seed, BC2, TAU_K24)
    assert all(h == homs[0] for h in homs)


def test_torus_kept_across_mutations_matches_a_fresh_one():
    # after every step of both reflection walks, the torus carried over
    # from the previous step has the rows of a torus read afresh
    for rows in (FX.REFLECTION_LHS, FX.REFLECTION_RHS):
        ms = composite_sequence(rows)
        signs = composite_signs(rows, [1] * sum(kind != "K" for kind, *_ in rows))
        state = CompositeState(builtin("B(C3)"))
        first = state.torus
        for k, eps in zip(ms.steps, signs):
            state.mutate(k, eps)
            assert state.torus.skew() == QuantumTorus(state.seed).skew()
        assert first.skew() == QuantumTorus(builtin("B(C3)")).skew()


def test_dilog_factor_lists_match_catalog():
    BC2 = builtin("B(C2)")
    T = QuantumTorus(BC2)
    s = run_composite(BC2, K_SEQ, C.eps_k24(-1, 1))
    want = [(b, T.monomial(sx, pw), e) for b, e, sx, pw in K24_TORUS[(-1, 1)]]
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
    seed = builtin("B(C2)")
    ms = builtin("K-seq")
    facs = run_composite(seed, ms, C.eps_k24(1, 1)).dilogs
    T = QuantumTorus(seed)
    want = [(b, T.monomial(s, pw), e) for b, e, s, pw in K24_TORUS[(1, 1)]]
    assert [(b, a, e) for b, a, e in facs] == want
    # the first argument is always the generator of the first step
    assert facs[0][1].alpha == tuple(
        (-1 if l == ms.steps[0] else 0) for l in T.labels)
    with pytest.raises(ValueError):
        run_composite(seed, ms, (1, 1))


def test_one_relabel_walk_matches_factor_by_factor():
    # relabelling once at the end of a folded sequence gives the same
    # seed, monomial map and factors as relabelling after every factor
    BA2 = builtin("B(A2)")
    signs = C.EPS_R["+"] + C.EPS_R["-"]
    folded = run_composite(BA2, R_SEQ.then(R_SEQ), signs)
    first = run_composite(BA2, R_SEQ, signs[:4])
    second = run_composite(first.seed, R_SEQ, signs[4:])
    assert folded.seed == second.seed
    assert folded.hom == first.hom.compose(second.hom)
    pushed = [(b, first.hom.apply(a), e) for b, a, e in second.dilogs]
    assert folded.dilogs == first.dilogs + pushed


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
        tau = run_composite(seed, MutationSequence((1,)), (eps,)).hom
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


def recession_cone_trivial_fm(args) -> bool:
    """Fourier-Motzkin check that {n >= 0 : sum n_i args_i = 0} = {0}.

    The independent oracle for ``stiemke_grading``: it shares no code
    with the simplex.  Intended for small systems (few factors);
    eliminates the n variables from [n >= 0, A^T n = 0, sum n >= 1].
    Rows stay integer and primitive, duplicates merge, and rows with no
    variables left that hold trivially are dropped, so the row count
    stays small.
    """
    m = len(args)
    n = len(args[0]) if args else 0
    # integer rows (c_0, c_1..c_m) for c_0 + sum c_i n_i >= 0
    ineqs = {tuple(int(j == i) for j in range(m + 1)) for i in range(1, m + 1)}
    ineqs.add((-1,) + (1,) * m)
    for j in range(n):
        for sign in (1, -1):
            ineqs.add((0,) + tuple(sign * a[j] for a in args))
    for var in range(1, m + 1):
        pos = [r for r in ineqs if r[var] > 0]
        neg = [r for r in ineqs if r[var] < 0]
        new = {r for r in ineqs if r[var] == 0}
        for p in pos:
            for q in neg:
                comb = [a * -q[var] + b * p[var] for a, b in zip(p, q)]
                d = gcd(*comb) or 1
                new.add(tuple(x // d for x in comb))
        ineqs = {r for r in new if r[0] < 0 or any(r[1:])}
    return any(r[0] < 0 for r in ineqs)


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
        g = stiemke_grading(vectors)
        feasible = True
    except Infeasible:
        feasible = False
    if feasible:
        assert all(sum(a * b for a, b in zip(g, v)) >= 1 for v in vectors)
    assert recession_cone_trivial_fm(vectors) == feasible
    greedy = staged_certificate(vectors)
    if greedy is not None:
        assert feasible


# -- the grading LP against the dense tableau it replaced ---------------------


def _dense_pivot(rows, r, c):
    """Fraction-free Gauss-Jordan step on dense integer rows, p > 0."""
    pr = rows[r]
    p = pr[c]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            new = [p * a - f * b for a, b in zip(row, pr)]
            g = gcd(*new) or 1
            rows[i] = [x // g for x in new]


def reference_lp(rows, nvars):
    """The dense phase-1 simplex behind ``_solve_lp_geq``: every column of
    xp, xm, slack and artificial variables is stored, the entering column
    is the first with a positive reduced cost, and ties in the ratio test
    go to the lowest basic column."""
    m = len(rows)
    ncols = 2 * nvars + m
    total = ncols + m
    tab = [list(row) + [-x for x in row] + [-int(j == i) for j in range(m)]
           + [int(j == i) for j in range(m)] + [1] for i, row in enumerate(rows)]
    tab.append([sum(col) for col in zip(*tab)][:ncols] + [0] * m + [m])
    basis = [ncols + i for i in range(m)]
    while True:
        piv_col = next((j for j in range(ncols) if tab[m][j] > 0), None)
        if piv_col is None:
            break
        piv_row, best = None, None
        for i in range(m):
            a, b = tab[i][piv_col], tab[i][total]
            if a > 0 and (best is None or b * best[1] < best[0] * a or
                          (b * best[1] == best[0] * a and basis[i] < basis[piv_row])):
                piv_row, best = i, (b, a)
        if piv_row is None:
            return None
        _dense_pivot(tab, piv_row, piv_col)
        basis[piv_row] = piv_col
    if tab[m][total] != 0:
        return None
    x = [Fraction(0)] * ncols
    for i, bcol in enumerate(basis):
        if bcol < ncols:
            x[bcol] = Fraction(tab[i][total], tab[i][bcol])
    return [x[j] - x[nvars + j] for j in range(nvars)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-4, 4).filter(bool),
                                min_size=1, max_size=5), min_size=2, max_size=5),
       st.data())
def test_pivot_keeps_rows_positive_multiples_for_either_sign(rows, data):
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.sampled_from(sorted(rows[r])))
    negative = data.draw(st.booleans())
    if (rows[r][c] < 0) != negative:
        rows[r] = {k: -v for k, v in rows[r].items()}
    before = [dict(row) for row in rows]
    pivot(rows, r, c)
    p = before[r][c]
    assert rows[r] == before[r]
    for i, (old, new) in enumerate(zip(before, rows)):
        if i == r or c not in old:
            assert new == old
            continue
        want = {k: Fraction(old.get(k, 0)) - Fraction(old[c], p) * before[r].get(k, 0)
                for k in set(old) | set(before[r])}
        want = {k: v for k, v in want.items() if v}
        assert c not in new and set(new) == set(want)
        assert not new or gcd(*new.values()) == 1
        ratios = {Fraction(new[k]) / want[k] for k in want}
        assert len(ratios) <= 1 and all(x > 0 for x in ratios)


@st.composite
def lp_inputs(draw):
    """(rows, nvars): random integer rows, or rows made feasible by a
    drawn functional, or with repeated rows, or with a row and its negative
    (infeasible), or with more variables than rows."""
    kind = draw(st.sampled_from(("plain", "feasible", "duplicates", "infeasible",
                                 "wide")))
    n = draw(st.integers(4, 7) if kind == "wide" else st.integers(1, 5))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(vec, min_size=1, max_size=3 if kind == "wide" else 8))
    if kind == "feasible":
        g = draw(vec)
        rows = [r for r in rows if sum(a * b for a, b in zip(g, r)) >= 1] or [
            tuple(a or 1 for a in g)]
    elif kind == "duplicates":
        rows = rows + draw(st.lists(st.sampled_from(rows), min_size=1, max_size=4))
    elif kind == "infeasible":
        rows = rows + [tuple(-a for a in draw(st.sampled_from(rows)))]
    return draw(st.permutations(rows)), n


@settings(max_examples=300, deadline=None)
@example(([(1, 0), (0, 1)], 2))
@example(([(1, 0), (-1, 0)], 2))
@example(([(1, -1, 0), (1, -1, 0), (0, 1, 1)], 3))
@example(([(0, 0, 0)], 3))
@example(([(2, -1, 0, 1, 3)], 5))
# degenerate ties between a basic xm and a basic xp of a higher column
@example(([(1, 1, -2, -1, -1), (-2, -2, 0, 1, 1), (2, -2, -1, 0, 2)], 5))
@example(([(2, -3, -1, -2, 2), (-2, -3, 2, 3, 1), (-2, 0, -3, -3, -1)], 5))
@given(lp_inputs())
def test_sparse_lp_matches_the_dense_tableau(case):
    rows, n = case
    got = _solve_lp_geq(list(rows), n)
    assert got == reference_lp(list(rows), n)
    if got is not None:
        assert all(sum(a * b for a, b in zip(got, r)) >= 1 for r in rows)


def test_lp_inputs_of_the_verifier_match_the_dense_tableau(monkeypatch):
    # every LP that RE-full (both representations), K-eps-indep and the
    # eight finite-fiber systems solve
    import qrefl.qtorus as Q
    import qrefl.verify as V

    seen = []
    solve = Q._solve_lp_geq

    def record(rows, nvars):
        out = solve(rows, nvars)
        seen.append((list(rows), nvars, out))
        return out

    monkeypatch.setattr(Q, "_solve_lp_geq", record)
    assert V.check_re_full_torus(1).status and V.check_re_full_weyl(1).status
    assert V.check_K_eps_indep("rho24", 1).status
    assert all(V.check_wd(s).status for s in
               ("pnK", "alnK", "pnL", "pnR", "alL", "alR", "FFY", "FFuw"))
    assert len(seen) == 14
    assert {(len(rows), n) for rows, n, _ in seen} >= {(50, 22), (50, 18), (38, 15)}
    for rows, n, out in seen:
        assert out is not None and out == reference_lp(rows, n)


_TORI = {name: QuantumTorus(builtin(name)) for name in ("B(C2)", "B(C3)")}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_TORI)), st.data())
def test_torus_products_match_bhat_sums(name, data):
    # B(C2) has weights 2 and half-integer frozen entries; the s-powers
    # read off the integer rows of 2*Bhat must equal the Fraction sums
    # built straight from the seed
    seed, torus = builtin(name), _TORI[name]
    vec = st.lists(st.integers(-2, 2), min_size=torus.n(), max_size=torus.n())
    a, b = data.draw(vec), data.draw(vec)
    lab = list(enumerate(seed.labels))
    pair = sum((a[i] * b[j] * seed.bhat(k, l) for i, k in lab for j, l in lab),
               Fraction(0))
    twist = sum((a[i] * a[j] * seed.bhat(k, l) for i, k in lab for j, l in lab
                 if i < j), Fraction(0))
    prod = torus.element(ONE, a) * torus.element(ONE, b)
    assert prod.coeff == ScalarQ.q_pow(pair)
    assert prod.alpha == tuple(x + y for x, y in zip(a, b))
    assert torus.pairing(a, b) == pair
    assert torus.element(ONE, a).commutes_with(torus.element(ONE, b)) == (pair == 0)
    assert torus.ordering_twist(a) == 2 * twist
    # the ordered product of generator powers is s^twist Y^a
    ordered = torus.monomial(0, [(k, a[i]) for i, k in lab])
    assert ordered == torus.element(ScalarQ.q_pow(twist), a)


# -- reference for the per-factor loop of GradedSeries.expand ---------------


def reference_expand(series, factors):
    """The term-by-term loop: every power of a factor, from n = 0,
    multiplies the whole running product."""
    acc = series
    for base, expo, arg in factors:
        d = series.gdeg(series._exponent(arg))
        new = series._like()
        for n, c in enumerate(dilog_coefficients(base, expo, series._top // d)):
            new += acc._mul_power(arg.pow(n), c)
        acc = new
    return acc


def _form(c):
    return c.num, c.den, c.iden


def layout(series):
    """The terms in their key order, every coefficient as (num, den,
    iden), every parameter exponent with its value."""
    if isinstance(series, TorusSeries):
        return [(a, _form(c)) for a, c in series.terms.items()]
    return [(cexp, [(k, p, _form(c)) for k, (p, c) in b.items()])
            for cexp, b in series.terms.items()]


def assert_expand_matches_reference(start, factors):
    before = layout(start)
    kept_all = []

    def counting(mul_monomial):
        def wrapped(self, *args):
            out = mul_monomial(self, *args)
            kept_all.append(len(out.terms) == len(self.terms))
            return out
        return wrapped

    cls = type(start)
    with patch.object(cls, "mul_monomial", counting(cls.mul_monomial)):
        got = start.expand(factors)
    assert layout(got) == layout(reference_expand(start, factors))
    assert layout(start) == before
    # every term handed to a power n >= 1 survives beside it
    assert all(kept_all)


def _sparse_vec(n):
    entries = st.lists(st.tuples(st.integers(0, n - 1), st.integers(-1, 2)),
                       min_size=1, max_size=3)
    return entries.map(lambda es: tuple(sum(v for i, v in es if i == j)
                                        for j in range(n)))


def _series_case(data, n, start):
    """A positive grading, a cutoff, and up to four dilogarithm factors
    whose arguments repeat from a pool of at most three monomials; the
    start series gets a few extra terms, some beyond the cutoff."""
    grading = data.draw(st.lists(st.sampled_from((Fraction(1, 2), 1, 2)),
                                 min_size=n, max_size=n))
    series = start(grading, data.draw(st.sampled_from((2, 3, 4))))
    positive = _sparse_vec(n).filter(lambda v: series.gdeg(v) > 0)
    pool = data.draw(st.lists(st.tuples(positive, st.integers(-2, 2)),
                              min_size=1, max_size=3))
    factors = data.draw(st.lists(st.tuples(st.sampled_from((1, 2)),
                                           st.sampled_from((1, -1)),
                                           st.sampled_from(pool)),
                                 min_size=1, max_size=4))
    extra = data.draw(st.lists(st.tuples(_sparse_vec(n), st.integers(-2, 2)),
                               max_size=3))
    return series, factors, extra


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_TORI)), st.data())
def test_torus_expand_matches_term_by_term_loop(name, data):
    torus = _TORI[name]
    series, factors, extra = _series_case(
        data, torus.n(), lambda g, cut: TorusSeries.one(torus, g, cut))
    for alpha, k in extra:
        series.add_term(alpha, ScalarQ.s_pow(k))
    factors = [(b, e, torus.element(ScalarQ.s_pow(k), v))
               for b, e, (v, k) in factors]
    assert_expand_matches_reference(series, factors)


_PEXPS = (ParamForm(), ParamForm({"a1": 1}), ParamForm({"a1": -1, "a2": 1}))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((SPEC_C2, SPEC_C3)), st.data())
def test_weyl_expand_matches_term_by_term_loop(spec, data):
    # monomials that share an exponent and differ in their parameter
    # exponent fill one bucket with several entries
    series, factors, extra = _series_case(
        data, 2 * spec.p, lambda g, cut: WeylSeries.one(spec, g, cut))
    pexp = st.sampled_from(_PEXPS)
    for cexp, k in extra:
        series.add_term(cexp, data.draw(pexp), ScalarQ.s_pow(k))
    factors = [(b, e, WeylMonomial(spec, ScalarQ.s_pow(k), data.draw(pexp), v))
               for b, e, (v, k) in factors]
    assert_expand_matches_reference(series, factors)


def test_re_full_sides_expand_as_term_by_term_loop():
    import qrefl.verify as V
    sides = V._torus_sides()
    args = [f[1].alpha for st_ in sides for f in st_.dilogs]
    g = V._grading(args)
    for st_ in sides:
        one = TorusSeries.one(st_.dilogs[0][1].torus, g, 2)
        assert_expand_matches_reference(
            one, [(b, e, arg) for b, arg, e in st_.dilogs])
    sides = V._weyl_sides()
    g = V._grading([m.cexp for facs in sides for _, _, m in facs])
    for facs in sides:
        assert_expand_matches_reference(WeylSeries.one(SPEC_C3, g, 2), facs)


# -- the one-pass merge and the direct product against add_term -------------

# +-1 and +-s cancel against each other; a dilogarithm coefficient has a
# denominator, so its sums go through the general ScalarQ addition
_COEFFS = (ONE, -ONE, ScalarQ.s_pow(1), -ScalarQ.s_pow(1),
           dilog_coefficients(1, 1, 2)[2])


def added_term_by_term(a, b):
    """a + b, merged by add_term one term of b at a time."""
    out = a._like(dict(a.terms))
    if isinstance(out, TorusSeries):
        for alpha, c in b.terms.items():
            out.add_term(alpha, c)
    else:
        for cexp, bucket in b.terms.items():
            for key, (p, c) in bucket.items():
                out.add_term(cexp, p, c, key)
    return out


def product_term_by_term(series, coeff, beta, pexp=None):
    """series times coeff * X^beta (times e^pexp for a Weyl series), every
    product put in by add_term; a product past the cutoff is left out."""
    out = series._like()
    top = series._top - sum(map(mul, series._g, beta))
    for alpha, v in series.terms.items():
        if sum(map(mul, series._g, alpha)) > top:
            continue
        gamma = tuple(map(add, alpha, beta))
        s = skew_pair(series._skew, alpha, beta)
        if pexp is None:
            out.add_term(gamma, (v * coeff).shift(s))
        else:
            for p, c in v.values():
                out.add_term(gamma, p + pexp, (c * coeff).shift(s))
    return out


def assert_merge_matches_add_term(a, b):
    # twice: a bucket that b shares with the sum must not change under the
    # second merge
    want = added_term_by_term(added_term_by_term(a, b), b)
    before = layout(b)
    got = a._like(dict(a.terms))
    got += b
    got += b
    assert layout(got) == layout(want)
    assert layout(b) == before


def _drawn_series(data, empty, n, pexps=None):
    """A series filled by add_term from a pool of at most three exponents,
    so that its terms meet and cancel often."""
    pool = data.draw(st.lists(_sparse_vec(n), min_size=1, max_size=3))
    series = empty()
    for _ in range(data.draw(st.integers(0, 8))):
        alpha, c = data.draw(st.sampled_from(pool)), data.draw(st.sampled_from(_COEFFS))
        if pexps is None:
            series.add_term(alpha, c)
        else:
            series.add_term(alpha, data.draw(st.sampled_from(pexps)), c)
    return series


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_TORI)), st.data())
def test_torus_merge_and_product_match_add_term(name, data):
    torus = _TORI[name]
    n = torus.n()
    grading = data.draw(st.lists(st.sampled_from((Fraction(1, 2), 1)),
                                 min_size=n, max_size=n))
    empty = lambda: TorusSeries(torus, grading, data.draw(st.sampled_from((0, 1, 2))))
    a, b = _drawn_series(data, empty, n), _drawn_series(data, empty, n)
    assert_merge_matches_add_term(a, b)
    coeff, beta = data.draw(st.sampled_from(_COEFFS)), data.draw(_sparse_vec(n))
    assert (layout(a.mul_monomial(coeff, beta))
            == layout(product_term_by_term(a, coeff, beta)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((SPEC_C2, SPEC_C3)), st.data())
def test_weyl_merge_and_product_match_add_term(spec, data):
    n = 2 * spec.p
    grading = data.draw(st.lists(st.sampled_from((Fraction(1, 2), 1)),
                                 min_size=n, max_size=n))
    empty = lambda: WeylSeries(spec, grading, data.draw(st.sampled_from((0, 1, 2))))
    a = _drawn_series(data, empty, n, _PEXPS)
    b = _drawn_series(data, empty, n, _PEXPS)
    assert_merge_matches_add_term(a, b)
    m = WeylMonomial(spec, data.draw(st.sampled_from(_COEFFS)),
                     data.draw(st.sampled_from(_PEXPS)), data.draw(_sparse_vec(n)))
    assert (layout(a.mul_monomial(m))
            == layout(product_term_by_term(a, m.coeff, m.cexp, m.pexp)))


def test_torus_merge_deletes_a_cancelled_sum():
    torus = _TORI["B(C2)"]
    e = [torus.unit(l) for l in torus.labels[:3]]
    a = TorusSeries(torus, (1,) * torus.n(), 2, {e[0]: ONE, e[1]: ScalarQ.s_pow(1)})
    b = TorusSeries(torus, (1,) * torus.n(), 2, {e[1]: -ScalarQ.s_pow(1), e[2]: ONE})
    assert_merge_matches_add_term(a, b)
    a += b
    assert list(a.terms) == [e[0], e[2]]


def test_weyl_merge_keeps_add_term_order_for_an_emptied_bucket():
    spec = SPEC_C2
    x, y, z = (spec.vec({ax: 1}) for ax in ("u1", "w1", "u2"))
    p0, p1, p2 = _PEXPS
    s = ScalarQ.s_pow(1)

    def series(*terms):
        out = WeylSeries(spec, (1,) * 8, 3)
        for cexp, p, c in terms:
            out.add_term(cexp, p, c)
        return out

    a = series((x, p0, ONE), (y, p1, ONE))
    # x's bucket cancels to empty while its incoming bucket still holds
    # p1 and p2: add_term re-inserts x after y, with p1 then p2
    refill = series((x, p0, -ONE), (x, p1, ONE), (x, p2, s))
    assert_merge_matches_add_term(a, refill)
    got = a._like(dict(a.terms))
    got += refill
    assert list(got.terms) == [y, x]
    assert list(got.terms[x]) == [p1.key(), p2.key()]
    # a bucket that cancels to empty and stays so is deleted
    got += series((x, p1, -ONE), (x, p2, -s))
    assert list(got.terms) == [y]
    # a new exponent takes the incoming bucket, several keys in order
    fresh = series((z, p2, ONE), (z, p0, s), (z, p1, -ONE))
    assert_merge_matches_add_term(a, fresh)
    got = a._like(dict(a.terms))
    got += fresh
    assert list(got.terms) == [x, y, z]
    assert list(got.terms[z]) == [p2.key(), p0.key(), p1.key()]


def test_products_drop_terms_past_the_cutoff():
    torus = _TORI["B(C2)"]
    e1, e2 = torus.unit(torus.labels[0]), torus.unit(torus.labels[1])
    a = TorusSeries(torus, (1,) * torus.n(), 2,
                    {e1: ONE, tuple(2 * x for x in e2): ScalarQ.s_pow(3)})
    got = a.mul_monomial(ScalarQ.s_pow(1), e1)
    assert layout(got) == layout(product_term_by_term(a, ScalarQ.s_pow(1), e1))
    assert list(got.terms) == [tuple(2 * x for x in e1)]
    assert not a.mul_monomial(ScalarQ.zero(), e1).terms


def test_expand_keeps_no_degree_table_of_its_own():
    # the degrees of an expansion are stored in a table that goes with it:
    # the start series' table does not grow, and the result shares it
    torus = _TORI["B(C2)"]
    start = TorusSeries.one(torus, (1,) * torus.n(), 3)
    before = dict(start._deg)
    arg = torus.gen(torus.labels[0])
    got = start.expand([(1, 1, arg), (1, -1, torus.gen(torus.labels[1]))])
    assert len(got.terms) > 2
    assert dict(start._deg) == before
    assert got._deg is start._deg
    assert all(got.gdeg(a) == sum(a) for a in got.terms)


@pytest.mark.parametrize("base,expo", [(1, 2), (1, 0), (1, -2), (0, 1), (-1, -1)])
def test_dilog_coefficients_reject_other_exponents_and_bases(base, expo):
    with pytest.raises(ValueError):
        dilog_coefficients(base, expo, 3)
