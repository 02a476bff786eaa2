import copy
import json
import subprocess
import sys
from contextlib import contextmanager

import pytest

import qrefl.catalog as C
import qrefl.verify as V
from qrefl.cluster import MutationSequence, Perm
from qrefl.operators import UnknownName, constraints
from qrefl.quivers import builtin


def test_monomial_level_identities():
    assert V.check_re_tau((1, -1, 1, -1, 1, -1, 1, -1)).status
    assert V.check_re_seed().status
    assert V.check_te_seed().status
    assert V.check_te_tau(1).status and V.check_te_tau(-1).status


def test_eta_level_identity_and_negative():
    assert V.check_re_eta((1, -1, 1, -1, 1, -1, 1, -1)).status
    bad = V.check_re_eta((-1, 1, -1, 1, -1, 1, -1, 1))
    assert not bad.status
    assert bad.details.get("witness") is not None


def test_eta_level_without_required_constraints_fails():
    # dropping the whole constraint system must break the identity
    rep = V.check_re_eta((1, -1, 1, -1, 1, -1, 1, -1), rules={})
    assert not rep.status


def test_operator_level_identities():
    assert V.check_re_P().status
    for w in ("P+", "P-", "Pbar-", "Pbar+"):
        assert V.check_te_P(w).status
    assert V.check_te_eta(1).status and V.check_te_eta(-1).status


def test_sign_searches_reproduce_catalog():
    assert set(V.search_good_signs_tau(homogeneous=True)) == C.GOOD_HOMOGENEOUS
    assert set(V.search_good_signs_eta(homogeneous=True)) == C.GOOD_HOMOGENEOUS
    assert set(V.search_good_signs_P()) == C.GOOD_HOMOGENEOUS_P
    full = set(V.search_good_signs_eta(homogeneous=False))
    homog = {t for t in full if t[0] == t[2] == t[4] == t[6]
             and t[1] == t[3] == t[5] == t[7]}
    assert {(t[0], t[1]) for t in homog} == C.GOOD_HOMOGENEOUS
    assert full - homog == C.ETA_EXTRA_SIGNS


def test_wd_certificates():
    for name in ("pnK", "alnK", "pnL", "pnR", "alL", "alR", "FFY", "FFuw"):
        rep = V.check_wd(name)
        assert rep.status, name
        if name in C.STAGE_PLANS:
            assert rep.details["reference_plan_valid"]
    # deliberately broken system
    from qrefl.qtorus import Infeasible, stiemke_grading
    with pytest.raises(Infeasible):
        stiemke_grading([(1, 0), (-1, 0)])


def test_wd_spot_rows():
    vecs = V.wd_vectors("pnK")
    # coordinate #3 tracks the third unfrozen label; its exponent comes
    # only from factors 6 and 7, with coefficient -1
    col = [v[2] for v in vecs]
    assert col == [0, 0, 0, 0, 0, -1, -1, 0, 0, 0]
    vecs = V.wd_vectors("alnK")
    assert [v[0] for v in vecs] == [1, 0, 1, 0, 1, 2, 1, 0, 1, 0]
    # the reference plans reconstruct a unique assignment for pnL
    from qrefl.qtorus import match_stage_plan
    plan = [(tuple(r - 1 for r in rows), tuple(c - 1 for c in cols))
            for rows, cols in C.STAGE_PLANS["pnL"]]
    assign = match_stage_plan(V.wd_vectors("pnL"), plan)
    assert assign is not None
    # reference row 3 tracks the coordinate supported on factors 28, 29
    vecs = V.wd_vectors("pnL")
    coord = assign[2]
    sup = [i + 1 for i, v in enumerate(vecs) if v[coord]]
    assert sup == [28, 29] and vecs[27][coord] == -1 and vecs[28][coord] == -1


def test_k_eps_independence_fast():
    rep = V.check_K_eps_indep("rho24", cutoff=3)
    assert rep.status
    rep = V.check_K_eps_indep("rho13", cutoff=3)
    assert rep.status
    # cutoff 0: both sides are the constant term 1
    assert V.check_K_eps_indep("rho24", cutoff=0).status
    with pytest.raises(UnknownName):
        V.check_K_eps_indep("bogus", cutoff=1)


def test_k_eps_independence_negative_twin(monkeypatch):
    # flip the exponent of the first factor whose argument lies within
    # cutoff 3 of both its own variant's grading and another's
    from qrefl.qweyl import SPEC_C2
    table = C.K24_WEYL
    vecs = {eps: [SPEC_C2.vec(cx) for _, _, _, cx in rows]
            for eps, rows in table.items()}
    grads = {eps: V._grading(vs) for eps, vs in vecs.items()}
    eps, j = next((eps, j) for eps, vs in vecs.items() for j, v in enumerate(vs)
                  if any(_grade(grads[eps], v) <= 3 and _grade(grads[o], v) <= 3
                         for o in table if o != eps))
    monkeypatch.setattr(C, "K24_WEYL", {**table, eps: _negate(table[eps], j, 1)})
    rep = V.check_K_eps_indep("rho24", cutoff=3)
    assert not rep.status
    wit = rep.details["witness"]
    assert eps in wit["signs"]
    *_, mine, theirs = wit["difference"]
    assert mine != theirs
    # the report prints the witness
    assert json.loads(rep.to_json())["details"]["witness"]["signs"]


def test_rewriting_lemma():
    assert V.check_rewriting_lemma(6).status


def _grade(g, vec):
    return sum(gi * a for gi, a in zip(g, vec))


def _negate(facs, idx, pos):
    """The factor list with the exponent (tuple position ``pos``) of
    factor ``idx`` negated."""
    out = list(facs)
    fac = list(out[idx])
    fac[pos] = -fac[pos]
    out[idx] = tuple(fac)
    return out


@contextmanager
def _swapped(cache, sides):
    saved = cache["sides"]
    cache["sides"] = sides
    try:
        yield
    finally:
        cache["sides"] = saved


def _torus_flipped(idx):
    """Run with left-side torus factor ``idx`` inverted."""
    stL, stR = V._torus_sides()
    left = copy.copy(stL)
    left.dilogs = _negate(stL.dilogs, idx, 2)
    return _swapped(V._TORUS_CACHE, (left, stR))


def test_full_identity_small_cutoff():
    rep = V.check_re_full(cutoff=2, rep="torus")
    assert rep.status and "witness" not in rep.details
    assert rep.counters["base_q"] == 31 and rep.counters["base_q2"] == 15
    g = rep.details["grading"]
    stL, _ = V._torus_sides()
    idx = min(range(len(stL.dilogs)),
              key=lambda i: _grade(g, stL.dilogs[i][1].alpha))
    assert _grade(g, stL.dilogs[idx][1].alpha) <= 2
    with _torus_flipped(idx):
        bad = V.check_re_full(cutoff=2, rep="torus")
    assert not bad.status and bad.details["constant_terms_one"]
    alpha, left, right = bad.details["witness"]
    assert left != right and _grade(g, alpha) <= 2
    assert json.loads(bad.to_json())["details"]["witness"]

    rep = V.check_re_full(cutoff=2, rep="weyl")
    assert rep.status and "witness" not in rep.details
    g = rep.details["grading"]
    facsL, facsR = V._weyl_sides()
    idx = min(range(len(facsL)), key=lambda i: _grade(g, facsL[i][2].cexp))
    with _swapped(V._WEYL_CACHE, (_negate(facsL, idx, 1), facsR)):
        bad = V.check_re_full(cutoff=2, rep="weyl")
    assert not bad.status
    cexp, pexp, left, right = bad.details["witness"]
    assert left != right and _grade(g, cexp) <= 2


def test_rep_agreement():
    from qrefl.qweyl import SPEC_C3, build_subst_hom, expand_weyl_product
    rep = V.check_rep_agreement(cutoff=2)
    assert rep.status
    # every exponent of the canonical-variable series is compared
    facsL, _ = V._weyl_sides()
    args = [m.cexp for _, _, m in facsL]
    gw = V._grading(args)
    canonical = expand_weyl_product(facsL, SPEC_C3, gw, 2)
    assert rep.counters["compared_exponents"] == len(canonical.terms)
    # negative twin: flip the torus factor whose image has least grade
    stL, _ = V._torus_sides()
    phi = build_subst_hom(stL.hom.target, SPEC_C3, C.PHI_C3)
    grades = [_grade(gw, phi.apply(arg).cexp) for _, arg, _ in stL.dilogs]
    idx = grades.index(min(grades))
    assert grades[idx] <= 2
    with _torus_flipped(idx):
        bad = V.check_rep_agreement(cutoff=2)
    assert not bad.status and bad.details["witness"]


def test_diagrams_with_negatives():
    for name in ("Rcom1+", "Rcom1-", "Rcom2+", "Rcom2-", "Kcom"):
        assert V.check_diagram(name).status, name
    for d in range(len(constraints("econ-a").constraints)):
        assert not V.check_diagram("Rcom1+", drop=d).status
    ncon = len(constraints("econ").constraints) + \
        len(constraints("ccon").constraints)
    for d in range(ncon):
        assert not V.check_diagram("Kcom", drop=d).status


def test_fg_limit_reports():
    for name in ("K-rho24--+", "K-rho24---", "K-rho13--+", "K-rho13---",
                 "R-plus", "R-minus"):
        rep = V.check_fg_limit(name)
        assert rep.status, name
        # the CLI prints the same limit, one line per surviving factor
        out = run_cli("operator", "limit", "--name", name,
                      "--ray", V.FG_LIMITS[name].ray)
        assert out.returncode == 0, (name, out.stderr)
        assert out.stdout.count("dilog") == rep.counters["survivors"], name


def test_period_quantum_consistency():
    seed = builtin("B(A2)")
    ms = builtin("R-seq")
    rep = V.check_period(seed, ms.then(ms.inverse()), quantum_cutoff=3)
    assert rep.status
    assert rep.details["quantum_consistent_to_cutoff"]
    assert not V.check_period(seed, MutationSequence((6,), Perm())).status


def test_report_determinism():
    a = V.check_wd("pnK").to_json()
    b = V.check_wd("pnK").to_json()
    assert a == b
    assert "wall" not in a
    data = json.loads(a)
    assert data["status"] == "pass"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qrefl.cli", *args],
        capture_output=True, text=True)


def test_cli_smoke(tmp_path):
    out = run_cli("quiver", "show", "B(C2)")
    assert out.returncode == 0 and out.stdout.startswith("n 11")
    out = run_cli("verify", "--task", "RE-seed")
    assert out.returncode == 0 and json.loads(out.stdout)["status"] == "pass"
    out = run_cli("search-signs", "--level", "p", "--homogeneous")
    assert out.returncode == 0 and "+-" in out.stdout
    # the operator level has only the homogeneous search
    out = run_cli("search-signs", "--level", "p")
    assert out.returncode == 2 and "UsageError" in out.stderr
    out = run_cli("wd", "--system", "pnK")
    assert out.returncode == 0
    out = run_cli("limit", "--operator", "R-plus")
    assert out.returncode == 0
    out = run_cli("period", "--quiver", "B(A2)", "--seq", "R-seq",
                  "--round-trip")
    assert out.returncode == 0
    out = run_cli("operator", "limit", "--name", "K-rho24--+", "--ray", "lim24")
    assert out.returncode == 0 and out.stdout.count("dilog") == 3
    out = run_cli("quiver", "show", "nonsense")
    assert out.returncode == 2
    quiver = tmp_path / "a2.quiver"
    quiver.write_text(run_cli("quiver", "show", "B(A2)").stdout)
    out = run_cli("verify", "--task", "TE-tau", "--signs=m")
    assert out.returncode == 0 and "sign -1" in out.stdout
    # period --seq reads a sequence named in the quiver file
    pentagon = tmp_path / "pentagon.quiver"
    pentagon.write_text("n 2\nlabels 1 2\nd 1 1\nb 0 1 -1 0\n"
                        "seq P 1 2 1 2 1 | (1 2)\n")
    out = run_cli("period", "--quiver", str(pentagon), "--seq", "P", "--cutoff", "3")
    assert out.returncode == 0 and json.loads(out.stdout)["status"] == "pass"
    # malformed quiver files: a short or long b row, a short or
    # non-integer d row, a matrix that is not skew-symmetrizable
    good = "n 2\nlabels 1 2\nd 1 1\nb 0 1 -1 0\n"
    malformed = []
    for i, (old, new) in enumerate((("b 0 1 -1 0", "b 0 1 -1"),
                                    ("b 0 1 -1 0", "b 0 1 -1 0 5"),
                                    ("d 1 1", "d 1"), ("d 1 1", "d 1 x"),
                                    ("b 0 1 -1 0", "b 0 1 1 0"))):
        path = tmp_path / f"malformed{i}.quiver"
        path.write_text(good.replace(old, new))
        malformed += [("quiver", "mutate", "--file", str(path), "--seq", "1"),
                      ("period", "--quiver", str(path), "--seq", "1,1")]
    # flags that no command reads are rejected
    out = run_cli("verify", "--task", "RE-P", "--constraints", "bogus")
    assert out.returncode == 2
    out = run_cli("limit", "--operator", "R-plus", "--ray", "bogus")
    assert out.returncode == 2
    # bad names end in a usage error, not a traceback
    for bad in (("limit", "--operator", "bogus"),
                ("verify", "--task", "FG-limit", "--operator", "bogus"),
                ("verify", "--task", "dilog-wd", "--system", "bogus"),
                ("verify", "--task", "TE-P", "--variant", "bogus"),
                ("verify", "--task", "diagram", "--variant", "bogus"),
                ("verify", "--task", "K-eps-indep", "--variant", "bogus",
                 "--cutoff", "1"),
                ("operator", "limit", "--name", "R+"),
                ("operator", "limit", "--name", "R+", "--ray", "bogus"),
                # bad signs, indices and limits
                ("verify", "--task", "RE-tau", "--signs=+-+"),
                ("operator", "show", "--name", "K-rho24++", "--indices", "1,2"),
                ("operator", "show", "--name", "R+", "--indices", "1,1,2"),
                ("operator", "limit", "--name", "K-rho24++", "--ray", "lim24"),
                # flags that the chosen task or action does not read
                ("verify", "--task", "RE-seed", "--variant", "bogus",
                 "--cutoff", "7", "--system", "pnK"),
                ("verify", "--task", "TE-tau", "--signs=+-"),
                ("operator", "show", "--name", "R+", "--ray", "lim24"),
                ("quiver", "show", "B(A2)", "--seq", "1,2"),
                # signs other than + or p and - or m, vertices that are not
                # there, frozen or not integers, and missing quivers
                ("verify", "--task", "TE-tau", "--signs=x"),
                ("verify", "--task", "RE-tau", "--signs=1,-1,1,-1,1,-1,1,-1"),
                ("period", "--quiver", "B(A2)", "--seq", "99"),
                ("period", "--quiver", "B(A2)", "--seq", "0"),
                ("quiver", "mutate", "--file", str(quiver), "--seq", "0"),
                ("quiver", "mutate", "--file", str(quiver), "--seq", "6,x"),
                ("quiver", "show"),
                ("quiver", "mutate", "--seq", "6"),
                # negative cutoffs
                ("verify", "--task", "K-eps-indep", "--cutoff", "-1"),
                ("verify", "--task", "lemma", "--cutoff", "-2"),
                ("period", "--quiver", "B(A2)", "--seq", "6,6", "--cutoff", "-1"),
                *malformed):
        out = run_cli(*bad)
        assert out.returncode == 2 and "Traceback" not in out.stderr, bad
        assert len(out.stderr.splitlines()) == 1 or "usage:" in out.stderr, bad
    # an unread positional argument is not named as a flag
    out = run_cli("quiver", "mutate", "B(A2)", "--file", str(quiver))
    assert out.returncode == 2
    assert out.stderr == "UsageError: quiver mutate does not read the name argument\n"


def test_composed_monomial_map_respects_target_commutation():
    stL, stR = V._torus_sides()
    target = builtin("B'(C3)")
    assert stL.seed == target
    assert stL.hom.respects_commutation(target)
    assert stR.hom.respects_commutation(target)


def test_composite_dilogs_match_transcribed_products():
    from qrefl.qtorus import QuantumTorus
    stL, stR = V._torus_sides()
    T = QuantumTorus(builtin("B(C3)"))
    for st, reference in ((stL, C.REFLECTION_LHS_FACTORS),
                        (stR, C.REFLECTION_RHS_FACTORS)):
        assert len(st.dilogs) == 46
        for (got_b, got_arg, got_e), (b, e, s, pw) in zip(st.dilogs, reference):
            assert (got_b, got_e) == (b, e)
            assert got_arg == T.monomial(s, pw)


def _perturb_each(base, prefer):
    from qrefl.params import LinSystem, ParamForm
    for i in range(len(base.constraints)):
        rows = [r if j != i else r + ParamForm({"zz": 1})
                for j, r in enumerate(base.constraints)]
        yield i, LinSystem(rows).eliminate(prefer)


def test_operator_level_constraint_necessity():
    # perturbing a relation the composite actually consumes must break
    # the identity; the rows that merely define symbols the monomial
    # tails never see (the first-slot sums and the a3/a6/a9 extension
    # rows) are inert at this level
    base = constraints("3dre")
    prefer = ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
              "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9",
              "c5", "c7", "c8", "zz")
    inert = []
    for i, rules in _perturb_each(base, prefer):
        if V.check_re_P(rules=rules).status:
            inert.append(i)
    assert inert == [0, 2, 5, 8, 15, 16, 17]


def test_eta_level_constraint_necessity():
    base = constraints("eta-3dre")
    prefer = ("e1", "e2", "e4", "e5", "e7", "e8", "c4", "c8", "c7",
              "a4", "a8", "a7", "zz")
    inert = []
    for i, rules in _perturb_each(base, prefer):
        if V.check_re_eta(rules=rules).status:
            inert.append(i)
    # the two sums that only define symbols outside the composite
    assert inert == [0, 3]


def test_operator_level_drop_last_block_fails_with_central_witness():
    # dropping the a-equals-c block entirely leaves a substituted system
    # under which the two sides differ
    full = constraints("recon1").extend(constraints("recon2"))
    rules = full.eliminate(("e1", "e2", "e4", "e5", "e7", "e8",
                            "e3", "e6", "e9", "c5", "c7", "c8"))
    rep = V.check_re_P(rules=rules)
    assert not rep.status
    assert rep.details.get("witness") or rep.details.get("outside_group")


def test_cli_out_file(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("verify", "--task", "TE-seed", "--out", str(out))
    assert r.returncode == 0
    data = json.loads(out.read_text())
    assert data["status"] == "pass"


def test_cli_quiver_mutate_roundtrip(tmp_path):
    show = run_cli("quiver", "show", "B(C2)")
    f = tmp_path / "c2.quiver"
    f.write_text(show.stdout)
    out = run_cli("quiver", "mutate", "--file", str(f),
                  "--seq", "8,3,9,2,7,4,9,2,8,3")
    assert out.returncode == 0
    target = run_cli("quiver", "show", "B'(C2)")
    assert out.stdout == target.stdout
