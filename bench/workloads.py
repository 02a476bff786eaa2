"""The three workloads: shared inputs, the operations of one round, and
the known answer each operation must give.

An operation is one call into a public function of ``qrefl.verify``.
Every round of a workload makes the same calls in the same order; the
seed chooses which factor each negative twin flips, which sign tuples
are checked one by one, and which coefficients the oracle samples.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

# verify functions the rounds call; each gets a verify.<name>.self_s metric
VERIFY_TASKS = (
    "check_re_full_torus", "check_re_full_weyl", "check_K_eps_indep",
    "search_good_signs_tau", "check_re_tau", "search_good_signs_eta",
    "check_re_eta", "search_good_signs_P", "check_re_P", "check_te_P",
    "check_wd", "check_diagram",
)

FULL_CUTOFF = 3          # the acceptance cutoff of RE-full
TWIN_CUTOFF = 2          # negative twins of RE-full
K_CUTOFF = 5             # K-eps-indep
K_TWIN_CUTOFF = 3        # its perturbed twins, one per K type
HOMOGENEOUS = {(1, 1), (1, -1), (-1, -1)}
P_REJECTED = ((1, 1), (-1, 1), (-1, -1))
WD_SYSTEMS = ("pnK", "alnK", "pnL", "pnR", "alL", "alR", "FFY", "FFuw")
SQUARES = ("Rcom1+", "Rcom1-", "Rcom2+", "Rcom2-", "Kcom")


class Failure(Exception):
    """A verdict that differs from the known answer."""


def expect(cond, msg):
    if not cond:
        raise Failure(msg)


def _grade(g, vec):
    return sum(gi * a for gi, a in zip(g, vec))


def _flip(factors, idx, pos):
    """The factor list with the exponent (at tuple position ``pos``) of
    factor ``idx`` negated."""
    out = list(factors)
    f = list(out[idx])
    f[pos] = -f[pos]
    out[idx] = tuple(f)
    return out


class Workload:
    """Set-up once, then ``ops()`` yields (task, thunk, check) per round."""

    name = None

    def __init__(self, seed):
        self.V = self.build()
        self.rng = random.Random(f"{self.name}:{seed}")
        self.last = {}          # task label -> result of the latest round
        self.choose()

    @classmethod
    def build(cls):
        """Import qrefl and build the workload's shared inputs, which
        ``verify`` caches: the work that set-up time covers."""
        import qrefl.verify as V
        cls.build_inputs(V)
        return V

    @staticmethod
    def build_inputs(V):
        raise NotImplementedError

    def choose(self):
        """The seeded choices of the benchmark itself."""
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def start_round(self):
        """Forget memos the program keeps between calls, so that every
        round does the work of a fresh invocation."""
        self.V._eta_side.__defaults__[0].clear()


class _FullIdentity(Workload):
    """RE-full at the acceptance cutoff plus a seeded negative twin."""

    task = None

    def choose(self):
        self.twin_side = self.rng.choice("LR")
        self.twin_pick = self.rng.random()
        self.twin_idx = None
        self.sample_seed = self.rng.getrandbits(32)

    def check_positive(self, rep):
        expect(rep.status, f"{self.task} at cutoff {FULL_CUTOFF} failed")
        expect(rep.details["constant_terms_one"], "constant term differs from 1")
        c = rep.counters
        expect(c["factors_per_side"] == 46, "not 46 factors per side")
        expect(c["terms_lhs"] == c["terms_rhs"], "term counts of the sides differ")
        for facs in self.factor_lists():
            bases = [f[0] for f in facs]
            expect(bases.count(1) == 31 and bases.count(2) == 15,
                   "not 31 base-q and 15 base-q^2 factors")
        self.grading = rep.details["grading"]
        if self.twin_idx is None:
            facs = self.factor_lists()["LR".index(self.twin_side)]
            low = [i for i, f in enumerate(facs)
                   if _grade(self.grading, self.arg_of(f)) <= TWIN_CUTOFF]
            self.twin_idx = low[int(self.twin_pick * len(low))]

    def twin(self):
        """The program's own check, run on sides with one factor flipped."""
        saved = self.cache["sides"]
        self.cache["sides"] = self.twin_sides()
        try:
            return getattr(self.V, self.task)(TWIN_CUTOFF)
        finally:
            self.cache["sides"] = saved

    def check_twin(self, rep):
        expect(not rep.status, f"negative twin (factor {self.twin_side}"
               f"{self.twin_idx} flipped) was accepted")
        expect(rep.details["constant_terms_one"],
               "negative twin failed on its constant term, not on the series")

    def oracle_checks(self):
        import oracle
        return [("coefficients against sympy",
                 lambda: oracle.check_scalars(self.oracle_series(), self.sample_seed)),
                ("dilogarithm identities", oracle.check_dilog_identities)]

    def ops(self):
        run = getattr(self.V, self.task)
        yield self.task, lambda: run(FULL_CUTOFF), self.check_positive
        yield self.task + "-twin", self.twin, self.check_twin


class FullTorus(_FullIdentity):
    name = "full-torus"
    task = "check_re_full_torus"

    @staticmethod
    def build_inputs(V):
        V._torus_sides()

    @property
    def sides(self):
        return self.V._torus_sides()

    @property
    def cache(self):
        return self.V._TORUS_CACHE

    def factor_lists(self):
        return [st.dilogs for st in self.sides]

    @staticmethod
    def arg_of(f):
        return f[1].alpha

    def twin_sides(self):
        stL, stR = self.sides
        out = [stL, stR]
        i = "LR".index(self.twin_side)
        out[i] = copy.copy(out[i])
        out[i].dilogs = _flip(out[i].dilogs, self.twin_idx, 2)
        return tuple(out)

    def oracle_series(self):
        from qrefl.qtorus import expand_product
        stL, stR = self.sides
        sL = expand_product(stL.dilogs, self.grading, TWIN_CUTOFF)
        sR = expand_product(stR.dilogs, self.grading, TWIN_CUTOFF)
        return [(sL.terms[a], sR.terms.get(a)) for a in sorted(sL.terms)]


class FullWeyl(_FullIdentity):
    name = "full-weyl"
    task = "check_re_full_weyl"

    @staticmethod
    def build_inputs(V):
        V._weyl_sides()

    @property
    def sides(self):
        return self.V._weyl_sides()

    @property
    def cache(self):
        return self.V._WEYL_CACHE

    def choose(self):
        super().choose()
        self.k_twins = self.choose_k_twins()

    def factor_lists(self):
        return list(self.sides)

    @staticmethod
    def arg_of(f):
        return f[2].cexp

    def twin_sides(self):
        out = list(self.sides)
        i = "LR".index(self.twin_side)
        out[i] = _flip(out[i], self.twin_idx, 1)
        return tuple(out)

    def choose_k_twins(self):
        """Per K type, a factor of one sign variant whose argument lies in
        the region where that variant is compared with another, so that
        flipping its exponent must show."""
        from qrefl import catalog as C
        from qrefl.qtorus import stiemke_grading
        from qrefl.qweyl import SPEC_C2
        twins = []
        for ktype, table in (("rho24", C.K24_WEYL), ("rho13", C.K13_WEYL)):
            vecs = {eps: [SPEC_C2.vec(cx) for _, _, _, cx in rows]
                    for eps, rows in table.items()}
            grads = {}
            for eps, vs in vecs.items():
                g = stiemke_grading(vs)
                low = min(_grade(g, v) for v in vs)
                grads[eps] = [Fraction(x, low) for x in g]
            cands = [(eps, j) for eps, vs in vecs.items()
                     for j, v in enumerate(vs)
                     if any(_grade(grads[eps], v) <= K_TWIN_CUTOFF
                            and _grade(grads[o], v) <= K_TWIN_CUTOFF
                            for o in table if o != eps)]
            twins.append((ktype, *cands[int(self.rng.random() * len(cands))]))
        return twins

    def k_twin(self, ktype, eps, j):
        from qrefl import catalog as C
        attr = "K24_WEYL" if ktype == "rho24" else "K13_WEYL"
        saved = getattr(C, attr)
        rows = list(saved[eps])
        b, e, p, cx = rows[j]
        rows[j] = (b, -e, p, cx)
        setattr(C, attr, {**saved, eps: rows})
        try:
            return self.V.check_K_eps_indep(ktype, K_TWIN_CUTOFF)
        finally:
            setattr(C, attr, saved)

    def ops(self):
        yield from super().ops()
        for ktype in ("rho24", "rho13"):
            yield ("check_K_eps_indep",
                   lambda k=ktype: self.V.check_K_eps_indep(k, K_CUTOFF),
                   self.check_k)
        for twin in self.k_twins:
            yield ("check_K_eps_indep-twin", lambda tw=twin: self.k_twin(*tw),
                   lambda rep, tw=twin: expect(
                       not rep.status, f"perturbed K variant {tw} was accepted"))

    @staticmethod
    def check_k(rep):
        expect(rep.status, "sign variants disagree")
        expect(rep.counters["pairs"] == 6, "not all six pairs compared")

    def oracle_series(self):
        from qrefl.qweyl import SPEC_C3, expand_weyl_product
        fL, fR = self.sides
        sL = expand_weyl_product(fL, SPEC_C3, self.grading, TWIN_CUTOFF)
        sR = expand_weyl_product(fR, SPEC_C3, self.grading, TWIN_CUTOFF)
        pairs = []
        for cexp in sorted(sL.terms):
            for key in sorted(sL.terms[cexp], key=repr):
                other = sR.terms.get(cexp, {}).get(key)
                pairs.append((sL.terms[cexp][key][1],
                              other[1] if other else None))
        return pairs


def _homog(pairs):
    return {p * 4 for p in pairs}


class FiniteLevels(Workload):
    name = "finite-levels"

    @staticmethod
    def build_inputs(V):
        # the certificates of the big systems read both sets of sides
        V._torus_sides()
        V._weyl_sides()

    def choose(self):
        from qrefl import catalog as C
        from qrefl.operators import constraints
        self.good13 = _homog(HOMOGENEOUS) | set(C.ETA_EXTRA_SIGNS)
        self.plans = set(C.STAGE_PLANS)
        n_econ_a = len(constraints("econ-a").constraints)
        n_kcon = (len(constraints("econ").constraints)
                  + len(constraints("ccon").constraints))
        self.drops = ([("Rcom1+", d) for d in range(n_econ_a)]
                      + [("Rcom2-", d) for d in range(n_econ_a)]
                      + [("Kcom", d) for d in range(n_kcon)])
        all_signs = [tuple(1 if (n >> b) & 1 else -1 for b in range(8))
                     for n in range(256)]
        good = sorted(self.good13)
        bad = sorted(set(all_signs) - self.good13)
        self.eta_sample = self.rng.sample(good, 2) + self.rng.sample(bad, 2)

    def ops(self):
        V = self.V
        yield ("tau search, homogeneous", lambda: V.search_good_signs_tau(True),
               self.check_homog)
        yield ("tau search, 2^8", lambda: V.search_good_signs_tau(False),
               self.check_full_search)
        yield ("eta search, homogeneous", lambda: V.search_good_signs_eta(True),
               self.check_homog)
        yield ("eta search, 2^8", lambda: V.search_good_signs_eta(False),
               self.check_full_search)
        for t in self.eta_sample:
            yield ("check_re_eta, seeded signs", lambda t=t: V.check_re_eta(t),
                   lambda rep, t=t: self.check_eta_one(rep, t))
        yield ("operator search", V.search_good_signs_P,
               lambda good: expect(good == [(1, -1)],
                                   f"operator-level signs {good}"))
        for pair in P_REJECTED:
            yield ("check_re_P, rejected signs", lambda p=pair: V.check_re_P(p * 4),
                   self.check_p_rejected)
        for w in ("P+", "P-", "Pbar-", "Pbar+"):
            yield ("check_te_P", lambda w=w: V.check_te_P(w),
                   lambda rep: expect(rep.status, rep.task + " failed"))
        for system in WD_SYSTEMS:
            yield (f"check_wd:{system}", lambda s=system: V.check_wd(s),
                   lambda rep, s=system: self.check_wd(rep, s))
        for name in SQUARES:
            yield ("check_diagram", lambda n=name: V.check_diagram(n),
                   lambda rep: expect(rep.status, rep.task + " failed"))
        for name, d in self.drops:
            yield ("check_diagram, dropped constraint",
                   lambda n=name, d=d: V.check_diagram(n, d),
                   self.check_drop)

    def oracle_checks(self):
        import oracle
        return [("finite-fiber gradings", lambda: oracle.check_gradings(
            [(s, self.last[f"check_wd:{s}"].details["grading"], self.V.wd_vectors(s))
             for s in WD_SYSTEMS]))]

    @staticmethod
    def check_homog(good):
        expect(set(good) == HOMOGENEOUS and len(good) == 3,
               f"homogeneous search gave {good}")

    def check_full_search(self, good):
        expect(set(good) == self.good13 and len(good) == 13,
               "full 2^8 search differs from the three homogeneous "
               "assignments plus catalog.ETA_EXTRA_SIGNS")

    def check_eta_one(self, rep, t):
        expect(rep.status == (t in self.good13), f"{rep.task}: wrong verdict")
        expect(rep.status or rep.details.get("witness"), "rejection without witness")

    @staticmethod
    def check_p_rejected(rep):
        expect(not rep.status, rep.task + " was accepted")
        expect(rep.details, rep.task + " was rejected without a reason")

    def check_wd(self, rep, system):
        expect(rep.status, rep.task + " failed")
        if system in self.plans:
            expect(rep.details["reference_plan_valid"] is True,
                   f"reference stage plan of {system} not valid")

    @staticmethod
    def check_drop(rep):
        expect(not rep.status, rep.task + " commutes")
        expect(rep.details.get("witness"), rep.task + ": no witness")


WORKLOADS = {w.name: w for w in (FullTorus, FullWeyl, FiniteLevels)}
