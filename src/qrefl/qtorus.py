"""Quantum torus algebra over an exchange seed, monomial maps, and the
graded-series kernel shared with the q-Weyl algebras.

Monomials use the symmetric normalization q^<a,b> Y^a Y^b = Y^(a+b) with
<a,b> = -a.Bhat.b, so Y^a Y^b = q^(a.Bhat.b) Y^(a+b) and the generators
satisfy Y_i Y_j = q^(2 bhat_ij) Y_j Y_i.  Coefficients are ScalarQ in
s = q^(1/2) (entries of Bhat can be half-integers).
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from math import floor, gcd, lcm
from operator import add, attrgetter, mul

from .cluster import ExchangeSeed, FrozenVertex, mutate_matrix
from .scalars import ONE, ScalarQ


class SeedMismatch(Exception):
    pass


class NonpositiveGrading(Exception):
    pass


class Infeasible(Exception):
    pass


class QuantumTorus:
    """Ambient torus: ordered labels plus the Bhat pairing."""

    __slots__ = ("labels", "_index", "_bhat", "_skew")

    def __init__(self, seed: ExchangeSeed):
        self.labels = seed.labels
        self._index = {l: i for i, l in enumerate(self.labels)}
        lab = self.labels
        self._bhat = [[seed.bhat(i, j) for j in lab] for i in lab]
        self._skew = None

    def skew(self):
        """Sparse integer rows of 2*Bhat, the s-exponent form of the
        product; built on first use, since most tori never carry a series."""
        if self._skew is None:
            two = [[2 * b for b in row] for row in self._bhat]
            if any(x != int(x) for row in two for x in row):
                raise ValueError("Bhat has entries outside (1/2)Z")
            self._skew = [[(j, int(x)) for j, x in enumerate(row) if x]
                          for row in two]
        return self._skew

    def n(self):
        return len(self.labels)

    def index(self, label):
        return self._index[label]

    def pairing(self, a, b) -> Fraction:
        """a . Bhat . b for integer exponent vectors."""
        tot = Fraction(0)
        bh = self._bhat
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = bh[i]
            for j, bj in enumerate(b):
                if bj and row[j]:
                    tot += ai * row[j] * bj
        return tot

    def ordering_twist(self, a) -> Fraction:
        """sum_{i<j} a_i a_j bhat_ij: Y^a is q^-twist times the ordered
        product of the generator powers Y_1^a_1 ... Y_n^a_n."""
        tot = Fraction(0)
        bh = self._bhat
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = bh[i]
            for j in range(i + 1, len(a)):
                if a[j] and row[j]:
                    tot += ai * row[j] * a[j]
        return tot

    def unit(self, label):
        return tuple(1 if l == label else 0 for l in self.labels)

    def element(self, coeff: ScalarQ, alpha) -> "TorusElement":
        return TorusElement(self, coeff, tuple(alpha))

    def gen(self, label, power=1) -> "TorusElement":
        a = tuple(power if l == label else 0 for l in self.labels)
        return TorusElement(self, ONE, a)

    def one(self) -> "TorusElement":
        return TorusElement(self, ONE, (0,) * self.n())

    def monomial(self, s_exp: int, powers) -> "TorusElement":
        """Ordered product q^(s_exp/2-ish) * prod Y_label^power.

        ``powers`` is a sequence of (label, power); the product is taken
        left to right and normalized symmetrically.  ``s_exp`` is the
        exponent of s in the prefactor.
        """
        out = self.element(ScalarQ.s_pow(s_exp), (0,) * self.n())
        for label, p in powers:
            out = out * self.gen(label, p)
        return out


class TorusElement:
    """coeff * Y^alpha in symmetric normalization."""

    __slots__ = ("torus", "coeff", "alpha")

    def __init__(self, torus: QuantumTorus, coeff: ScalarQ, alpha: tuple):
        self.torus = torus
        self.coeff = coeff
        self.alpha = alpha

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        if self.torus is not other.torus:
            raise SeedMismatch("elements from different tori")
        pair = self.torus.pairing(self.alpha, other.alpha)
        c = self.coeff * other.coeff * ScalarQ.q_pow(pair)
        return TorusElement(self.torus, c,
                            tuple(a + b for a, b in zip(self.alpha, other.alpha)))

    def inverse(self) -> "TorusElement":
        return TorusElement(self.torus, self.coeff.inverse(),
                            tuple(-a for a in self.alpha))

    def pow(self, n: int) -> "TorusElement":
        # (c Y^a)^n = c^n Y^(na): the pairing of a with itself vanishes
        if n == 0:
            return self.torus.one()
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            c = out.coeff * base.coeff
            out = TorusElement(self.torus, c,
                               tuple(a + b for a, b in zip(out.alpha, base.alpha)))
        return out

    def commutes_with(self, other: "TorusElement") -> bool:
        return self.torus.pairing(self.alpha, other.alpha) == \
            self.torus.pairing(other.alpha, self.alpha)

    def __eq__(self, other):
        return (isinstance(other, TorusElement) and self.alpha == other.alpha
                and self.coeff == other.coeff)

    def __repr__(self):
        terms = "".join(
            f"Y{l}^{p}" if p != 1 else f"Y{l}"
            for l, p in zip(self.torus.labels, self.alpha) if p)
        return f"{self.coeff.as_pair_str()}*{terms or '1'}"


class TorusHom:
    """Monomial homomorphism between quantum tori, given on generators.

    ``source`` is the QuantumTorus of the domain (its pairing is needed
    to push general monomials through), ``images`` maps source labels to
    TorusElements of the target.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: QuantumTorus, target: QuantumTorus, images: dict):
        self.source = source
        self.target = target
        self.images = images

    @classmethod
    def identity(cls, torus: QuantumTorus):
        return cls(torus, torus, {l: torus.gen(l) for l in torus.labels})

    def apply(self, x: TorusElement) -> TorusElement:
        if x.torus is not self.source and x.torus.labels != self.source.labels:
            raise SeedMismatch("element not over the hom's source torus")
        twist = ScalarQ.q_pow(-self.source.ordering_twist(x.alpha))
        out = self.target.element(x.coeff * twist, (0,) * self.target.n())
        for l, a in zip(self.source.labels, x.alpha):
            if a:
                out = out * self.images[l].pow(a)
        return out

    def compose(self, inner: "TorusHom") -> "TorusHom":
        """self o inner (inner applied first)."""
        if inner.target is not self.source and \
                inner.target.labels != self.source.labels:
            raise SeedMismatch("homs not composable")
        images = {l: self.apply(img) for l, img in inner.images.items()}
        return TorusHom(inner.source, self.target, images)

    def respects_commutation(self, source_seed: ExchangeSeed) -> bool:
        """Images must q-commute exactly like the source generators."""
        lab = source_seed.labels
        for a in lab:
            for b in lab:
                lhs = self.images[a] * self.images[b]
                rhs = self.images[b] * self.images[a]
                want = ScalarQ.q_pow(2 * source_seed.bhat(a, b))
                if lhs.coeff != rhs.coeff * want or lhs.alpha != rhs.alpha:
                    return False
        return True

    def __eq__(self, other):
        if not isinstance(other, TorusHom):
            return NotImplemented
        if set(self.images) != set(other.images):
            return False
        return all(self.images[l] == other.images[l] for l in self.images)

    def first_difference(self, other: "TorusHom"):
        for l in sorted(self.images):
            if self.images[l] != other.images[l]:
                return l, self.images[l], other.images[l]
        return None


def perm_hom(torus_src: QuantumTorus, torus_tgt: QuantumTorus, sigma) -> TorusHom:
    """Relabeling homomorphism: Y'_i -> Y_{sigma^-1(i)}."""
    inv = sigma.inv()
    images = {l: torus_tgt.gen(inv(l)) for l in torus_src.labels}
    return TorusHom(torus_src, torus_tgt, images)


def tau_step(seed: ExchangeSeed, k, eps: int,
             torus_src: QuantumTorus = None,
             torus_tgt: QuantumTorus = None) -> TorusHom:
    """Monomial part of a single mutation at k with decomposition sign eps.

    Maps the torus of mutate_matrix(seed, k) to the torus of seed:
    Y'_k -> Y_k^-1 and Y'_i -> Y^(e_i + [eps b_ik]_+ e_k).
    """
    if k in seed.frozen:
        raise FrozenVertex(k)
    torus_tgt = torus_tgt or QuantumTorus(seed)
    torus_src = torus_src or QuantumTorus(mutate_matrix(seed, k))
    images = {}
    for i in seed.labels:
        if i == k:
            images[i] = torus_tgt.gen(k, -1)
        else:
            m = eps * seed.entry(i, k)
            mplus = int(m) if m > 0 else 0
            a = [0] * torus_tgt.n()
            a[torus_tgt.index(i)] += 1
            a[torus_tgt.index(k)] += mplus
            images[i] = torus_tgt.element(ONE, tuple(a))
    return TorusHom(torus_src, torus_tgt, images)


# ---------------------------------------------------------------------------
# graded truncated series


class GradedSeries:
    """Finite sum of monomials X^alpha of grading degree <= cutoff.

    The grading and the cutoff are scaled to integers once, so the
    truncation test and the s-exponent alpha.S.beta of X^alpha X^beta (S
    the integer skew form of the ring) need no Fraction arithmetic.
    Subclasses keep the coefficient layout of ``terms``.
    """

    __slots__ = ("grading", "cutoff", "terms", "_skew", "_g", "_top")

    def __init__(self, skew, grading, cutoff, terms=None):
        self.grading = tuple(grading)
        self.cutoff = cutoff
        self.terms = terms or {}
        self._skew = skew
        scale = lcm(*(Fraction(g).denominator for g in self.grading))
        self._g = tuple(int(g * scale) for g in self.grading)
        self._top = floor(cutoff * scale)

    def gdeg(self, alpha) -> int:
        """Degree of X^alpha in the integer grading (grading times scale)."""
        return sum(map(mul, self._g, alpha))

    def keeps(self, alpha) -> bool:
        return self.gdeg(alpha) <= self._top

    def _like(self):
        """An empty series over the same ring, grading and cutoff."""
        out = copy(self)
        out.terms = {}
        return out

    def _moves(self, beta):
        """(alpha + beta, s-exponent of X^alpha X^beta, terms[alpha]) for
        every term whose product with X^beta survives the truncation."""
        top = self._top - self.gdeg(beta)
        col = [(i, v) for i, row in enumerate(self._skew)
               if (v := sum(x * beta[j] for j, x in row))]
        g = self._g
        for alpha, c in self.terms.items():
            if sum(map(mul, g, alpha)) <= top:
                yield (tuple(map(add, alpha, beta)),
                       sum(alpha[i] * v for i, v in col), c)

    def expand(self, factors):
        """self times prod Psi_{q^base}(arg)^expo over ``factors``
        (base, expo, arg), left to right, each truncated to the cutoff."""
        acc = self
        for base, expo, arg in factors:
            d = self.gdeg(self._exponent(arg))
            if d <= 0:
                raise NonpositiveGrading(f"factor argument {arg} of grade <= 0")
            new = self._like()
            for n, c in enumerate(dilog_coefficients(base, expo, self._top // d)):
                new += acc._mul_power(arg.pow(n), c)
            acc = new
        return acc


class TorusSeries(GradedSeries):
    """Truncated torus series: alpha -> ScalarQ."""

    __slots__ = ("torus",)

    def __init__(self, torus, grading, cutoff, terms=None):
        super().__init__(torus.skew(), grading, cutoff, terms)
        self.torus = torus

    @classmethod
    def one(cls, torus, grading, cutoff):
        return cls(torus, grading, cutoff, {(0,) * torus.n(): ONE})

    def add_term(self, alpha, coeff):
        cur = self.terms.get(alpha)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.terms.pop(alpha, None)
        else:
            self.terms[alpha] = new

    def mul_monomial(self, coeff: ScalarQ, beta: tuple) -> "TorusSeries":
        out = self._like()
        for alpha, s, c in self._moves(beta):
            out.add_term(alpha, c * coeff * ScalarQ.s_pow(s))
        return out

    _exponent = staticmethod(attrgetter("alpha"))

    def _mul_power(self, p, c):
        return self.mul_monomial(p.coeff * c, p.alpha)

    def __iadd__(self, other: "TorusSeries") -> "TorusSeries":
        for a, c in other.terms.items():
            self.add_term(a, c)
        return self

    def __eq__(self, other):
        if not isinstance(other, TorusSeries):
            return NotImplemented
        return self.first_difference(other) is None

    def first_difference(self, other: "TorusSeries"):
        """(alpha, own coefficient, other coefficient) at the first exponent
        where the two series differ, or None when they are equal."""
        zero = ScalarQ.zero()
        for alpha in {**self.terms, **other.terms}:
            mine = self.terms.get(alpha, zero)
            theirs = other.terms.get(alpha, zero)
            if mine != theirs:
                return alpha, mine, theirs
        return None

    def constant_term(self) -> ScalarQ:
        return self.terms.get((0,) * self.torus.n(), ScalarQ.zero())

    def __repr__(self):
        return f"TorusSeries({len(self.terms)} terms, cutoff={self.cutoff})"


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


def dilog_coefficients(base: int, expo: int, nmax: int):
    """Coefficients c_n of Psi_{q^base}(U)^expo = sum c_n U^n, n <= nmax."""
    out = [ONE]
    for n in range(1, nmax + 1):
        if expo == 1:
            num = {2 * base * n: (-1) ** n}
        else:
            num = {2 * base * n * n: 1}
        out.append(ScalarQ.qpoch_inv(base, n, num))
    return out


def expand_product(factors, grading, cutoff, torus=None) -> TorusSeries:
    """Exact truncated product of dilogarithm factors, left to right.

    ``factors`` is a list of (base, arg: TorusElement, expo).
    """
    if torus is None and not factors:
        raise ValueError("empty product needs an explicit torus")
    one = TorusSeries.one(torus or factors[0][1].torus, grading, cutoff)
    return one.expand((base, expo, arg) for base, arg, expo in factors)


# ---------------------------------------------------------------------------
# finiteness certificates: positive grading / recession cone


def stiemke_grading(args, strict=Fraction(1)):
    """Integer functional g with g(arg) >= 1 for every exponent vector.

    Exact rational phase-1 simplex; raises Infeasible when some
    nonnegative combination of the args vanishes (nontrivial recession
    cone).
    """
    rows = [tuple(a) for a in args]
    if not rows:
        raise ValueError("no arguments")
    rows = sorted(set(rows))
    n = len(rows[0])
    sol = _solve_lp_geq(rows, [strict] * len(rows), n)
    if sol is None:
        raise Infeasible("no positive grading exists")
    den = lcm(*(v.denominator for v in sol))
    return tuple(int(v * den) for v in sol)


def _solve_lp_geq(rows, rhs, nvars):
    """Feasible x (free sign) with rows[i] . x >= rhs[i], or None.

    Phase-1 simplex over exact rationals: write x = xp - xm and
    rows.x - slack = rhs with xp, xm, slack >= 0, then drive artificial
    variables to zero (Bland-style tie break, so it terminates).
    """
    m = len(rows)
    ncols = 2 * nvars + m           # xp, xm, slack
    total = ncols + m               # + artificials
    rows_t = []
    for i, row in enumerate(rows):
        r = [Fraction(x) for x in row] + [Fraction(-x) for x in row]
        r += [Fraction(-1) if j == i else Fraction(0) for j in range(m)]
        b = Fraction(rhs[i])
        if b < 0:
            r = [-x for x in r]
            b = -b
        r += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        r.append(b)
        rows_t.append(r)
    basis = [ncols + i for i in range(m)]
    z = [Fraction(0)] * (total + 1)
    for r in rows_t:
        for j in range(total + 1):
            z[j] += r[j]
    for j in range(ncols, total):
        z[j] = Fraction(0)
    while True:
        piv_col = next((j for j in range(ncols) if z[j] > 0), None)
        if piv_col is None:
            break
        piv_row, best = None, None
        for i, r in enumerate(rows_t):
            if r[piv_col] > 0:
                ratio = r[total] / r[piv_col]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[piv_row]):
                    best, piv_row = ratio, i
        if piv_row is None:
            return None
        pv = rows_t[piv_row][piv_col]
        rows_t[piv_row] = [x / pv for x in rows_t[piv_row]]
        pr = rows_t[piv_row]
        for i in range(m):
            if i != piv_row and rows_t[i][piv_col]:
                f = rows_t[i][piv_col]
                rows_t[i] = [a - f * b for a, b in zip(rows_t[i], pr)]
        if z[piv_col]:
            f = z[piv_col]
            z = [a - f * b for a, b in zip(z, pr)]
        basis[piv_row] = piv_col
    if z[total] != 0:
        return None
    x = [Fraction(0)] * ncols
    for i, bcol in enumerate(basis):
        if bcol < ncols:
            x[bcol] = rows_t[i][total]
    return [x[j] - x[nvars + j] for j in range(nvars)]


def recession_cone_trivial_fm(args) -> bool:
    """Fourier-Motzkin check that {n >= 0 : sum n_i args_i = 0} = {0}.

    Intended for small systems (few factors); eliminates the n variables
    from [n >= 0, A^T n = 0, sum n >= 1].  Rows stay integer and
    primitive, duplicates merge, and rows with no variables left that
    hold trivially are dropped, so the row count stays small.
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


def staged_certificate(args):
    """Greedy staged-elimination certificate of recession-cone triviality.

    Returns a list of stages [(rows, cols), ...]: at each stage the listed
    coordinate rows are single-signed on the not-yet-bounded columns, so
    fixing their values bounds those columns.  Returns None when the
    greedy process stalls before bounding every column.
    """
    m = len(args)
    if m == 0:
        return []
    n = len(args[0])
    remaining = set(range(m))
    stages = []
    while remaining:
        stage_rows = []
        stage_cols = set()
        for coord in range(n):
            col = {i for i in remaining if args[i][coord]}
            if not col:
                continue
            signs = {1 if args[i][coord] > 0 else -1 for i in col}
            if len(signs) == 1:
                stage_rows.append(coord)
                stage_cols |= col
        if not stage_cols:
            return None
        stages.append((sorted(stage_rows), sorted(stage_cols)))
        remaining -= stage_cols
    return stages


def check_stage_plan(args, plan) -> bool:
    """Validate an explicit staged plan [(rows, cols), ...] as a certificate."""
    m = len(args)
    remaining = set(range(m))
    for rows, cols in plan:
        colset = set(cols)
        if not colset <= remaining:
            return False
        covered = set()
        for coord in rows:
            col = {i for i in remaining if args[i][coord]}
            signs = {1 if args[i][coord] > 0 else -1 for i in col}
            if len(signs) > 1:
                return False
            covered |= col
        if not colset <= covered:
            return False
        remaining -= colset
    return not remaining


def match_stage_plan(args, plan):
    """Validate a reference staged plan whose row indices are a permutation.

    For each stage, the plan's rows must be assignable (injectively) to
    coordinates that are single-signed on the not-yet-bounded columns and
    whose supports cover exactly the stage's column set.  Returns the
    assignment {plan_row: coordinate} or None.
    """
    m = len(args)
    n = len(args[0]) if args else 0
    remaining = set(range(m))
    used = set()
    assign = {}
    for rows, cols in plan:
        colset = set(cols)
        cands = []
        for coord in range(n):
            if coord in used:
                continue
            sup = {i for i in remaining if args[i][coord]}
            if not sup or not sup <= colset:
                continue
            signs = {1 if args[i][coord] > 0 else -1 for i in sup}
            if len(signs) == 1:
                cands.append((coord, frozenset(sup)))
        chosen = _cover_exact(cands, frozenset(colset), len(rows))
        if chosen is None:
            return None
        for r, coord in zip(rows, chosen):
            assign[r] = coord
        used.update(chosen)
        remaining -= colset
    if remaining:
        return None
    return assign


def _cover_exact(cands, target, count):
    """Pick ``count`` candidates whose supports union to ``target``."""
    def rec(idx, left, picked):
        if len(picked) == count:
            return list(picked) if not left else None
        if idx >= len(cands):
            return None
        coord, sup = cands[idx]
        out = rec(idx + 1, left - sup, picked + [coord])
        if out is not None:
            return out
        return rec(idx + 1, left, picked)
    return rec(0, target, [])
