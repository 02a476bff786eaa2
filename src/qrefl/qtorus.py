"""Quantum torus algebra over an exchange seed, monomial maps, and the
graded-series kernel shared with the q-Weyl algebras.

Monomials use the symmetric normalization q^<a,b> Y^a Y^b = Y^(a+b) with
<a,b> = -a.Bhat.b, so Y^a Y^b = q^(a.Bhat.b) Y^(a+b) and the generators
satisfy Y_i Y_j = q^(2 bhat_ij) Y_j Y_i.  Coefficients are ScalarQ in
s = q^(1/2) (entries of Bhat can be half-integers), so the product rule
is Y^a Y^b = s^(a.S.b) Y^(a+b) with the integer skew form S = 2*Bhat.
The q-Weyl algebras share the rule with S = omega.  Both forms are
sparse integer rows {j: S_ij}, read by ``skew_pair``; a torus reads those
of its seed.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from math import floor, lcm
from operator import add, attrgetter, mul

from .cluster import ExchangeSeed
from .gradings import GRADINGS
from .params import pivot
from .scalars import ONE, ScalarQ


class SeedMismatch(Exception):
    pass


class NonpositiveGrading(Exception):
    pass


class Infeasible(Exception):
    pass


class GradingCheckFailed(Exception):
    """A grading, stored or solved, gives some argument degree below one."""


def skew_image(rows, b) -> list:
    """S.b for the integer skew form S with sparse rows ``rows``
    (rows[i] = {j: S_ij} for S_ij != 0); by skewness it is read off the
    rows of the support of b."""
    out = [0] * len(rows)
    for j, bj in enumerate(b):
        if bj:
            for i, x in rows[j].items():
                out[i] -= x * bj
    return out


def skew_pair(rows, a, b) -> int:
    """a.S.b, the s-exponent of the product X^a X^b of two monomials in a
    ring whose product rule is the integer skew form S."""
    return sum(map(mul, a, skew_image(rows, b)))


def combine(vecs, alpha, n) -> tuple:
    """sum_i alpha_i vecs[i], each of length n: the integer matrix with
    columns ``vecs`` applied to the exponent vector alpha."""
    out = [0] * n
    for a, v in zip(alpha, vecs):
        if a:
            for j, x in enumerate(v):
                if x:
                    out[j] += a * x
    return tuple(out)


def preserves_skew(src_rows, tgt_rows, vecs) -> bool:
    """Whether e_i -> vecs[i] carries the skew form S with sparse rows
    ``src_rows`` to S' with rows ``tgt_rows``: M^T S' M = S, that is
    vecs[a].S'.vecs[b] = S_ab for every pair."""
    cols = [skew_image(tgt_rows, v) for v in vecs]
    return all(sum(map(mul, va, cols[b])) == src_rows[a].get(b, 0)
               for a, va in enumerate(vecs) for b in range(len(vecs)))


class QuantumTorus:
    """Ambient torus of a seed: its ordered labels and the integer skew
    form S = 2*Bhat, both read from the seed, which stores nothing else
    the torus needs."""

    __slots__ = ("labels", "_index", "_rows")

    def __init__(self, seed: ExchangeSeed):
        self.labels, self._index, self._rows = seed.labels, seed.index, seed.rows

    def skew(self):
        """Sparse integer rows of 2*Bhat, the s-exponent form of the product."""
        return self._rows

    def n(self):
        return len(self.labels)

    def index(self, label):
        return self._index[label]

    def pairing(self, a, b) -> Fraction:
        """a . Bhat . b for integer exponent vectors."""
        return Fraction(skew_pair(self._rows, a, b), 2)

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
        """s^s_exp times the ordered product of the generator powers
        ``powers``, a sequence of (label, power) taken left to right."""
        alpha, t = [0] * self.n(), s_exp
        for label, p in powers:
            i = self._index[label]
            # Y^alpha Y_i^p = s^(alpha.S.p e_i) Y^(alpha + p e_i)
            t -= p * sum(x * alpha[j] for j, x in self._rows[i].items())
            alpha[i] += p
        return self.element(ScalarQ.s_pow(t), alpha)


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
        s = skew_pair(self.torus._rows, self.alpha, other.alpha)
        c = self.coeff * other.coeff * ScalarQ.s_pow(s)
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
        return skew_pair(self.torus._rows, self.alpha, other.alpha) == 0

    def __eq__(self, other):
        return (isinstance(other, TorusElement) and self.alpha == other.alpha
                and self.coeff == other.coeff)

    def __repr__(self):
        terms = "".join(
            f"Y{l}^{p}" if p != 1 else f"Y{l}"
            for l, p in zip(self.torus.labels, self.alpha) if p)
        return f"{self.coeff.as_pair_str()}*{terms or '1'}"


class TorusHom:
    """Monomial homomorphism between quantum tori as an integer matrix M:
    ``images`` maps each source label to the exponent vector over
    ``target`` of its generator's image.  M preserves the skew forms (the
    walk's maps by construction, table data by ``hom_from_table``), so the
    ordering twists cancel and c*Y^alpha goes to c*Y^(M alpha)."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: QuantumTorus, target: QuantumTorus, images: dict):
        self.source = source
        self.target = target
        self.images = images

    def apply_vec(self, alpha) -> tuple:
        return combine(map(self.images.__getitem__, self.source.labels), alpha,
                       self.target.n())

    def apply(self, x: TorusElement) -> TorusElement:
        if x.torus is not self.source and x.torus.labels != self.source.labels:
            raise SeedMismatch("element not over the hom's source torus")
        return TorusElement(self.target, x.coeff, self.apply_vec(x.alpha))

    def respects_commutation(self) -> bool:
        """Images must q-commute exactly like the source generators."""
        return preserves_skew(self.source.skew(), self.target.skew(),
                              [self.images[l] for l in self.source.labels])

    @classmethod
    def identity(cls, torus: QuantumTorus):
        return cls(torus, torus, {l: torus.unit(l) for l in torus.labels})

    def compose(self, inner: "TorusHom") -> "TorusHom":
        """self o inner (inner applied first)."""
        if inner.target is not self.source and \
                inner.target.labels != self.source.labels:
            raise SeedMismatch("homs not composable")
        images = {l: self.apply_vec(v) for l, v in inner.images.items()}
        return TorusHom(inner.source, self.target, images)

    def __eq__(self, other):
        if not isinstance(other, TorusHom):
            return NotImplemented
        return self.images == other.images

    def first_difference(self, other: "TorusHom"):
        for l in sorted(self.images):
            if self.images[l] != other.images[l]:
                return (l, self.target.element(ONE, self.images[l]),
                        other.target.element(ONE, other.images[l]))
        return None


def perm_hom(torus_src: QuantumTorus, torus_tgt: QuantumTorus, sigma) -> TorusHom:
    """Relabeling homomorphism: Y'_i -> Y_{sigma^-1(i)}."""
    inv = sigma.inv()
    images = {l: torus_tgt.unit(inv(l)) for l in torus_src.labels}
    return TorusHom(torus_src, torus_tgt, images)


# ---------------------------------------------------------------------------
# graded truncated series


class GradedSeries:
    """Finite sum of monomials c X^alpha of grading degree <= cutoff, held
    flat as ``flat`` = {alpha: c}, c a nonzero ScalarQ.

    The grading and the cutoff are scaled to integers once, so the
    truncation test and the s-exponent alpha.S.beta of X^alpha X^beta (S
    the integer skew form of the ring) need no Fraction arithmetic.  An
    exponent may run past the grading with central coordinates, which
    have degree zero and zero rows in S; its first len(grading)
    coordinates are its ring part.  Subclasses say how a monomial gives
    its exponent (``_exponent``), how an exponent reads back (``_split``)
    and which ring and basis the exponents are over (``_ring``).
    """

    __slots__ = ("grading", "cutoff", "flat", "_skew", "_g", "_top")

    def __init__(self, skew, grading, cutoff, flat=None):
        self.grading = tuple(grading)
        self.cutoff = cutoff
        self.flat = flat or {}
        self._skew = skew
        scale = lcm(*(Fraction(g).denominator for g in self.grading))
        self._g = tuple(int(g * scale) for g in self.grading)
        self._top = floor(cutoff * scale)

    def gdeg(self, alpha) -> int:
        """Degree of X^alpha in the integer grading (grading times scale);
        coordinates past the grading count zero."""
        return sum(map(mul, self._g, alpha))

    def keeps(self, alpha) -> bool:
        return self.gdeg(alpha) <= self._top

    def add_term(self, alpha, coeff):
        """Add coeff * X^alpha; a sum that cancels is deleted."""
        cur = self.flat.get(alpha)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.flat.pop(alpha, None)
        else:
            self.flat[alpha] = new

    def _like(self, flat=None):
        """A series over the same ring, grading and cutoff, empty or with
        the given ``flat`` terms."""
        out = copy(self)
        out.flat = flat or {}
        return out

    def _merge(self, dests, terms, beta, coeffs):
        """For every term c X^alpha of ``terms`` and n = 1, 2, ..., add
        c * coeffs[n-1] * X^alpha X^(n beta) into dests[n-1], all of them
        {alpha: ScalarQ}; a sum that cancels is deleted.  X^beta pairs to
        zero with itself, so the product is c coeffs[n-1] s^(n alpha.S.beta)
        X^(alpha + n beta), and alpha.S.beta is computed once a term.  Only
        the support of beta and of S.beta is read: an argument is sparse,
        and its central coordinates pair with nothing."""
        col = skew_image(self._skew, beta)
        while col and not col[-1]:
            col.pop()
        support = [(i, b) for i, b in enumerate(beta) if b]
        steps = list(zip(dests, coeffs))
        for alpha, c in terms.items():
            s = sum(map(mul, alpha, col))
            k, gamma = 0, list(alpha)
            for dest, cn in steps:
                k += s
                for i, b in support:
                    gamma[i] += b
                key = tuple(gamma)
                v = c.mul_shift(cn, k)
                cur = dest.setdefault(key, v)
                if cur is not v:
                    v = cur + v
                    if v.is_zero():
                        del dest[key]
                    else:
                        dest[key] = v

    def _times(self, monomial, coeff):
        """self times coeff * monomial, truncated to the cutoff."""
        out = self._like()
        if coeff.is_zero() or monomial.coeff.is_zero():
            return out
        beta = self._exponent(monomial)
        top = self._top - self.gdeg(beta)
        self._merge([out.flat], {a: v for a, v in self.flat.items()
                                 if self.gdeg(a) <= top},
                    beta, [monomial.coeff * coeff])
        return out

    def expand(self, factors):
        """self, truncated to the cutoff, times prod Psi_{q^base}(arg)^expo
        over ``factors`` (base, expo, arg), left to right, each truncated
        to the cutoff; the terms come out in order of nondecreasing degree.

        The running product is kept by degree, {e: {exponent: value}}.
        Psi has constant coefficient 1, so a factor c X^beta of degree d
        adds the products of bucket e with its n-th power term,
        c_n c^n X^(n beta), into bucket e + n*d, for 1 <= n <= min((top -
        e) // d, top // d), each term of bucket e meeting all its powers
        in one pass (``_merge``).  The buckets are read from the highest
        degree down: every bucket a product lands in has been read
        already, so none changes before it is read.  The dilogarithm
        coefficients are computed once per (base, expo, top // d) in one
        expansion."""
        top = self._top
        acc = {}
        for alpha, v in self.flat.items():
            e = self.gdeg(alpha)
            if e <= top:
                acc.setdefault(e, {})[alpha] = v
        dilogs = {}
        for base, expo, arg in factors:
            beta = self._exponent(arg)
            d = self.gdeg(beta)
            if d <= 0:
                raise NonpositiveGrading(f"factor argument {arg} of grade <= 0")
            key = (base, expo, top // d)
            coeffs = dilogs.get(key)
            if coeffs is None:
                coeffs = dilogs[key] = dilog_coefficients(*key)[1:]
            m = arg.coeff
            if m != ONE:
                mn, powers = m, []
                for c in coeffs:
                    powers.append(mn * c)
                    mn = mn * m
                coeffs = powers
            for e in sorted(acc, reverse=True):
                n = min((top - e) // d, len(coeffs))
                if n > 0:
                    self._merge([acc.setdefault(e + i * d, {}) for i in range(1, n + 1)],
                                acc[e], beta, coeffs[:n])
        return self._like({a: v for e in sorted(acc) for a, v in acc[e].items()})

    def ring_parts(self, other) -> dict:
        """{ring part: [exponents]} over the exponents of both series,
        each once, the ring parts in the order in which the series first
        hold them, own series first."""
        n, out = len(self.grading), {}
        for alpha in {**self.flat, **other.flat}:
            out.setdefault(alpha[:n], []).append(alpha)
        return out

    def first_difference(self, other, region=None):
        """(*decoded exponent, own coefficient, other coefficient) at the
        first term where the two series differ, or None when they agree;
        with ``region``, only ring parts where region(part) holds count.
        A difference is looked for ring part by ring part (``ring_parts``).
        Series over different rings or bases raise SeedMismatch."""
        if self._ring() != other._ring():
            raise SeedMismatch("series over different rings or bases")
        a, b = self.flat, other.flat
        if a == b:
            return None
        zero = ScalarQ.zero()
        for part, alphas in self.ring_parts(other).items():
            if region is not None and not region(part):
                continue
            for alpha in alphas:
                c1, c2 = a.get(alpha, zero), b.get(alpha, zero)
                if c1 != c2:
                    return (*self._split(alpha), c1, c2)
        return None

    def constant_is_one(self) -> bool:
        """True when the constant term is exactly 1: the zero ring part
        holds the zero exponent alone, with coefficient 1."""
        n, zero = len(self.grading), (0,) * len(self._skew)
        at_zero = [alpha for alpha in self.flat if not any(alpha[:n])]
        return at_zero == [zero] and self.flat[zero] == ONE

    def __len__(self):
        return len(self.flat)


class TorusSeries(GradedSeries):
    """Truncated torus series: alpha -> ScalarQ, the flat layout itself."""

    __slots__ = ("torus",)

    terms = GradedSeries.flat    # a torus series reads its terms flat

    def __init__(self, torus, grading, cutoff, terms=None):
        super().__init__(torus.skew(), grading, cutoff, terms)
        self.torus = torus

    @classmethod
    def one(cls, torus, grading, cutoff):
        return cls(torus, grading, cutoff, {(0,) * torus.n(): ONE})

    def mul_monomial(self, coeff: ScalarQ, beta: tuple) -> "TorusSeries":
        return self._times(self.torus.element(ONE, beta), coeff)

    _exponent = staticmethod(attrgetter("alpha"))

    def _split(self, alpha):
        return (alpha,)

    def _ring(self):
        return self.torus.labels

    def __eq__(self, other):
        if not isinstance(other, TorusSeries):
            return NotImplemented
        return self.first_difference(other) is None

    def __repr__(self):
        return f"TorusSeries({len(self.terms)} terms, cutoff={self.cutoff})"


def dilog_coefficients(base: int, expo: int, nmax: int):
    """Coefficients c_n of Psi_{q^base}(U)^expo = sum c_n U^n, n <= nmax,
    for expo = 1 or -1 and base >= 1."""
    if expo not in (1, -1):
        raise ValueError(f"dilogarithm exponent must be 1 or -1, got {expo}")
    if base < 1:
        raise ValueError(f"dilogarithm base q^{base} needs base >= 1")
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


def stiemke_grading(args):
    """Integer functional g with g(arg) >= 1 for every integer exponent vector.

    The grading of rows that ``GRADINGS`` certifies is read from it; any
    other rows are solved by the exact phase-1 simplex, which raises
    Infeasible when some nonnegative combination of the args vanishes
    (nontrivial recession cone).  Either way g is returned only after
    g(arg) >= 1 is checked on every distinct arg.
    """
    rows = argument_rows(args)
    g = GRADINGS.get(grading_key(rows))
    return checked_grading(simplex_grading(rows) if g is None else g, rows)


def argument_rows(args):
    """The sorted distinct argument rows, which must all have one length."""
    rows = sorted({tuple(a) for a in args})
    if not rows:
        raise ValueError("no arguments")
    _width(rows)
    return rows


def _width(rows):
    """The one length of ``rows``; rows of unequal lengths are an error."""
    widths = sorted({len(r) for r in rows})
    if len(widths) > 1:
        raise ValueError(f"argument rows of unequal lengths {widths}")
    return widths[0]


def grading_key(rows):
    """The canonical text of sorted distinct rows, the key of their
    grading in ``GRADINGS``."""
    return ";".join([",".join(map(str, r)) for r in rows])


def simplex_grading(rows):
    """The simplex vertex on ``rows``, scaled by the lcm of its denominators."""
    sol = _solve_lp_geq(rows, len(rows[0]))
    if sol is None:
        raise Infeasible("no positive grading exists")
    den = lcm(*(v.denominator for v in sol))
    return tuple(int(v * den) for v in sol)


def checked_grading(g, rows):
    """``g`` itself, once g.r >= 1 holds for every row r."""
    if len(g) != len(rows[0]):
        raise GradingCheckFailed(f"grading {g} has {len(g)} coordinates, "
                                 f"the rows {len(rows[0])}")
    for r in rows:
        degree = sum(map(mul, g, r))
        if degree < 1:
            raise GradingCheckFailed(f"grading {g} gives the row {r} degree {degree}")
    return g


def _solve_lp_geq(rows, nvars):
    """Feasible x (free sign) with rows[i] . x >= 1 for every i, or None.

    Phase-1 simplex: write x = xp - xm and rows.x - slack = 1 with xp,
    xm, slack >= 0, then drive artificial variables to zero (Bland-style
    tie break, so it terminates).  Variables are numbered xp j, xm n+j,
    slack 2n+i, artificial 2n+m+i; the entering variable is the lowest
    numbered one with a positive reduced cost, the ratio test
    cross-multiplies and ties go to the lowest numbered basic variable.

    The tableau is sparse and integer, its last row the objective, and it
    stores only the xp columns (j), the slack columns (n+i) and the right
    hand side (n+m).  Row operations keep every xm column equal to minus
    its xp column, so xm j enters by a pivot on the stored column j with a
    negative entry; the artificial columns never enter and are never read.
    ``pivot`` keeps each stored row a positive multiple of the full
    tableau's row, which leaves every sign and every ratio above unchanged.
    """
    m, n = len(rows), nvars
    rhs = n + m
    tab = []
    for i, row in enumerate(rows):
        t = {j: a for j, a in enumerate(row) if a}
        t[n + i] = -1
        t[rhs] = 1
        tab.append(t)
    obj = {j: a for j, a in enumerate(map(sum, zip(*rows))) if a}
    obj.update({n + i: -1 for i in range(m)})
    obj[rhs] = m
    tab.append(obj)
    basis = [2 * n + m + i for i in range(m)]
    while True:
        enter = None
        for j, a in tab[m].items():
            if j < n:
                v = j if a > 0 else n + j
            elif j != rhs and a > 0:
                v = n + j
            else:
                continue
            if enter is None or v < enter:
                enter = v
        if enter is None:
            break
        col = enter if enter < n else enter - n
        sign = -1 if n <= enter < 2 * n else 1
        piv_row, best = None, None
        for i in range(m):
            a = sign * tab[i].get(col, 0)
            if a <= 0:
                continue
            b = tab[i].get(rhs, 0)
            if (best is None or b * best[1] < best[0] * a or
                    (b * best[1] == best[0] * a and basis[i] < basis[piv_row])):
                piv_row, best = i, (b, a)
        if piv_row is None:
            return None
        pivot(tab, piv_row, col)
        basis[piv_row] = enter
    if tab[m].get(rhs, 0) != 0:
        return None
    # a basic xp j or xm j gives x_j = rhs/a with a the stored entry of
    # column j, which is positive for xp and negative for xm
    x = [Fraction(0)] * n
    for i, v in enumerate(basis):
        if v < 2 * n:
            j = v if v < n else v - n
            x[j] = Fraction(tab[i].get(rhs, 0), tab[i][j])
    return x


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
    n = _width(args)
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
