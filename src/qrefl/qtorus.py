"""Quantum torus algebra over an exchange seed, monomial maps, and the
graded-series kernel shared with the q-Weyl algebras.

Monomials use the symmetric normalization q^<a,b> Y^a Y^b = Y^(a+b) with
<a,b> = -a.Bhat.b, so Y^a Y^b = q^(a.Bhat.b) Y^(a+b) and the generators
satisfy Y_i Y_j = q^(2 bhat_ij) Y_j Y_i.  Coefficients are ScalarQ in
s = q^(1/2) (entries of Bhat can be half-integers), so the product rule
is Y^a Y^b = s^(a.S.b) Y^(a+b) with the integer skew form S = 2*Bhat.
The q-Weyl algebras share the rule with S = omega; both keep S as sparse
integer rows, read by ``skew_pair``.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from math import floor, lcm
from operator import add, attrgetter, mul

from .cluster import ExchangeSeed
from .params import pivot
from .scalars import ONE, ScalarQ


class SeedMismatch(Exception):
    pass


class NonpositiveGrading(Exception):
    pass


class Infeasible(Exception):
    pass


def skew_image(rows, b) -> list:
    """S.b for the integer skew form S with sparse rows ``rows``
    (rows[i] lists (j, S_ij) for S_ij != 0); by skewness it is read off
    the rows of the support of b."""
    out = [0] * len(rows)
    for j, bj in enumerate(b):
        if bj:
            for i, x in rows[j]:
                out[i] -= x * bj
    return out


def skew_pair(rows, a, b) -> int:
    """a.S.b, the s-exponent of the product X^a X^b of two monomials in a
    ring whose product rule is the integer skew form S."""
    return sum(map(mul, a, skew_image(rows, b)))


class QuantumTorus:
    """Ambient torus: ordered labels plus the integer skew form 2*Bhat."""

    __slots__ = ("labels", "_index", "_rows")

    def __init__(self, seed: ExchangeSeed):
        self.labels = seed.labels
        self._index = {l: i for i, l in enumerate(self.labels)}
        self._rows = [self._row(seed, i) for i in self.labels]

    def _row(self, seed, i):
        """Row i of 2*Bhat as sparse (index, integer) pairs."""
        index, d = self._index, seed.d
        row = []
        for j, v in seed.b[i].items():
            x, r = divmod(2 * v.numerator * d[j], v.denominator)
            if r:
                raise ValueError("Bhat has entries outside (1/2)Z")
            row.append((index[j], x))
        return row

    def mutated(self, seed: ExchangeSeed, k) -> "QuantumTorus":
        """The torus of ``seed``, the mutation at k of this torus's seed:
        the other rows of 2*Bhat are kept, and only row k and the rows in
        the support of column k (that of row k, Bhat being skew) are read
        from ``seed``."""
        out = copy(self)
        out._rows = rows = list(self._rows)
        for i in (k, *seed.b[k]):
            rows[self._index[i]] = self._row(seed, i)
        return out

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

    def ordering_twist(self, a) -> int:
        """sum_{i<j} a_i a_j 2 bhat_ij: Y^a is s^-twist times the ordered
        product of the generator powers Y_1^a_1 ... Y_n^a_n."""
        rows = self._rows
        return sum(ai * x * a[j] for i, ai in enumerate(a) if ai
                   for j, x in rows[i] if j > i)

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


class MonomialHom:
    """Multiplicative map out of a quantum torus, given on generators.

    ``source`` is the QuantumTorus of the domain and ``images`` maps its
    labels to monomials of the target algebra; Y^alpha goes to
    s^-twist(alpha) times the ordered product of the images' powers.
    Subclasses name the target and its scalars (``constant``).
    """

    __slots__ = ("source", "images")

    def apply(self, x: TorusElement):
        if x.torus is not self.source and x.torus.labels != self.source.labels:
            raise SeedMismatch("element not over the hom's source torus")
        twist = ScalarQ.s_pow(-self.source.ordering_twist(x.alpha))
        out = self.constant(x.coeff * twist)
        for l, a in zip(self.source.labels, x.alpha):
            if a:
                out = out * self.images[l].pow(a)
        return out

    def respects_commutation(self, seed: ExchangeSeed) -> bool:
        """Images must q-commute exactly like the generators of ``seed``."""
        for a in seed.labels:
            for b in seed.labels:
                want = self.constant(ScalarQ.q_pow(2 * seed.bhat(a, b)))
                if self.images[a] * self.images[b] != \
                        want * self.images[b] * self.images[a]:
                    return False
        return True


class TorusHom(MonomialHom):
    """Monomial homomorphism between quantum tori: ``images`` maps source
    labels to TorusElements of ``target``."""

    __slots__ = ("target",)

    def __init__(self, source: QuantumTorus, target: QuantumTorus, images: dict):
        self.source = source
        self.target = target
        self.images = images

    def constant(self, coeff: ScalarQ) -> TorusElement:
        return self.target.element(coeff, (0,) * self.target.n())

    @classmethod
    def identity(cls, torus: QuantumTorus):
        return cls(torus, torus, {l: torus.gen(l) for l in torus.labels})

    def compose(self, inner: "TorusHom") -> "TorusHom":
        """self o inner (inner applied first)."""
        if inner.target is not self.source and \
                inner.target.labels != self.source.labels:
            raise SeedMismatch("homs not composable")
        images = {l: self.apply(img) for l, img in inner.images.items()}
        return TorusHom(inner.source, self.target, images)

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


# ---------------------------------------------------------------------------
# graded truncated series


class Degrees(dict):
    """Integer degree of each exponent vector, computed on its first
    lookup and stored: a term's degree never changes."""

    __slots__ = ("_g",)

    def __init__(self, g):
        super().__init__()
        self._g = g

    def __missing__(self, alpha):
        d = self[alpha] = sum(map(mul, self._g, alpha))
        return d


class GradedSeries:
    """Finite sum of monomials X^alpha of grading degree <= cutoff.

    The grading and the cutoff are scaled to integers once, so the
    truncation test and the s-exponent alpha.S.beta of X^alpha X^beta (S
    the integer skew form of the ring) need no Fraction arithmetic.  The
    degrees are read from a ``Degrees`` table that the series shares with
    the series made from it by ``_like``; ``expand`` works with a table of
    its own, dropped when it returns.  A series holds no zero coefficient
    (and a Weyl series no empty bucket).  Subclasses keep the coefficient
    layout of ``terms``.
    """

    __slots__ = ("grading", "cutoff", "terms", "_skew", "_g", "_top", "_deg")

    def __init__(self, skew, grading, cutoff, terms=None):
        self.grading = tuple(grading)
        self.cutoff = cutoff
        self.terms = terms or {}
        self._skew = skew
        scale = lcm(*(Fraction(g).denominator for g in self.grading))
        self._g = tuple(int(g * scale) for g in self.grading)
        self._top = floor(cutoff * scale)
        self._deg = Degrees(self._g)

    def gdeg(self, alpha) -> int:
        """Degree of X^alpha in the integer grading (grading times scale)."""
        return self._deg[alpha]

    def keeps(self, alpha) -> bool:
        return self.gdeg(alpha) <= self._top

    def _like(self, terms=None):
        """A series over the same ring, grading, cutoff and degree table,
        empty or with the given ``terms``."""
        out = copy(self)
        out.terms = terms or {}
        return out

    def _within(self, top):
        """The terms of degree <= top, in this series' order; the values
        are shared, so the result is only read."""
        deg = self._deg
        return self._like({a: v for a, v in self.terms.items() if deg[a] <= top})

    def _moves(self, beta):
        """(alpha + beta, s-exponent of X^alpha X^beta, terms[alpha]) for
        every term whose product with X^beta survives the truncation."""
        deg = self._deg
        top = self._top - deg[beta]
        col = skew_image(self._skew, beta)
        for alpha, c in self.terms.items():
            if deg[alpha] <= top:
                yield tuple(map(add, alpha, beta)), sum(map(mul, alpha, col)), c

    def expand(self, factors):
        """self, truncated to the cutoff, times prod Psi_{q^base}(arg)^expo
        over ``factors`` (base, expo, arg), left to right, each truncated
        to the cutoff.

        Psi has constant coefficient 1, so the n = 0 power of a factor is
        the running product itself, and the higher powers are added to it
        in place.  A term X^alpha survives beside arg^n exactly when
        gdeg(alpha) <= top - n*d, so the terms that meet each higher power
        are filtered from those that met the previous one (the first
        filter copies them before any power is added), keeping the running
        product's order: coefficients are summed, and new exponents
        inserted, as in the product of the whole running series with
        every power in turn.  Every exponent's degree is computed once, in
        a table that lives as long as the expansion."""
        acc = copy(self)
        acc._deg = Degrees(self._g)
        acc = acc._within(self._top)
        for base, expo, arg in factors:
            d = acc.gdeg(self._exponent(arg))
            if d <= 0:
                raise NonpositiveGrading(f"factor argument {arg} of grade <= 0")
            coeffs = dilog_coefficients(base, expo, self._top // d)
            live = acc
            for n in range(1, len(coeffs)):
                live = live._within(self._top - n * d)
                acc += live._mul_power(arg.pow(n), coeffs[n])
        return self._like(acc.terms)


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
        # alpha -> alpha + beta is injective and a product of nonzero
        # scalars is nonzero, so no two products meet and none cancels:
        # the terms are stored as they come, without merging
        if coeff.is_zero():
            return self._like()
        return self._like({alpha: (c * coeff).shift(s)
                           for alpha, s, c in self._moves(beta)})

    _exponent = staticmethod(attrgetter("alpha"))

    def _mul_power(self, p, c):
        return self.mul_monomial(p.coeff * c, p.alpha)

    def __iadd__(self, other: "TorusSeries") -> "TorusSeries":
        # add_term for every term of other, in one pass; a cancelled
        # exponent leaves the degree table too, which would otherwise keep
        # its tuple alive for the rest of an expansion
        terms = self.terms
        for a, c in other.terms.items():
            cur = terms.get(a)
            if cur is None:
                terms[a] = c
            else:
                c = cur + c
                if c.is_zero():
                    del terms[a]
                    self._deg.pop(a, None)
                else:
                    terms[a] = c
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

    Exact phase-1 simplex on an integer tableau; raises Infeasible when
    some nonnegative combination of the args vanishes (nontrivial
    recession cone).
    """
    rows = sorted({tuple(a) for a in args})
    if not rows:
        raise ValueError("no arguments")
    sol = _solve_lp_geq(rows, len(rows[0]))
    if sol is None:
        raise Infeasible("no positive grading exists")
    den = lcm(*(v.denominator for v in sol))
    return tuple(int(v * den) for v in sol)


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
