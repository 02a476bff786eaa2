"""q-Weyl algebras with symbolic parameters, substitution homomorphisms,
and affine canonical transformations acting on them.

A monomial is coeff * e^(pexp) * e^(cexp . uvec) in symmetric-exponential
normal form, where pexp is a ParamForm (central, commutes with all
generators) and cexp is an integer vector over (u_1..u_p, w_1..w_p).
The product rule is e^X e^Y = q^(omega(X,Y)/2) e^(X+Y) with
omega(x, y) = sum_i gamma_i (x_ui y_wi - x_wi y_ui), i.e. the product picks
up s^omega(X,Y) with omega an integer skew form (see ``qtorus.skew_pair``).
"""

from __future__ import annotations

from operator import attrgetter

from .params import ParamForm
from .qtorus import GradedSeries, MonomialHom, skew_pair
from .scalars import ONE, ScalarQ


class SpecMismatch(Exception):
    pass


class NonUnimodular(Exception):
    pass


class CanonSpec:
    """p canonical pairs with weights gamma_i."""

    __slots__ = ("p", "gamma", "_rows")

    def __init__(self, gamma):
        self.gamma = tuple(int(g) for g in gamma)
        self.p = p = len(self.gamma)
        self._rows = [[(p + i, g)] for i, g in enumerate(self.gamma)] + \
                     [[(i, -g)] for i, g in enumerate(self.gamma)]

    def axes(self):
        return [f"u{i}" for i in range(1, self.p + 1)] + \
               [f"w{i}" for i in range(1, self.p + 1)]

    def index(self, axis: str) -> int:
        kind, i = axis[0], int(axis[1:])
        return (i - 1) + (self.p if kind == "w" else 0)

    def vec(self, cexp: dict) -> tuple:
        v = [0] * (2 * self.p)
        for axis, val in cexp.items():
            v[self.index(axis)] += int(val)
        return tuple(v)

    def skew(self):
        """Sparse integer rows of omega, the s-exponent form of the product."""
        return self._rows

    def omega(self, x, y) -> int:
        return skew_pair(self._rows, x, y)

    def __eq__(self, other):
        return isinstance(other, CanonSpec) and self.gamma == other.gamma


SPEC_A2 = CanonSpec((1, 1, 1))
SPEC_A3 = CanonSpec((1, 1, 1, 1, 1, 1))
SPEC_C2 = CanonSpec((1, 2, 1, 2))
SPEC_B2 = CanonSpec((2, 1, 2, 1))
SPEC_C3 = CanonSpec((1, 1, 2, 1, 1, 2, 1, 1, 2))


class WeylMonomial:
    """coeff * e^pexp * e^(cexp . uvec), symmetric normal form."""

    __slots__ = ("spec", "coeff", "pexp", "cexp")

    def __init__(self, spec: CanonSpec, coeff: ScalarQ, pexp: ParamForm,
                 cexp: tuple):
        self.spec = spec
        self.coeff = coeff
        self.pexp = pexp
        self.cexp = cexp

    @classmethod
    def from_dicts(cls, spec, pexp_dict=None, cexp_dict=None, coeff=None):
        return cls(spec, coeff if coeff is not None else ONE,
                   ParamForm(pexp_dict or {}), spec.vec(cexp_dict or {}))

    def __mul__(self, other: "WeylMonomial") -> "WeylMonomial":
        if self.spec != other.spec:
            raise SpecMismatch("different canonical specs")
        w = skew_pair(self.spec._rows, self.cexp, other.cexp)
        c = self.coeff * other.coeff * ScalarQ.s_pow(w)
        return WeylMonomial(self.spec, c, self.pexp + other.pexp,
                            tuple(a + b for a, b in zip(self.cexp, other.cexp)))

    def inverse(self) -> "WeylMonomial":
        return WeylMonomial(self.spec, self.coeff.inverse(), -self.pexp,
                            tuple(-a for a in self.cexp))

    def pow(self, n: int) -> "WeylMonomial":
        if n == 0:
            return WeylMonomial(self.spec, ONE, ParamForm(), (0,) * len(self.cexp))
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = WeylMonomial(self.spec, out.coeff * base.coeff,
                               out.pexp + base.pexp,
                               tuple(a + b for a, b in zip(out.cexp, base.cexp)))
        return out

    def subs_params(self, rules) -> "WeylMonomial":
        return WeylMonomial(self.spec, self.coeff, self.pexp.subs(rules),
                            self.cexp)

    def __eq__(self, other):
        return (isinstance(other, WeylMonomial) and self.cexp == other.cexp
                and self.pexp == other.pexp and self.coeff == other.coeff)

    def __repr__(self):
        axes = self.spec.axes()
        mono = "+".join(f"{v}*{a}" for a, v in zip(axes, self.cexp) if v)
        return f"{self.coeff.as_pair_str()}*e^({self.pexp})*e^({mono or '0'})"


class WeylSeries(GradedSeries):
    """Graded truncated series: cexp -> {pexp-key: (pexp, ScalarQ)}.

    Series share buckets (``_like``, ``_within``, ``+=``), so a bucket is
    never changed in place: ``add_term`` and ``+=`` store a changed copy."""

    __slots__ = ("spec",)

    def __init__(self, spec, grading, cutoff, terms=None):
        super().__init__(spec.skew(), grading, cutoff, terms)
        self.spec = spec

    @classmethod
    def one(cls, spec, grading, cutoff):
        zero = (0,) * (2 * spec.p)
        return cls(spec, grading, cutoff, {zero: {ParamForm().key(): (ParamForm(), ONE)}})

    def add_term(self, cexp, pexp: ParamForm, coeff: ScalarQ, key=None):
        """Add coeff * e^pexp * e^cexp; ``key`` is pexp.key() when the
        caller has it already, so that a key is sorted once per form."""
        if key is None:
            key = pexp.key()
        bucket = self.terms.get(cexp)
        if bucket is None:
            self.terms[cexp] = {key: (pexp, coeff)}
            return
        bucket = dict(bucket)
        cur = bucket.get(key)
        if cur is None:
            bucket[key] = (pexp, coeff)
        else:
            new = cur[1] + coeff
            if new.is_zero():
                del bucket[key]
            else:
                bucket[key] = (pexp, new)
        if bucket:
            self.terms[cexp] = bucket
        else:
            del self.terms[cexp]

    def mul_monomial(self, m: WeylMonomial) -> "WeylSeries":
        # cexp -> cexp + m.cexp and pexp -> pexp + m.pexp are injective and
        # a product of nonzero scalars is nonzero, so no two products meet
        # and none cancels: the buckets are built without merging
        if m.coeff.is_zero():
            return self._like()
        mp, mc = m.pexp, m.coeff
        out = {}
        for cexp, s, bucket in self._moves(m.cexp):
            new = out[cexp] = {}
            for pexp, coeff in bucket.values():
                pexp = pexp + mp
                new[pexp.key()] = (pexp, (coeff * mc).shift(s))
        return self._like(out)

    _exponent = staticmethod(attrgetter("cexp"))

    def _mul_power(self, p, c):
        return self.mul_monomial(WeylMonomial(self.spec, p.coeff * c, p.pexp, p.cexp))

    def __iadd__(self, other: "WeylSeries") -> "WeylSeries":
        # add_term for every term of other, in one pass: a new exponent
        # takes the incoming bucket, and a bucket merged into is a copy.
        # add_term deletes an emptied bucket at once and inserts a later
        # key of the same exponent into a fresh one, at the end of the
        # terms; a bucket that empties and refills is moved there.  An
        # exponent that cancels leaves the degree table too
        terms = self.terms
        for cexp, inc in other.terms.items():
            bucket = terms.get(cexp)
            if bucket is None:
                terms[cexp] = inc
                continue
            bucket = dict(bucket)
            emptied = False
            for key, val in inc.items():
                cur = bucket.get(key)
                if cur is None:
                    bucket[key] = val
                else:
                    c = cur[1] + val[1]
                    if not c.is_zero():
                        bucket[key] = (val[0], c)
                    else:
                        del bucket[key]
                        emptied = emptied or not bucket
            if not bucket:
                del terms[cexp]
                self._deg.pop(cexp, None)
            else:
                if emptied:
                    del terms[cexp]
                terms[cexp] = bucket
        return self

    def equal_on(self, other: "WeylSeries", region=None) -> bool:
        return self.first_difference(other, region) is None

    def first_difference(self, other: "WeylSeries", region=None):
        """(cexp, pexp, own coefficient, other coefficient) at the first
        term where the two series differ, or None when they agree; with
        ``region``, only exponents where region(cexp) holds count."""
        zero = (None, ScalarQ.zero())
        for cexp in {**self.terms, **other.terms}:
            if region is not None and not region(cexp):
                continue
            b1 = self.terms.get(cexp, {})
            b2 = other.terms.get(cexp, {})
            for key in {**b1, **b2}:
                p1, c1 = b1.get(key, zero)
                p2, c2 = b2.get(key, zero)
                if c1 != c2:
                    return cexp, p2 if p1 is None else p1, c1, c2
        return None

    def constant_is_one(self) -> bool:
        """True when the constant term is exactly 1: the zero exponent
        holds the zero parameter form alone, with coefficient 1."""
        bucket = self.terms.get((0,) * (2 * self.spec.p), {})
        key = ParamForm().key()
        return list(bucket) == [key] and bucket[key][1] == ONE

    def __len__(self):
        return sum(len(b) for b in self.terms.values())


def expand_weyl_product(factors, spec, grading, cutoff) -> WeylSeries:
    """Product of dilog factors (base, expo, WeylMonomial) left to right."""
    return WeylSeries.one(spec, grading, cutoff).expand(factors)


class SubstHom(MonomialHom):
    """Multiplicative map from a quantum torus into a q-Weyl algebra."""

    __slots__ = ("spec",)

    def __init__(self, source, spec: CanonSpec, images: dict):
        self.source = source          # QuantumTorus
        self.spec = spec
        self.images = images          # label -> WeylMonomial

    def constant(self, coeff: ScalarQ) -> WeylMonomial:
        return WeylMonomial(self.spec, coeff, ParamForm(), (0,) * (2 * self.spec.p))

    def apply_series(self, series, grading, cutoff) -> "WeylSeries":
        """Image of a truncated torus series, term by term."""
        out = WeylSeries(self.spec, grading, cutoff)
        for alpha, coeff in series.terms.items():
            m = self.apply(series.torus.element(coeff, alpha))
            if out.keeps(m.cexp):
                out.add_term(m.cexp, m.pexp, m.coeff)
        return out


class AffineCanonMap:
    """x -> Atilde x + shift on the canonical exponent lattice.

    ``lin`` is a 2p x 2p integer matrix (rows = images) and ``shift`` a
    vector of ParamForms; the map acts on monomials by substituting each
    canonical variable, i.e. cexp -> cexp . lin and pexp += cexp . shift.
    """

    __slots__ = ("spec", "lin", "shift")

    def __init__(self, spec: CanonSpec, lin, shift, check=True):
        self.spec = spec
        self.lin = tuple(tuple(int(v) for v in row) for row in lin)
        self.shift = tuple(shift)
        if check and not self.preserves_commutators():
            raise NonUnimodular("map does not preserve the commutators")

    @classmethod
    def identity(cls, spec):
        n = 2 * spec.p
        lin = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return cls(spec, lin, [ParamForm() for _ in range(n)], check=False)

    @classmethod
    def from_table(cls, spec, table: dict):
        """Build from {axis: (pexp, cexp)}; an axis the table leaves out
        is fixed."""
        n = 2 * spec.p
        lin = [[0] * n for _ in range(n)]
        shift = [ParamForm() for _ in range(n)]
        for axis, (pexp, cexp) in table.items():
            r = spec.index(axis)
            for ax2, v in cexp.items():
                lin[r][spec.index(ax2)] += int(v)
            shift[r] = pexp if isinstance(pexp, ParamForm) else ParamForm(pexp)
        for i in range(n):
            if all(v == 0 for v in lin[i]) and shift[i].is_zero():
                lin[i][i] = 1
        return cls(spec, lin, shift)

    def preserves_commutators(self) -> bool:
        """omega(lin[a], lin[b]) = omega(e_a, e_b) for every pair of rows."""
        rows = self.spec.skew()
        return all(skew_pair(rows, ea, eb) == dict(rows[a]).get(b, 0)
                   for a, ea in enumerate(self.lin)
                   for b, eb in enumerate(self.lin) if a < b)

    def apply_vec(self, cexp):
        n = 2 * self.spec.p
        out = [0] * n
        pf = ParamForm()
        for i, v in enumerate(cexp):
            if v:
                row = self.lin[i]
                for j in range(n):
                    if row[j]:
                        out[j] += v * row[j]
                pf = pf + self.shift[i].scale(v)
        return tuple(out), pf

    def apply(self, m: WeylMonomial) -> WeylMonomial:
        cexp, pf = self.apply_vec(m.cexp)
        return WeylMonomial(m.spec, m.coeff, m.pexp + pf, cexp)

    def compose(self, inner: "AffineCanonMap") -> "AffineCanonMap":
        """self o inner: apply inner first."""
        n = 2 * self.spec.p
        lin = []
        shift = []
        for i in range(n):
            cexp, pf = self.apply_vec(inner.lin[i])
            lin.append(cexp)
            shift.append(inner.shift[i] + pf)
        return AffineCanonMap(self.spec, lin, shift, check=False)

    def subs_params(self, rules) -> "AffineCanonMap":
        return AffineCanonMap(self.spec, self.lin,
                              [s.subs(rules) for s in self.shift], check=False)

    def __eq__(self, other):
        if not isinstance(other, AffineCanonMap):
            return NotImplemented
        return self.lin == other.lin and list(self.shift) == list(other.shift)

    def first_difference(self, other):
        axes = self.spec.axes()
        for i in range(2 * self.spec.p):
            if self.lin[i] != other.lin[i] or self.shift[i] != other.shift[i]:
                return axes[i], (self.lin[i], self.shift[i]), \
                    (other.lin[i], other.shift[i])
        return None


def build_subst_hom(torus, spec, table) -> SubstHom:
    """SubstHom from a catalog table {label: (pexp, cexp)}."""
    return SubstHom(torus, spec, {label: WeylMonomial.from_dicts(spec, pexp, cexp)
                                  for label, (pexp, cexp) in table.items()})


def diagram_commutes(h_src: SubstHom, h_tgt: SubstHom, tau, eta: AffineCanonMap,
                     rules=None):
    """Check eta o h_src == h_tgt o tau on every source generator.

    ``rules`` is an optional substitution map imposing parameter
    constraints before comparison.  Returns (ok, witness).
    """
    for label in sorted(h_src.source.labels):
        left = eta.apply(h_src.images[label])
        right = h_tgt.apply(tau.images[label])
        if rules:
            left = left.subs_params(rules)
            right = right.subs_params(rules)
        if not (left == right):
            return False, (label, left, right)
    return True, None
