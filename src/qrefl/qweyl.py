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

from .params import ParamForm
from .qtorus import (GradedSeries, SeedMismatch, combine, preserves_skew,
                     skew_pair)
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
        self._rows = [{p + i: g} for i, g in enumerate(self.gamma)] + \
                     [{i: -g} for i, g in enumerate(self.gamma)]

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
    """Graded truncated series of q-Weyl monomials, held flat like a torus
    series: an exponent is cexp followed by the integer coefficients of
    the parameter exponent over the sorted symbol basis ``symbols``, fixed
    when the series is built.  The parameters are central and have degree
    zero, so their coordinates have zero skew rows and no grading.  A
    parameter exponent with a denominator, a constant term or a symbol
    outside the basis has no coordinates and raises ValueError.

    ``terms`` is the nested view cexp -> {pexp.key(): (pexp, coeff)},
    built on each access and read-only."""

    __slots__ = ("spec", "symbols")

    def __init__(self, spec, grading, cutoff, flat=None, symbols=()):
        self.symbols = tuple(symbols)
        super().__init__(spec.skew() + [{}] * len(self.symbols), grading, cutoff,
                         flat)
        self.spec = spec

    @classmethod
    def one(cls, spec, grading, cutoff, symbols=()):
        zero = (0,) * (2 * spec.p + len(symbols))
        return cls(spec, grading, cutoff, {zero: ONE}, symbols)

    def _coords(self, pexp: ParamForm) -> tuple:
        """The coordinates of pexp over the basis, which must hold its
        symbols."""
        if pexp.den != 1 or pexp.c:
            raise ValueError(f"parameter exponent {pexp} of a series term "
                             "has a denominator or a constant term")
        get = pexp.num.get
        out = tuple(get(x, 0) for x in self.symbols)
        if len(out) - out.count(0) != len(pexp.num):
            raise ValueError(f"parameter exponent {pexp} has a symbol "
                             "outside the series' basis")
        return out

    def _exponent(self, m: WeylMonomial) -> tuple:
        return m.cexp + self._coords(m.pexp)

    def _split(self, alpha):
        """(cexp, pexp) of the flat exponent alpha."""
        n = 2 * self.spec.p
        return alpha[:n], ParamForm(dict(zip(self.symbols, alpha[n:])))

    def _ring(self):
        return self.spec.gamma, self.symbols

    @property
    def terms(self) -> dict:
        out = {}
        for alpha, c in self.flat.items():
            cexp, pexp = self._split(alpha)
            out.setdefault(cexp, {})[pexp.key()] = (pexp, c)
        return out

    def add_term(self, cexp, pexp: ParamForm, coeff: ScalarQ):
        """Add coeff * e^pexp * e^cexp."""
        super().add_term(cexp + self._coords(pexp), coeff)

    def mul_monomial(self, m: WeylMonomial) -> "WeylSeries":
        return self._times(m, ONE)

    def equal_on(self, other: "WeylSeries", region=None) -> bool:
        return self.first_difference(other, region) is None


def expand_weyl_product(factors, spec, grading, cutoff) -> WeylSeries:
    """Product of dilog factors (base, expo, WeylMonomial) left to right,
    over the sorted union of the factors' parameter symbols."""
    symbols = sorted({x for _, _, m in factors for x in m.pexp.num})
    return WeylSeries.one(spec, grading, cutoff, symbols).expand(factors)


class SubstHom:
    """Multiplicative map from a quantum torus into a q-Weyl algebra whose
    images e^pexp_l e^cexp_l of the generators Y_l have coefficient 1 and
    carry the skew form to omega (else NonUnimodular), so that c*Y^alpha
    goes to c*e^(sum alpha_l pexp_l)*e^(sum alpha_l cexp_l)."""

    __slots__ = ("source", "spec", "images")

    def __init__(self, source, spec: CanonSpec, images: dict):
        self.source = source          # QuantumTorus
        self.spec = spec
        self.images = images          # label -> WeylMonomial
        if any(m.coeff != ONE for m in images.values()) or \
                not self.respects_commutation():
            raise NonUnimodular("images are not symmetric monomials that "
                                "preserve the commutators")

    def respects_commutation(self) -> bool:
        """Images must q-commute exactly like the source generators."""
        return preserves_skew(self.source.skew(), self.spec.skew(),
                              [self.images[l].cexp for l in self.source.labels])

    def apply(self, x) -> WeylMonomial:
        if x.torus is not self.source and x.torus.labels != self.source.labels:
            raise SeedMismatch("element not over the hom's source torus")
        ims = [self.images[l] for l in self.source.labels]
        pexp = sum((m.pexp.scale(a) for a, m in zip(x.alpha, ims) if a), ParamForm())
        return WeylMonomial(self.spec, x.coeff, pexp,
                            combine([m.cexp for m in ims], x.alpha, 2 * self.spec.p))

    def apply_series(self, series, grading, cutoff) -> "WeylSeries":
        """Image of a truncated torus series, term by term."""
        out = WeylSeries(self.spec, grading, cutoff, symbols=sorted(
            {x for m in self.images.values() for x in m.pexp.num}))
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
        return preserves_skew(self.spec.skew(), self.spec.skew(), self.lin)

    def apply_vec(self, cexp):
        return (combine(self.lin, cexp, 2 * self.spec.p),
                sum((s.scale(v) for v, s in zip(cexp, self.shift) if v), ParamForm()))

    def apply(self, m: WeylMonomial) -> WeylMonomial:
        cexp, pf = self.apply_vec(m.cexp)
        return WeylMonomial(m.spec, m.coeff, m.pexp + pf, cexp)

    def compose(self, inner: "AffineCanonMap") -> "AffineCanonMap":
        """self o inner: apply inner first."""
        rows = [self.apply_vec(row) for row in inner.lin]
        return AffineCanonMap(self.spec, [v for v, _ in rows],
                              [s + pf for s, (_, pf) in zip(inner.shift, rows)],
                              check=False)

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
        right = h_tgt.apply(tau.apply(tau.source.gen(label)))
        if rules:
            left = left.subs_params(rules)
            right = right.subs_params(rules)
        if not (left == right):
            return False, (label, left, right)
    return True, None
