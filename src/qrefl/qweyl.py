"""q-Weyl algebras with symbolic parameters, substitution homomorphisms,
and affine canonical transformations acting on them.

A monomial is coeff * e^(pexp) * e^(cexp . uvec) in symmetric-exponential
normal form, where pexp is a ParamForm (central, commutes with all
generators) and cexp is an integer vector over (u_1..u_p, w_1..w_p).
The product rule is e^X e^Y = q^(omega(X,Y)/2) e^(X+Y) with
omega(x, y) = sum_i gamma_i (x_ui y_wi - x_wi y_ui).
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .params import ParamForm
from .qtorus import GradedSeries, TorusElement
from .scalars import ONE, ScalarQ


class SpecMismatch(Exception):
    pass


class NonUnimodular(Exception):
    pass


class CanonSpec:
    """p canonical pairs with weights gamma_i."""

    __slots__ = ("p", "gamma")

    def __init__(self, gamma):
        self.gamma = tuple(int(g) for g in gamma)
        self.p = len(self.gamma)

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
        p = self.p
        return [[(p + i, g)] for i, g in enumerate(self.gamma)] + \
               [[(i, -g)] for i, g in enumerate(self.gamma)]

    def omega(self, x, y) -> int:
        p = self.p
        tot = 0
        for i in range(p):
            tot += self.gamma[i] * (x[i] * y[p + i] - x[p + i] * y[i])
        return tot

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
        w = self.spec.omega(self.cexp, other.cexp)
        c = self.coeff * other.coeff * ScalarQ.q_pow(Fraction(w, 2))
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
    """Graded truncated series: cexp -> {pexp-key: (pexp, ScalarQ)}."""

    __slots__ = ("spec",)

    def __init__(self, spec, grading, cutoff, terms=None):
        super().__init__(spec.skew(), grading, cutoff, terms)
        self.spec = spec

    @classmethod
    def one(cls, spec, grading, cutoff):
        zero = (0,) * (2 * spec.p)
        return cls(spec, grading, cutoff, {zero: {ParamForm().key(): (ParamForm(), ONE)}})

    def add_term(self, cexp, pexp: ParamForm, coeff: ScalarQ):
        bucket = self.terms.setdefault(cexp, {})
        key = pexp.key()
        if key in bucket:
            new = bucket[key][1] + coeff
            if new.is_zero():
                del bucket[key]
                if not bucket:
                    del self.terms[cexp]
            else:
                bucket[key] = (pexp, new)
        else:
            bucket[key] = (pexp, coeff)

    def mul_monomial(self, m: WeylMonomial) -> "WeylSeries":
        out = self._like()
        for cexp, s, bucket in self._moves(m.cexp):
            q = ScalarQ.s_pow(s) * m.coeff
            for pexp, coeff in bucket.values():
                out.add_term(cexp, pexp + m.pexp, coeff * q)
        return out

    _exponent = staticmethod(attrgetter("cexp"))

    def _mul_power(self, p, c):
        return self.mul_monomial(WeylMonomial(self.spec, p.coeff * c, p.pexp, p.cexp))

    def __iadd__(self, other: "WeylSeries") -> "WeylSeries":
        for cexp, bucket in other.terms.items():
            for pexp, coeff in bucket.values():
                self.add_term(cexp, pexp, coeff)
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

    def constant_coeff(self):
        return dict(self.terms.get((0,) * (2 * self.spec.p), {}))

    def __len__(self):
        return sum(len(b) for b in self.terms.values())


def expand_weyl_product(factors, spec, grading, cutoff) -> WeylSeries:
    """Product of dilog factors (base, expo, WeylMonomial) left to right."""
    return WeylSeries.one(spec, grading, cutoff).expand(factors)


class SubstHom:
    """Multiplicative map from a quantum torus into a q-Weyl algebra."""

    __slots__ = ("source", "spec", "images")

    def __init__(self, source, spec: CanonSpec, images: dict):
        self.source = source          # QuantumTorus
        self.spec = spec
        self.images = images          # label -> WeylMonomial

    def apply(self, x) -> WeylMonomial:
        assert isinstance(x, TorusElement)
        if x.torus is not self.source and x.torus.labels != self.source.labels:
            raise SpecMismatch("element not over the hom's source torus")
        twist = ScalarQ.q_pow(-self.source.ordering_twist(x.alpha))
        out = WeylMonomial(self.spec, x.coeff * twist,
                           ParamForm(), (0,) * (2 * self.spec.p))
        for l, a in zip(self.source.labels, x.alpha):
            if a:
                out = out * self.images[l].pow(a)
        return out

    def apply_series(self, series, grading, cutoff) -> "WeylSeries":
        """Image of a truncated torus series, term by term."""
        out = WeylSeries(self.spec, grading, cutoff)
        for alpha, coeff in series.terms.items():
            m = self.apply(series.torus.element(coeff, alpha))
            if out.keeps(m.cexp):
                out.add_term(m.cexp, m.pexp, m.coeff)
        return out

    def respects_commutation(self, seed) -> bool:
        for i in seed.labels:
            for j in seed.labels:
                lhs = self.images[i] * self.images[j]
                rhs = self.images[j] * self.images[i]
                want = ScalarQ.q_pow(2 * seed.bhat(i, j))
                if lhs.cexp != rhs.cexp or lhs.pexp != rhs.pexp:
                    return False
                if lhs.coeff != rhs.coeff * want:
                    return False
        return True


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
    def from_table(cls, spec, table: dict, subs_idx=None, psubs=None):
        """Build from {axis: (pexp, cexp)} with optional index relabeling
        and parameter substitution applied to the shifts."""
        n = 2 * spec.p
        lin = [[0] * n for _ in range(n)]
        shift = [ParamForm() for _ in range(n)]
        for axis, (pexp, cexp) in table.items():
            r = spec.index(relabel_axis(axis, subs_idx))
            for ax2, v in cexp.items():
                lin[r][spec.index(relabel_axis(ax2, subs_idx))] += int(v)
            shift[r] = relabel_pf(pexp, subs_idx, psubs)
        for i in range(n):
            if all(v == 0 for v in lin[i]) and shift[i].is_zero():
                lin[i][i] = 1
        return cls(spec, lin, shift)

    def preserves_commutators(self) -> bool:
        p = self.spec.p
        n = 2 * p
        for a in range(n):
            for b in range(a + 1, n):
                ea = self.lin[a]
                eb = self.lin[b]
                want = 0
                if b == a + p:
                    want = self.spec.gamma[a]
                if self.spec.omega(ea, eb) != want:
                    return False
        return True

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

    def apply_series(self, series: "WeylSeries") -> "WeylSeries":
        out = WeylSeries(series.spec, series.grading, series.cutoff)
        for cexp, bucket in series.terms.items():
            for pexp, coeff in bucket.values():
                m = self.apply(WeylMonomial(series.spec, coeff, pexp, cexp))
                if out.keeps(m.cexp):
                    out.add_term(m.cexp, m.pexp, m.coeff)
        return out

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


def relabel_axis(axis: str, subs_idx) -> str:
    if not subs_idx:
        return axis
    i = int(axis[1:])
    return axis[0] + str(subs_idx.get(i, i))


def relabel_sym(sym: str, subs_idx) -> str:
    if not subs_idx or not sym[-1].isdigit() or sym.startswith("th"):
        return sym
    i = int(sym[1:])
    return sym[0] + str(subs_idx.get(i, i))


def relabel_pf(pexp, subs_idx, psubs=None) -> ParamForm:
    if isinstance(pexp, dict):
        pexp = ParamForm(pexp)
    out = ParamForm({relabel_sym(k, subs_idx): v for k, v in pexp.terms.items()},
                    pexp.const)
    if psubs:
        out = out.subs(psubs)
    return out


def build_subst_hom(torus, spec, table) -> SubstHom:
    """SubstHom from a catalog table {label: (pexp, cexp)}."""
    return SubstHom(torus, spec, {label: WeylMonomial.from_dicts(spec, pexp, cexp)
                                  for label, (pexp, cexp) in table.items()})


# the index reversal i -> 5 - i between the C2 and B2 specs
IOTA = {1: 4, 2: 3, 3: 2, 4: 1}
_IOTA_TH = {f"th{i}": ParamForm({f"th{j}": 1}) for i, j in IOTA.items()}


def iota_vec(v):
    """An 8-entry sequence over the axes (u1..u4, w1..w4) with the indices
    reversed; the rows of a map are reversed the same way."""
    return v[3::-1] + v[:3:-1]


def iota_params(form):
    """A parameter form (linear or quadratic) with th_i -> th_{5-i}."""
    return form.subs(_IOTA_TH)


def iota_monomial(m: WeylMonomial, spec: CanonSpec) -> WeylMonomial:
    """The index reversal of a monomial, landing on ``spec``."""
    return WeylMonomial(spec, m.coeff, iota_params(m.pexp), iota_vec(m.cexp))


def iota_c2_to_b2(m: WeylMonomial) -> WeylMonomial:
    """Index reversal u_i -> u_{5-i}, w_i -> w_{5-i}, th_i -> th_{5-i}."""
    return iota_monomial(m, SPEC_B2)


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
