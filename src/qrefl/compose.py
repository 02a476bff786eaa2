"""Composite transformations built from mutation steps.

A composite is a list of factor applications on an evolving seed; each
factor contributes mutation steps with per-step decomposition signs and
an optional relabeling.  Composing the per-step monomial maps yields the
factor's monomial part; pushing each step's generator through the maps
accumulated so far yields the dilogarithm factor list in the initial
torus (all factors of one composite share that torus).
"""

from __future__ import annotations

from .catalog import EPS_R, eps_k24
from .cluster import ExchangeSeed, MutationSequence, Perm, mutate_matrix
from .qtorus import QuantumTorus, TorusHom, perm_hom
from .scalars import ONE


class FactorSpec:
    """One named factor of a composite identity.

    kind: 'R', 'Rbar' (four steps + two exchanges) or 'K' (ten steps);
    spaces: the canonical indices the operator acts on;
    steps: mutation vertices in application order;
    sigma_pairs: transpositions applied after the steps.
    """

    __slots__ = ("kind", "spaces", "steps", "sigma_pairs")

    def __init__(self, kind, spaces, steps, sigma_pairs=()):
        self.kind = kind
        self.spaces = tuple(spaces)
        self.steps = tuple(steps)
        self.sigma_pairs = tuple(tuple(p) for p in sigma_pairs)

    def sigma(self) -> Perm:
        return Perm.transpositions(self.sigma_pairs)

    def signs(self, delta=None, kpair=(-1, 1)):
        if self.kind in ("R", "Rbar"):
            return EPS_R["+" if delta > 0 else "-"]
        return eps_k24(*kpair)

    def as_sequence(self) -> MutationSequence:
        return MutationSequence(self.steps, self.sigma())

    def __repr__(self):
        return (f"FactorSpec({self.kind}{''.join(map(str, self.spaces))}, "
                f"steps={list(self.steps)}, sigma={self.sigma_pairs})")


class CompositeState:
    """Seed + composed monomial map + accumulated dilog factors."""

    def __init__(self, seed: ExchangeSeed):
        self.seed = seed
        self.torus = QuantumTorus(seed)
        self.hom = TorusHom.identity(self.torus)
        self.dilogs = []

    def mutate(self, k, eps):
        target = self.torus if self.hom is None else self.hom.source
        new_seed = mutate_matrix(self.seed, k)
        new_torus = QuantumTorus(new_seed)
        base = self.seed.d[k]
        arg = self.hom.apply(target.gen(k))
        if eps < 0:
            arg = arg.inverse()
        self.dilogs.append((base, arg, eps))
        # extend the composed map by one step; only images of k and of
        # the vertices with a positive [eps*b_ik] change
        images = dict(self.hom.images)
        images[k] = self.hom.apply(target.gen(k, -1))
        for i in self.seed.labels:
            if i == k:
                continue
            m = eps * self.seed.entry(i, k)
            if m > 0:
                a = [0] * target.n()
                a[target.index(i)] = 1
                a[target.index(k)] = int(m)
                images[i] = self.hom.apply(target.element(ONE, tuple(a)))
        self.hom = TorusHom(new_torus, self.hom.target, images)
        self.seed = new_seed
        self.torus = new_torus

    def relabel(self, sigma: Perm):
        if sigma.is_identity():
            return
        new_seed = self.seed.permuted(sigma)
        new_torus = QuantumTorus(new_seed)
        self.hom = self.hom.compose(perm_hom(new_torus, self.torus, sigma))
        self.seed = new_seed
        self.torus = new_torus

    def apply_factor(self, spec: FactorSpec, delta=None, kpair=(-1, 1)):
        signs = spec.signs(delta=delta, kpair=kpair)
        if len(signs) != len(spec.steps):
            raise ValueError("sign/step length mismatch")
        for k, eps in zip(spec.steps, signs):
            self.mutate(k, eps)
        self.relabel(spec.sigma())


def run_composite(seed: ExchangeSeed, factors, deltas=None,
                  final_sigma: Perm = None):
    """Apply factor specs in order; return the final CompositeState.

    ``deltas`` assigns a sign to each R/Rbar factor (in factor order);
    the K factors take their default epsilon pair.
    """
    st = CompositeState(seed)
    di = 0
    for spec in factors:
        if spec.kind in ("R", "Rbar"):
            st.apply_factor(spec, delta=1 if deltas is None else deltas[di])
            di += 1
        else:
            st.apply_factor(spec)
    if final_sigma is not None:
        st.relabel(final_sigma)
    return st


def tropical_signs_of(seed: ExchangeSeed, factors):
    """Per-factor tropical sign sequences along the composite."""
    from .cluster import TropicalSeed, mutate_tropical
    ts = TropicalSeed(seed)
    out = []
    for spec in factors:
        signs = []
        for k in spec.steps:
            signs.append(ts.sign(k))
            ts = mutate_tropical(ts, k)
        ts = ts.permuted(spec.sigma())
        out.append(tuple(signs))
    return out, ts


def hom_from_table(seed_src, seed_tgt, table: dict, relabel=None) -> TorusHom:
    """TorusHom from catalog monomial data {label: (s_exp, ((l, p), ...))}."""
    src = seed_src if isinstance(seed_src, QuantumTorus) else QuantumTorus(seed_src)
    tgt = seed_tgt if isinstance(seed_tgt, QuantumTorus) else QuantumTorus(seed_tgt)
    images = {}
    for label, (s_exp, powers) in table.items():
        lab = relabel(label) if relabel else label
        images[lab] = tgt.monomial(
            s_exp, tuple((relabel(l) if relabel else l, p) for l, p in powers))
    for l in src.labels:
        images.setdefault(l, tgt.gen(l))
    return TorusHom(src, tgt, images)


def dilog_factors(seed: ExchangeSeed, ms: MutationSequence, signs):
    """Dilogarithm factors of a sign-decorated mutation sequence.

    Returns [(base, argument, exponent), ...] with every argument pushed
    back to the initial torus.
    """
    if len(signs) != len(ms.steps):
        raise ValueError("one sign per mutation step required")
    st = CompositeState(seed)
    for k, eps in zip(ms.steps, signs):
        st.mutate(k, eps)
    st.relabel(ms.sigma)
    return st.dilogs, st.hom
