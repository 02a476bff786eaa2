"""Composite transformations built from mutation steps.

A composite is one signed mutation sequence: a MutationSequence with one
decomposition sign per step.  The rows of a composite identity (kind,
spaces, steps, sigma_pairs), one per named factor R, Rbar or K, fold
into one such sequence.  Walking it composes the per-step monomial maps
into the composite's monomial part and pushes each step's generator
through the maps accumulated so far, which yields the dilogarithm factor
list in the initial torus (all factors of one composite share that torus).
"""

from __future__ import annotations

from functools import reduce

from .catalog import EPS_R, eps_k24
from .cluster import ExchangeSeed, MutationSequence, Perm, mutate_matrix
from .qtorus import QuantumTorus, TorusHom, perm_hom
from .scalars import ONE


def composite_sequence(rows) -> MutationSequence:
    """One sequence from composite rows (kind, spaces, steps, sigma_pairs):
    each row's steps and then its transpositions, in row order."""
    return reduce(MutationSequence.then,
                  (MutationSequence(steps, Perm.transpositions(pairs))
                   for _, _, steps, pairs in rows),
                  MutationSequence(()))


def composite_signs(rows, deltas):
    """The catalog sign of every step of the rows: EPS_R by the row's
    delta for an R or Rbar row (``deltas`` in row order), eps_k24(-1, 1)
    for a K row."""
    deltas = iter(deltas)
    return sum((eps_k24(-1, 1) if kind == "K"
                else EPS_R["+" if next(deltas) > 0 else "-"]
                for kind, _, _, _ in rows), ())


class CompositeState:
    """Seed + composed monomial map + accumulated dilog factors."""

    def __init__(self, seed: ExchangeSeed):
        self.seed = seed
        self.torus = QuantumTorus(seed)
        self.hom = TorusHom.identity(self.torus)
        self.dilogs = []

    def mutate(self, k, eps):
        torus = self.torus
        new_seed = mutate_matrix(self.seed, k)
        new_torus = torus.mutated(new_seed, k)
        base = self.seed.d[k]
        arg = self.hom.apply(torus.gen(k))
        if eps < 0:
            arg = arg.inverse()
        self.dilogs.append((base, arg, eps))
        # extend the composed map by one step; only images of k and of
        # the vertices with a positive [eps*b_ik] change
        images = dict(self.hom.images)
        images[k] = self.hom.apply(torus.gen(k, -1))
        b = self.seed.b
        # Bhat is skew, so the support of column k is that of row k
        for i in sorted(b[k]):
            m = eps * b[i][k]
            if m > 0:
                a = [0] * torus.n()
                a[torus.index(i)] = 1
                a[torus.index(k)] = int(m)
                images[i] = self.hom.apply(torus.element(ONE, tuple(a)))
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


def run_composite(seed: ExchangeSeed, ms: MutationSequence, signs) -> CompositeState:
    """Walk a signed sequence from ``seed``: mutate at every step with its
    sign, then relabel once by the sequence's permutation."""
    if len(signs) != len(ms.steps):
        raise ValueError("one sign per mutation step required")
    st = CompositeState(seed)
    for k, eps in zip(ms.steps, signs):
        st.mutate(k, eps)
    st.relabel(ms.sigma)
    return st


def hom_from_table(seed_src, seed_tgt, table: dict) -> TorusHom:
    """TorusHom from catalog monomial data {label: (s_exp, ((l, p), ...))}."""
    src = seed_src if isinstance(seed_src, QuantumTorus) else QuantumTorus(seed_src)
    tgt = seed_tgt if isinstance(seed_tgt, QuantumTorus) else QuantumTorus(seed_tgt)
    images = {label: tgt.monomial(s_exp, powers)
              for label, (s_exp, powers) in table.items()}
    for l in src.labels:
        images.setdefault(l, tgt.gen(l))
    return TorusHom(src, tgt, images)
