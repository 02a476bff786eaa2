"""Composite transformations built from mutation steps.

A composite is one signed mutation sequence: a MutationSequence with one
decomposition sign per step.  The rows of a composite identity (kind,
spaces, steps, sigma_pairs), one per named factor R, Rbar or K, fold
into one such sequence.  Walking it composes the per-step monomial maps
into the composite's monomial part and pushes each step's generator
through the maps accumulated so far, which yields the dilogarithm factor
list in the initial torus (all factors of one composite share that torus).
Many sign lists of one sequence are walked together by ``fold_prefixes``,
the one loop that folds many item lists sharing their common prefixes.
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


def fold_prefixes(keys, start, step):
    """{key: the left fold of ``step`` over the items of ``key`` from
    ``start``} for every key, a tuple of sortable items.

    The keys are taken in sorted order, and each one resumes from the
    state kept at its longest common prefix with the key before it, so a
    prefix that several keys share is folded once.  ``step(state, depth,
    item)`` gets the item at position ``depth`` of the key and returns a
    new state; it must leave the state it is given unchanged.
    """
    out = {}
    prev, states = (), [start]
    for key in sorted(set(keys)):
        n = next((i for i, (a, b) in enumerate(zip(prev, key)) if a != b),
                 min(len(prev), len(key)))
        del states[n + 1:]
        for depth in range(n, len(key)):
            states.append(step(states[-1], depth, key[depth]))
        out[key] = states[-1]
        prev = key
    return out


def _extend(hom, seed, torus, new_torus, k, eps):
    """One signed mutation step at k on the composed map ``hom`` from
    ``torus``, the torus of ``seed``: the dilog factor the step emits and
    the composed map from ``new_torus``, the torus after the step."""
    arg = hom.apply(torus.gen(k))
    if eps < 0:
        arg = arg.inverse()
    # only the images of k and of the vertices with a positive [eps*b_ik]
    # change
    images = dict(hom.images)
    images[k] = hom.apply(torus.gen(k, -1))
    b = seed.b
    # Bhat is skew, so the support of column k is that of row k
    for i in sorted(b[k]):
        m = eps * b[i][k]
        if m > 0:
            a = [0] * torus.n()
            a[torus.index(i)] = 1
            a[torus.index(k)] = int(m)
            images[i] = hom.apply(torus.element(ONE, tuple(a)))
    return (seed.d[k], arg, eps), TorusHom(new_torus, hom.target, images)


def _relabelled(seed, torus, sigma):
    """The seed and torus relabelled by ``sigma`` and the map back to
    ``torus`` that composed maps are pulled along."""
    new_seed = seed.permuted(sigma)
    new_torus = QuantumTorus(new_seed)
    return new_seed, new_torus, perm_hom(new_torus, torus, sigma)


class CompositeState:
    """Seed + composed monomial map + accumulated dilog factors."""

    def __init__(self, seed: ExchangeSeed, torus=None, hom=None, dilogs=()):
        self.seed = seed
        self.torus = QuantumTorus(seed) if torus is None else torus
        self.hom = TorusHom.identity(self.torus) if hom is None else hom
        self.dilogs = list(dilogs)

    def mutate(self, k, eps):
        new_seed = mutate_matrix(self.seed, k)
        new_torus = self.torus.mutated(new_seed, k)
        factor, self.hom = _extend(self.hom, self.seed, self.torus, new_torus,
                                   k, eps)
        self.dilogs.append(factor)
        self.seed = new_seed
        self.torus = new_torus

    def relabel(self, sigma: Perm):
        if sigma.is_identity():
            return
        self.seed, self.torus, perm = _relabelled(self.seed, self.torus, sigma)
        self.hom = self.hom.compose(perm)


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


def run_composites(seed: ExchangeSeed, ms: MutationSequence, sign_lists) -> dict:
    """``run_composite(seed, ms, signs)`` for every list in ``sign_lists``,
    keyed by the list as a tuple.

    The seeds and tori of the walk do not depend on the signs and are
    computed once; the maps and factors are folded with ``fold_prefixes``,
    so lists sharing a prefix share its steps.
    """
    keys = [tuple(signs) for signs in sign_lists]
    if any(len(signs) != len(ms.steps) for signs in keys):
        raise ValueError("one sign per mutation step required")
    seeds, tori = [seed], [QuantumTorus(seed)]
    for k in ms.steps:
        seeds.append(mutate_matrix(seeds[-1], k))
        tori.append(tori[-1].mutated(seeds[-1], k))

    def step(state, i, eps):
        hom, dilogs = state
        factor, hom = _extend(hom, seeds[i], tori[i], tori[i + 1], ms.steps[i], eps)
        return hom, dilogs + (factor,)

    folded = fold_prefixes(keys, (TorusHom.identity(tori[0]), ()), step)
    end_seed, end_torus, perm = seeds[-1], tori[-1], None
    if not ms.sigma.is_identity():
        end_seed, end_torus, perm = _relabelled(end_seed, end_torus, ms.sigma)
    return {key: CompositeState(end_seed, end_torus,
                                hom if perm is None else hom.compose(perm), dilogs)
            for key, (hom, dilogs) in folded.items()}


def hom_from_table(seed_src, seed_tgt, table: dict) -> TorusHom:
    """TorusHom from catalog monomial data {label: (s_exp, ((l, p), ...))}."""
    src = seed_src if isinstance(seed_src, QuantumTorus) else QuantumTorus(seed_src)
    tgt = seed_tgt if isinstance(seed_tgt, QuantumTorus) else QuantumTorus(seed_tgt)
    images = {label: tgt.monomial(s_exp, powers)
              for label, (s_exp, powers) in table.items()}
    for l in src.labels:
        images.setdefault(l, tgt.gen(l))
    return TorusHom(src, tgt, images)
