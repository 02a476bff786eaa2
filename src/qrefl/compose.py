"""Composite transformations built from mutation steps.

A composite is one signed mutation sequence: a MutationSequence with one
decomposition sign per step.  The rows of a composite identity (kind,
spaces, steps, sigma_pairs), one per named factor R, Rbar or K, fold
into one such sequence.  Walking it composes the per-step monomial maps
into the composite's monomial part and pushes each step's generator
through the maps accumulated so far, which yields the dilogarithm factor
list in the initial torus (all factors of one composite share that torus).
Taken with the sign of the current image of Y_k at each step, the same
walk is the tropical y-seed: its images are the tropical y-vectors.
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


def _extend(images, seed, k, eps, target):
    """One signed mutation step at k on the ``images`` of a map composed
    from the torus of ``seed`` into the torus ``target``: the dilog factor
    the step emits and the images of the composed map from the torus
    after the step.  The step's monomial part sends Y_k to Y_k^-1 and Y_i
    to Y_i Y_k^m for m = [eps*b_ik]_+ > 0, so only those images change, by
    integer vector arithmetic."""
    images = dict(images)
    vk = images[k]
    images[k] = neg = tuple(-x for x in vk)
    arg = target.element(ONE, vk if eps > 0 else neg)
    for i, bik in seed.column(k).items():
        m = eps * bik
        if m > 0:
            images[i] = tuple(x + m * y for x, y in zip(images[i], vk))
    return (seed.d[k], arg, eps), images


def _relabelled(seed, torus, sigma):
    """The seed relabelled by ``sigma`` and the map from its torus back
    to ``torus``, the torus of ``seed``, that composed maps are pulled
    along."""
    new_seed = seed.permuted(sigma)
    return new_seed, perm_hom(QuantumTorus(new_seed), torus, sigma)


def _tropical_sign(v, k) -> int:
    """The sign of ``v``, the image of Y_k; raises ValueError unless ``v``
    is nonzero and sign-coherent."""
    if min(v) >= 0 < max(v):
        return 1
    if max(v) <= 0 > min(v):
        return -1
    raise ValueError(f"zero or sign-incoherent tropical variable at {k}: {v}")


class CompositeState:
    """Seed + composed monomial map from its torus + accumulated dilog factors."""

    def __init__(self, seed: ExchangeSeed, hom=None, dilogs=()):
        self.seed = seed
        self.hom = TorusHom.identity(QuantumTorus(seed)) if hom is None else hom
        self.dilogs = list(dilogs)

    def mutate(self, k, eps=None):
        """Mutate at k with the sign ``eps``, by default the tropical sign:
        that of the image of Y_k, read once ``mutate_matrix`` has checked k."""
        new_seed = mutate_matrix(self.seed, k)
        if eps is None:
            eps = _tropical_sign(self.hom.images[k], k)
        factor, images = _extend(self.hom.images, self.seed, k, eps, self.hom.target)
        self.hom = TorusHom(QuantumTorus(new_seed), self.hom.target, images)
        self.dilogs.append(factor)
        self.seed = new_seed

    def relabel(self, sigma: Perm):
        if sigma.is_identity():
            return
        self.seed, perm = _relabelled(self.seed, self.hom.source, sigma)
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


def tropical_walk(seed: ExchangeSeed, ms: MutationSequence) -> CompositeState:
    """``run_composite`` with the tropical signs, so the images of the map
    are the tropical y-vectors and the factors carry the tropical signs."""
    st = CompositeState(seed)
    for k in ms.steps:
        st.mutate(k)
    st.relabel(ms.sigma)
    return st


def run_composites(seed: ExchangeSeed, ms: MutationSequence, sign_lists) -> dict:
    """``run_composite(seed, ms, signs)`` for every list in ``sign_lists``,
    keyed by the list as a tuple.

    The seeds of the walk do not depend on the signs and are computed
    once; the images of the maps and the factors are folded with
    ``fold_prefixes``, so lists sharing a prefix share its steps.
    """
    keys = [tuple(signs) for signs in sign_lists]
    if any(len(signs) != len(ms.steps) for signs in keys):
        raise ValueError("one sign per mutation step required")
    seeds = [seed]
    for k in ms.steps:
        seeds.append(mutate_matrix(seeds[-1], k))
    target = QuantumTorus(seed)

    def step(state, i, eps):
        images, dilogs = state
        factor, images = _extend(images, seeds[i], ms.steps[i], eps, target)
        return images, dilogs + (factor,)

    folded = fold_prefixes(keys, (TorusHom.identity(target).images, ()), step)
    end_seed, end_torus, perm = seeds[-1], QuantumTorus(seeds[-1]), None
    if not ms.sigma.is_identity():
        end_seed, perm = _relabelled(end_seed, end_torus, ms.sigma)
    out = {}
    for key, (images, dilogs) in folded.items():
        hom = TorusHom(end_torus, target, images)
        out[key] = CompositeState(end_seed, hom if perm is None else hom.compose(perm),
                                  dilogs)
    return out


def hom_from_table(seed_src, seed_tgt, table: dict) -> TorusHom:
    """TorusHom from catalog monomial data {label: (s_exp, ((l, p), ...))},
    a label the table leaves out being fixed.  Raises ValueError unless
    every image has coefficient 1 and the images q-commute like the
    source generators: only then does the map send coefficients through."""
    src, tgt = QuantumTorus(seed_src), QuantumTorus(seed_tgt)
    images = {l: tgt.unit(l) for l in src.labels}
    for label, (s_exp, powers) in table.items():
        m = tgt.monomial(s_exp, powers)
        if m.coeff != ONE:
            raise ValueError(f"image of {label} has coefficient {m.coeff.as_pair_str()}")
        images[label] = m.alpha
    hom = TorusHom(src, tgt, images)
    if not hom.respects_commutation():
        raise ValueError("images do not q-commute like the source generators")
    return hom
