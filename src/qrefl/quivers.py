"""Builtin catalog of the butterfly/Fock-Goncharov quivers and sequences.

Arrow lists are transcribed from the source diagrams.  A single solid
arrow i -> j contributes bhat_ij = lcm(d_i, d_j); a dashed arrow
contributes half of that.  Entries of b follow as b_ij = bhat_ij / d_j.
Each seed is validated on construction (skew-symmetrizability is a
built-in check of ExchangeSeed), which guards the transcription.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cluster import ExchangeSeed, MutationSequence, Perm, UnknownName

_QUIVERS = {
    "B(A2)": dict(
        labels=range(0, 10),
        weights={},
        solid=[(5, 9), (9, 6), (7, 9), (8, 7), (6, 7), (6, 5), (4, 5), (5, 1),
               (2, 6), (7, 3), (3, 2), (1, 2), (2, 0)],
        dashed=[(9, 4), (9, 8), (1, 4), (3, 8), (0, 1), (0, 3)],
    ),
    "B'(A2)": dict(
        labels=range(0, 10),
        weights={},
        solid=[(7, 0), (0, 6), (5, 0), (1, 7), (6, 7), (6, 5), (3, 5), (2, 6),
               (7, 4), (5, 8), (4, 2), (8, 2), (2, 9)],
        dashed=[(0, 1), (0, 3), (4, 1), (8, 3), (9, 4), (9, 8)],
    ),
    "B(A3)": dict(
        labels=range(1, 18),
        weights={},
        solid=[(3, 1), (2, 3), (4, 3), (3, 7), (6, 2), (8, 4), (5, 6), (7, 6),
               (7, 8), (9, 8), (11, 5), (6, 12), (13, 7), (8, 14), (15, 9),
               (10, 11), (12, 11), (12, 13), (14, 13), (14, 15), (16, 15),
               (13, 17), (17, 14), (17, 12), (15, 17), (11, 17)],
        dashed=[(17, 16), (17, 10), (1, 2), (2, 5), (5, 10), (1, 4), (4, 9),
                (9, 16)],
    ),
    # The six boundary half-arrows of the source figure's target are not
    # mutation-consistent (its symmetrized matrix has rank 14, the source
    # has 12); the orientations below are forced by running the composite
    # sequence, which reverses them.
    "B'(A3)": dict(
        labels=range(1, 18),
        weights={},
        solid=[(3, 17), (10, 3), (16, 3), (3, 7), (6, 16), (8, 10), (5, 8),
               (7, 8), (7, 6), (9, 6), (13, 7), (6, 14), (11, 9), (8, 12),
               (15, 5), (4, 11), (12, 13), (14, 11), (14, 13), (12, 15),
               (2, 15), (13, 1), (1, 14), (1, 12), (15, 1), (11, 1)],
        dashed=[(1, 2), (1, 4), (17, 10), (5, 2), (10, 5), (17, 16), (9, 4),
                (16, 9)],
    ),
    "B(C2)": dict(
        labels=range(1, 12),
        weights={1: 2, 2: 2, 3: 2, 4: 2, 5: 2},
        solid=[(1, 2), (3, 2), (3, 4), (5, 4), (6, 7), (8, 7), (8, 9),
               (10, 9), (4, 10), (9, 3), (2, 8), (7, 1), (7, 11), (11, 8),
               (9, 11)],
        dashed=[(10, 5), (1, 6), (11, 6), (11, 10)],
    ),
    "B'(C2)": dict(
        labels=range(1, 12),
        weights={1: 2, 2: 2, 3: 2, 4: 2, 5: 2},
        solid=[(1, 2), (3, 2), (3, 4), (5, 4), (6, 7), (8, 7), (8, 9),
               (10, 9), (9, 5), (4, 8), (7, 3), (2, 6), (7, 11), (11, 8),
               (9, 11)],
        dashed=[(5, 10), (6, 1), (11, 6), (11, 10)],
    ),
    "B(C3)": dict(
        labels=range(1, 23),
        weights={i: 2 for i in range(1, 8)},
        solid=[(1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6),
               (8, 9), (10, 9), (10, 11), (12, 11), (12, 13), (14, 13),
               (9, 1), (2, 10), (11, 3), (4, 12), (13, 5), (6, 14),
               (15, 16), (17, 16), (17, 18), (19, 18), (19, 20), (21, 20),
               (16, 8), (9, 17), (18, 10), (11, 19), (20, 12), (13, 21),
               (18, 22), (22, 19), (22, 17), (20, 22), (16, 22)],
        dashed=[(22, 21), (22, 15), (21, 14), (8, 15), (14, 7), (1, 8)],
    ),
    "B'(C3)": dict(
        labels=range(1, 23),
        weights={i: 2 for i in range(1, 8)},
        solid=[(1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6),
               (8, 18), (17, 18), (17, 16), (10, 16), (10, 20), (14, 20),
               (2, 8), (18, 3), (4, 17), (16, 5), (6, 10), (20, 7),
               (15, 9), (19, 9), (19, 13), (12, 13), (12, 11), (21, 11),
               (18, 15), (9, 17), (16, 19), (13, 10), (20, 12), (11, 14),
               (13, 22), (22, 12), (22, 19), (11, 22), (9, 22)],
        dashed=[(22, 21), (22, 15), (14, 21), (15, 8), (7, 14), (8, 1)],
    ),
    "B_FG(A2)": dict(
        labels=range(1, 6),
        weights={},
        solid=[(3, 4), (4, 1), (1, 2), (2, 4), (4, 5)],
        dashed=[(1, 3), (5, 2)],
    ),
    "B'_FG(A2)": dict(
        labels=range(1, 6),
        weights={},
        solid=[(1, 4), (4, 2), (3, 5), (5, 4), (4, 3)],
        dashed=[(3, 1), (2, 5)],
    ),
    "B_FG(C2)": dict(
        labels=range(1, 7),
        weights={1: 2, 2: 2, 3: 2},
        solid=[(1, 2), (2, 3), (4, 5), (5, 6), (2, 5), (5, 1), (6, 2)],
        dashed=[(1, 4), (3, 6)],
    ),
    "B'_FG(C2)": dict(
        labels=range(1, 7),
        weights={1: 2, 2: 2, 3: 2},
        solid=[(1, 2), (2, 3), (4, 5), (5, 6), (5, 2), (2, 4), (3, 5)],
        dashed=[(4, 1), (6, 3)],
    ),
    "B_FG(B2)": dict(
        labels=range(1, 7),
        weights={4: 2, 5: 2, 6: 2},
        solid=[(1, 2), (2, 3), (4, 5), (5, 6), (2, 5), (5, 1), (6, 2)],
        dashed=[(1, 4), (3, 6)],
    ),
    "B'_FG(B2)": dict(
        labels=range(1, 7),
        weights={4: 2, 5: 2, 6: 2},
        solid=[(1, 2), (2, 3), (4, 5), (5, 6), (5, 2), (2, 4), (3, 5)],
        dashed=[(4, 1), (6, 3)],
    ),
}

_SEQUENCES = {
    "R-seq": ("B(A2)", (6, 5, 7, 2), ((5, 7), (2, 6))),
    "Rbar-seq": ("B'(A2)", (6, 5, 7, 2), ((5, 7), (2, 6))),
    "K-seq": ("B(C2)", (8, 3, 9, 2, 7, 4, 9, 2, 8, 3), ()),
    "FG-R-seq": ("B_FG(A2)", (4,), ()),
    "FG-K-seq": ("B_FG(C2)", (2, 5, 2), ()),
}


def _build(spec) -> ExchangeSeed:
    labels = list(spec["labels"])
    d = {i: spec["weights"].get(i, 1) for i in labels}
    b = {}

    def put(i, j, half):
        l = d[i] * d[j] // gcd(d[i], d[j])
        bhat = Fraction(l, 2) if half else Fraction(l)
        b.setdefault(i, {})[j] = bhat / d[j]
        b.setdefault(j, {})[i] = -bhat / d[i]

    for i, j in spec["solid"]:
        put(i, j, half=False)
    for i, j in spec["dashed"]:
        put(i, j, half=True)
    return ExchangeSeed(labels, b, d)


_CACHE = {}


def builtin(name: str):
    """Look up a named quiver (ExchangeSeed) or mutation sequence."""
    if name in _QUIVERS:
        if name not in _CACHE:
            _CACHE[name] = _build(_QUIVERS[name])
        return _CACHE[name]
    if name in _SEQUENCES:
        _, steps, cycles = _SEQUENCES[name]
        return MutationSequence(steps, Perm.transpositions(cycles))
    raise UnknownName(name)


def names():
    return sorted(_QUIVERS) + sorted(_SEQUENCES)
