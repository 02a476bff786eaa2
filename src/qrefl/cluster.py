"""Exchange matrices, weighted quivers, matrix mutation, mutation sequences.

Vertices are integer labels exactly as they appear in the source
diagrams (some quivers use 0, most are 1-based); everything downstream
keeps these labels, so reports and fixtures never translate indices.
An exchange seed stores its matrix as the integer skew form S = 2*B*D
that its quantum torus reads, in sparse rows by label position.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .params import _row_reduce


class FrozenVertex(Exception):
    pass


class BadIndex(Exception):
    pass


class UnknownName(Exception):
    pass


class Perm:
    """Permutation of vertex labels, stored as a mapping (identity omitted)."""

    __slots__ = ("map",)

    def __init__(self, mapping=None):
        m = {k: v for k, v in (mapping or {}).items() if k != v}
        self.map = m

    @classmethod
    def from_cycles(cls, cycles):
        m = {}
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                m[a] = b
        return cls(m)

    @classmethod
    def transpositions(cls, pairs):
        return cls.from_cycles([tuple(p) for p in pairs])

    def __call__(self, x):
        return self.map.get(x, x)

    def inv(self) -> "Perm":
        return Perm({v: k for k, v in self.map.items()})

    def __mul__(self, other: "Perm") -> "Perm":
        keys = set(self.map) | set(other.map)
        return Perm({k: self(other(k)) for k in keys})

    def is_identity(self):
        return not self.map

    def cycles(self):
        seen = set()
        out = []
        for k in sorted(self.map):
            if k in seen:
                continue
            cyc = [k]
            seen.add(k)
            x = self(k)
            while x != k:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Perm) and self.map == other.map

    def __hash__(self):
        return hash(frozenset(self.map.items()))

    def __repr__(self):
        return "".join(f"({' '.join(map(str, c))})" for c in self.cycles()) or "id"


class ExchangeSeed:
    """Skew-symmetrizable exchange matrix with symmetrizer and frozen set.

    The matrix is stored once, as the integer skew form S = 2*Bhat with
    Bhat = B*D, the s-exponent form of the seed's quantum torus: ``rows``
    holds one sparse row {j: S_ij} per label, both indexed by position in
    the sorted ``labels`` (``index`` maps a label to its position).  An
    entry b_ij = S_ij / (2 d_j) is computed on demand by ``entry``."""

    __slots__ = ("labels", "index", "rows", "d", "frozen")

    def __init__(self, labels, b, d):
        """The seed of the matrix ``b`` {i: {j: b_ij}}, rational entries
        in (1/2)Z, and the symmetrizer ``d`` {i: d_i}; see ``validate``."""
        self.labels = labels = tuple(sorted(labels))
        self.index = index = {l: p for p, l in enumerate(labels)}
        self.d = d = {i: int(d[i]) for i in labels}
        # S_ij = 2 b_ij d_j, exact for rational b, is integral once
        # validate passes
        self.rows = [{index[j]: 2 * v * d[j] for j, v in b.get(i, {}).items() if v}
                     for i in labels]
        self.validate()
        self.rows = rows = [{c: int(x) for c, x in row.items()} for row in self.rows]
        # a vertex is frozen when its row or column holds a half-integer
        self.frozen = frozenset(k for p, row in enumerate(rows)
                                for c, x in row.items() if x % (2 * d[labels[c]])
                                for k in (labels[p], labels[c]))

    @classmethod
    def _of(cls, labels, index, rows, d, frozen) -> "ExchangeSeed":
        """A seed from its stored parts, unchecked: the one path by which
        ``permuted`` and ``mutate_matrix`` carry the frozen set over."""
        out = cls.__new__(cls)
        out.labels, out.index, out.rows = labels, index, rows
        out.d, out.frozen = d, frozen
        return out

    def bhat(self, i, j) -> Fraction:
        return Fraction(self.rows[self.index[i]].get(self.index[j], 0), 2)

    def entry(self, i, j) -> Fraction:
        return self.bhat(i, j) / self.d[j]

    def column(self, k) -> dict:
        """{i: b_ik} over the support of column k, that of row k (S is
        skew), for an unfrozen k: then b_ik = -S_ki / (2 d_k) is an int."""
        dk2 = 2 * self.d[k]
        return {self.labels[c]: -x // dk2 for c, x in self.rows[self.index[k]].items()}

    def validate(self):
        """Raises ValueError unless D is positive with gcd 1 and S is
        skew-symmetric with every b_ij = S_ij / (2 d_j) in (1/2)Z."""
        d, lab, rows = self.d, self.labels, self.rows
        if any(x <= 0 for x in d.values()):
            raise ValueError("symmetrizer entries must be positive")
        if gcd(*d.values()) != 1:
            raise ValueError("symmetrizer gcd must be 1")
        for p, row in enumerate(rows):
            for c, x in row.items():
                if x % d[lab[c]]:
                    raise ValueError(f"entry b[{lab[p]}][{lab[c]}] outside (1/2)Z")
                if x != -rows[c].get(p, 0):
                    raise ValueError(f"B*d not skew-symmetric at ({lab[p]},{lab[c]})")

    def n(self):
        return len(self.labels)

    def mutable(self):
        return [i for i in self.labels if i not in self.frozen]

    def rank_bhat(self) -> int:
        """Rank of Bhat, that of the integer rows of S = 2*Bhat."""
        return len(_row_reduce([dict(row) for row in self.rows], self.n()))

    def permuted(self, sigma: Perm) -> "ExchangeSeed":
        lab, index, inv = self.labels, self.index, sigma.inv()
        to = [index[sigma(i)] for i in lab]
        rows = [None] * len(lab)
        for p, row in enumerate(self.rows):
            rows[to[p]] = {to[c]: x for c, x in row.items()}
        return ExchangeSeed._of(lab, index, rows, {i: self.d[inv(i)] for i in lab},
                                frozenset(map(sigma, self.frozen)))

    def __eq__(self, other):
        # exact: rows hold no zero entries
        if not isinstance(other, ExchangeSeed):
            return NotImplemented
        return (self.labels == other.labels and self.d == other.d
                and self.rows == other.rows)

    def __repr__(self):
        return f"ExchangeSeed(n={self.n()}, frozen={sorted(self.frozen)})"


def mutate_matrix(seed: ExchangeSeed, k) -> ExchangeSeed:
    """Matrix mutation at an unfrozen vertex; the symmetrizer is unchanged.

    b'_ij = -b_ij when i or j is k; otherwise b'_ij = b_ij + |b_ik| b_kj
    when b_ik and b_kj have the same sign, and b'_ij = b_ij when they do
    not.  On S = 2*Bhat that reads S'_ij = S_ij + |S_ik| S_kj / (2 d_k),
    an exact division as b_ik is an integer for unfrozen k.  Only row k
    and the rows in the support of column k (that of row k, S being skew)
    change; the other rows, the labels and the symmetrizer are shared with
    ``seed``.  Row and column k hold integers, so every entry of B changes
    by an integer and the frozen set (the half-integer pattern) is carried
    over."""
    if k not in seed.d:
        raise BadIndex(k)
    if k in seed.frozen:
        raise FrozenVertex(k)
    kp, dk2 = seed.index[k], 2 * seed.d[k]
    rows = list(seed.rows)
    row_k = rows[kp]
    rows[kp] = {j: -v for j, v in row_k.items()}
    for i in row_k:
        rows[i] = row = dict(rows[i])
        sik = row[kp]
        row[kp] = -sik
        m = abs(sik) // dk2
        for j, skj in row_k.items():
            if (skj > 0) == (sik > 0):
                v = row.get(j, 0) + m * skj
                if v:
                    row[j] = v
                else:
                    del row[j]
    return ExchangeSeed._of(seed.labels, seed.index, rows, seed.d, seed.frozen)


class MutationSequence:
    """Ordered mutation steps followed by a permutation of the labels."""

    __slots__ = ("steps", "sigma")

    def __init__(self, steps, sigma: Perm = None):
        self.steps = tuple(steps)
        self.sigma = sigma or Perm()

    def apply_matrix(self, seed: ExchangeSeed) -> ExchangeSeed:
        for k in self.steps:
            seed = mutate_matrix(seed, k)
        return seed.permuted(self.sigma)

    def then(self, other: "MutationSequence") -> "MutationSequence":
        """self first, then other (labels of other already post-sigma)."""
        sig = self.sigma
        steps = self.steps + tuple(sig.inv()(k) for k in other.steps)
        # mu_{sig^{-1}(k)} before sigma equals mu_k after sigma
        return MutationSequence(steps, other.sigma * sig)

    def inverse(self) -> "MutationSequence":
        sig = self.sigma
        steps = tuple(sig(k) for k in reversed(self.steps))
        return MutationSequence(steps, sig.inv())

    def __repr__(self):
        return f"MutationSequence({list(self.steps)}, {self.sigma})"


def seed_to_text(seed: ExchangeSeed, sequences=None) -> str:
    lab = seed.labels
    lines = [f"n {len(lab)}"]
    lines.append("labels " + " ".join(map(str, lab)))
    lines.append("d " + " ".join(str(seed.d[i]) for i in lab))
    lines.append("frozen " + " ".join(str(i) for i in sorted(seed.frozen)))
    row = []
    for i in lab:
        for j in lab:
            v = seed.entry(i, j)
            row.append(str(v) if v.denominator == 1 else f"{v.numerator}/2")
    lines.append("b " + " ".join(row))
    for name, ms in (sequences or {}).items():
        cyc = "".join(f"({' '.join(map(str, c))})" for c in ms.sigma.cycles()) or "()"
        lines.append(f"seq {name} {' '.join(map(str, ms.steps))} | {cyc}")
    return "\n".join(lines) + "\n"


class MalformedQuiver(ValueError):
    """A quiver file that does not describe an exchange seed."""


def _entries(key, vals, count=None, kind=int):
    """The values of a ``key`` line (None when it is missing), read by
    ``kind``; ``count`` of them when a count is given."""
    if vals is None:
        raise MalformedQuiver(f"no {key} line")
    if count is not None and len(vals) != count:
        raise MalformedQuiver(f"expected {count} entries on the {key} line, "
                              f"got {len(vals)}")
    try:
        return [kind(x) for x in vals]
    except (ValueError, ZeroDivisionError):
        raise MalformedQuiver(f"{key} line holds {' '.join(vals)!r}, "
                              f"not {'integers' if kind is int else 'fractions'}")


def seed_from_text(text: str):
    """The seed and named sequences of a quiver file (the format that
    seed_to_text writes); raises MalformedQuiver on anything else."""
    fields = {}
    seqs = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "seq":
            name, _, body = rest.partition(" ")
            steps_part, _, sig_part = body.partition("|")
            try:
                steps = tuple(int(x) for x in steps_part.split())
                seqs[name] = MutationSequence(steps, _parse_cycles(sig_part.strip()))
            except ValueError:
                raise MalformedQuiver(f"seq {name} holds a vertex that is not an integer")
        else:
            fields[key] = rest.split()
    n, = _entries("n", fields.get("n"), 1)
    if n < 1:
        raise MalformedQuiver(f"n must be positive, got {n}")
    default = [str(i) for i in range(1, n + 1)]
    labels = _entries("labels", fields.get("labels", default), n)
    if len(set(labels)) != n:
        raise MalformedQuiver("labels repeat")
    d = dict(zip(labels, _entries("d", fields.get("d"), n)))
    vals = iter(_entries("b", fields.get("b"), n * n, Fraction))
    b = {i: {j: next(vals) for j in labels} for i in labels}
    try:
        seed = ExchangeSeed(labels, b, d)
    except ValueError as exc:
        raise MalformedQuiver(str(exc))
    if "frozen" in fields and set(_entries("frozen", fields["frozen"])) != seed.frozen:
        raise MalformedQuiver("declared frozen set disagrees with the matrix")
    return seed, seqs


def _parse_cycles(s: str) -> Perm:
    cycles = []
    depth = []
    for chunk in s.replace("(", " ( ").replace(")", " ) ").split():
        if chunk == "(":
            depth = []
        elif chunk == ")":
            if depth:
                cycles.append(tuple(depth))
        else:
            depth.append(int(chunk))
    return Perm.from_cycles(cycles)
