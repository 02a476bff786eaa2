"""Exchange matrices, weighted quivers, matrix/tropical mutation, periodicity.

Vertices are integer labels exactly as they appear in the source
diagrams (some quivers use 0, most are 1-based); everything downstream
keeps these labels, so reports and fixtures never translate indices.
Exchange matrices are sparse {i: {j: Fraction}} with entries in (1/2)Z.
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
    """Skew-symmetrizable exchange matrix with symmetrizer and frozen set."""

    __slots__ = ("labels", "b", "d", "frozen")

    def __init__(self, labels, b, d, check=True, frozen=None):
        self.labels = tuple(sorted(labels))
        self.b = {i: {j: v if type(v) is Fraction else Fraction(v)
                      for j, v in row.items() if v}
                  for i, row in b.items() if row}
        for i in self.labels:
            self.b.setdefault(i, {})
        self.d = {i: int(d[i]) for i in self.labels}
        # a vertex is frozen when its row or column holds a half-integer;
        # a caller that knows the set already passes it as ``frozen``
        if frozen is None:
            frozen = frozenset(k for i, row in self.b.items()
                               for j, v in row.items() if v.denominator != 1
                               for k in (i, j))
        self.frozen = frozen
        if check:
            self.validate()

    def entry(self, i, j) -> Fraction:
        return self.b.get(i, {}).get(j, Fraction(0))

    def bhat(self, i, j) -> Fraction:
        return self.entry(i, j) * self.d[j]

    def validate(self):
        g = 0
        for i in self.labels:
            if self.d[i] <= 0:
                raise ValueError("symmetrizer entries must be positive")
            g = gcd(g, self.d[i])
        if g != 1:
            raise ValueError("symmetrizer gcd must be 1")
        for i in self.labels:
            for j, v in self.b[i].items():
                if (2 * v).denominator != 1:
                    raise ValueError(f"entry b[{i}][{j}] outside (1/2)Z")
                if self.bhat(i, j) != -self.bhat(j, i):
                    raise ValueError(f"B*d not skew-symmetric at ({i},{j})")

    def n(self):
        return len(self.labels)

    def mutable(self):
        return [i for i in self.labels if i not in self.frozen]

    def rank_bhat(self) -> int:
        """Rank of Bhat, from the integer rows of 2*Bhat (B lies in (1/2)Z)."""
        lab = self.labels
        return len(_row_reduce([[int(2 * self.bhat(i, j)) for j in lab] for i in lab],
                               len(lab)))

    def permuted(self, sigma: Perm) -> "ExchangeSeed":
        b = {}
        for i in self.labels:
            for j, v in self.b[i].items():
                b.setdefault(sigma(i), {})[sigma(j)] = v
        d = {sigma(i): self.d[i] for i in self.labels}
        return ExchangeSeed(self.labels, b, d, check=False,
                            frozen=frozenset(map(sigma, self.frozen)))

    def __eq__(self, other):
        # exact: the constructor stores no zero entries and one row per label
        if not isinstance(other, ExchangeSeed):
            return NotImplemented
        return self.labels == other.labels and self.d == other.d and self.b == other.b

    def __repr__(self):
        return f"ExchangeSeed(n={self.n()}, frozen={sorted(self.frozen)})"


def mutate_matrix(seed: ExchangeSeed, k) -> ExchangeSeed:
    """Matrix mutation at an unfrozen vertex; the symmetrizer is unchanged.

    b'_ij = -b_ij when i or j is k; otherwise b'_ij = b_ij + |b_ik| b_kj
    when b_ik and b_kj have the same sign, and b'_ij = b_ij when they do
    not.  Only the rows in the support of column k change.  Row and
    column k hold integers, so every entry changes by an integer and the
    frozen set (the half-integer pattern) is carried over."""
    if k not in seed.d:
        raise BadIndex(k)
    if k in seed.frozen:
        raise FrozenVertex(k)
    row_k = seed.b[k]
    b = {}
    for i, row in seed.b.items():
        bik = row.get(k)
        if i == k:
            row = {j: -v for j, v in row.items()}
        elif bik:
            row = dict(row)
            row[k] = -bik
            for j, bkj in row_k.items():
                if (bkj > 0) == (bik > 0):
                    row[j] = row.get(j, 0) + abs(bik) * bkj
        b[i] = row
    return ExchangeSeed(seed.labels, b, seed.d, check=False, frozen=seed.frozen)


class TropicalSeed:
    """Exchange seed with tropical y-variables (integer exponent vectors)."""

    __slots__ = ("seed", "y")

    def __init__(self, seed: ExchangeSeed, y=None):
        self.seed = seed
        if y is None:
            lab = seed.labels
            y = {i: tuple(1 if j == i else 0 for j in lab) for i in lab}
        self.y = y

    def sign(self, i) -> int:
        """Tropical sign of y_i; raises if not sign-coherent."""
        v = self.y[i]
        if all(a >= 0 for a in v) and any(a > 0 for a in v):
            return 1
        if all(a <= 0 for a in v) and any(a < 0 for a in v):
            return -1
        if all(a == 0 for a in v):
            raise ValueError("zero tropical exponent")
        raise ValueError(f"sign-incoherent tropical variable at {i}: {v}")

    def permuted(self, sigma: Perm) -> "TropicalSeed":
        y = {sigma(i): self.y[i] for i in self.seed.labels}
        return TropicalSeed(self.seed.permuted(sigma), y)

    def __eq__(self, other):
        return (isinstance(other, TropicalSeed)
                and self.seed == other.seed and self.y == other.y)


def mutate_tropical(ts: TropicalSeed, k) -> TropicalSeed:
    seed = ts.seed
    if k not in seed.d:
        raise BadIndex(k)
    if k in seed.frozen:
        raise FrozenVertex(k)
    yk = ts.y[k]
    y = {}
    for i in seed.labels:
        if i == k:
            y[i] = tuple(-a for a in yk)
            continue
        bik = seed.entry(i, k)
        if bik == 0:
            y[i] = ts.y[i]
            continue
        s = 1 if bik > 0 else -1
        # (1 (+) y_k^{-s})^{-b_ik}: exponent is min(0, -s*alpha_k) per slot
        m = [min(0, -s * a) for a in yk]
        coef = -bik
        if any((coef * x).denominator != 1 for x in map(Fraction, m)):
            raise ValueError("non-integral tropical update")
        y[i] = tuple(a + int(coef * x) for a, x in zip(ts.y[i], m))
    return TropicalSeed(mutate_matrix(seed, k), y)


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

    def apply_tropical(self, ts: TropicalSeed) -> TropicalSeed:
        for k in self.steps:
            ts = mutate_tropical(ts, k)
        return ts.permuted(self.sigma)

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


def is_sigma_period(seed: ExchangeSeed, ms: MutationSequence) -> bool:
    """True iff sigma^{-1}(final tropical seed) equals the initial one."""
    start = TropicalSeed(seed)
    end = ms.apply_tropical(start)
    return end == start


def tropical_signs(seed: ExchangeSeed, ms: MutationSequence) -> tuple:
    """The tropical sign of y_k at every step k of ``ms``, walked from the
    initial tropical seed of ``seed``; raises ValueError at a step whose
    y_k is not sign-coherent."""
    ts, signs = TropicalSeed(seed), []
    for k in ms.steps:
        signs.append(ts.sign(k))
        ts = mutate_tropical(ts, k)
    return tuple(signs)


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
