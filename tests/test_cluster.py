from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qrefl.cluster import (BadIndex, ExchangeSeed, FrozenVertex,
                           MalformedQuiver, MutationSequence, Perm,
                           mutate_matrix, seed_from_text, seed_to_text)
from qrefl.compose import CompositeState, composite_sequence, tropical_walk
from qrefl.qtorus import QuantumTorus, TorusHom
from qrefl.quivers import builtin, names
import qrefl.compositions as FX
import qrefl.verify as V

from printed_tables import BHAT_C2_PRINTED
from reflection_reference import TROPICAL_SIGNS_LHS


def test_catalog_names_complete():
    expect = {"B(A2)", "B'(A2)", "B(A3)", "B'(A3)", "B(C2)", "B'(C2)",
              "B(C3)", "B'(C3)", "B_FG(A2)", "B'_FG(A2)", "B_FG(C2)",
              "B'_FG(C2)", "B_FG(B2)", "B'_FG(B2)", "R-seq", "Rbar-seq",
              "K-seq", "FG-R-seq", "FG-K-seq"}
    assert expect <= set(names())


def test_mutation_involution_and_symmetrizer():
    for name in ("B(A2)", "B(C2)", "B(C3)"):
        seed = builtin(name)
        for k in seed.mutable()[:4]:
            out = mutate_matrix(mutate_matrix(seed, k), k)
            assert out == seed
            assert mutate_matrix(seed, k).d == seed.d
            mutate_matrix(seed, k).validate()   # Bd stays skew-symmetric


def _mutate_dense(seed, k):
    """The dense mutation formula, entry by entry: the oracle for the
    sparse mutate_matrix."""
    b = {}
    for i in seed.labels:
        for j in seed.labels:
            bij = seed.entry(i, j)
            if i == k or j == k:
                v = -bij
            else:
                bik, bkj = seed.entry(i, k), seed.entry(k, j)
                v = bij + (abs(bik) * bkj + bik * abs(bkj)) / 2
            if v:
                b.setdefault(i, {})[j] = v
    return ExchangeSeed(seed.labels, b, seed.d)


@st.composite
def _seeds(draw):
    """A skew-symmetrizable seed: positive d with gcd 1, skew Bhat = B d,
    half-integer entries only in the rows and columns of the vertices
    drawn as frozen."""
    n = draw(st.integers(1, 6))
    start = draw(st.integers(0, 1))      # some quivers label from 0
    labels = range(start, start + n)
    d = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)
             .filter(lambda d: gcd(*d) == 1))
    frozen = draw(st.sets(st.sampled_from(labels), max_size=2))
    d = dict(zip(labels, d))
    b = {i: {} for i in labels}
    for i, j in combinations(labels, 2):
        # b_ij d_j = -b_ji d_i in (1/h)Z: b_ij = t d_i/g/h, b_ji = -t d_j/g/h
        t, g = draw(st.integers(-2, 2)), gcd(d[i], d[j])
        h = 2 if {i, j} & frozen else 1
        b[i][j] = Fraction(t * d[i] // g, h)
        b[j][i] = Fraction(-t * d[j] // g, h)
    return ExchangeSeed(labels, b, d)


def _check_against_dense(seed):
    rows = [dict(row) for row in seed.rows]
    for k in seed.mutable():
        out, want = mutate_matrix(seed, k), _mutate_dense(seed, k)
        assert all(out.entry(i, j) == want.entry(i, j)
                   for i in seed.labels for j in seed.labels)
        assert out == want
        assert out.frozen == want.frozen and out.d == want.d
        assert mutate_matrix(out, k) == seed
        assert seed.rows == rows


@settings(max_examples=200, deadline=None)
@given(_seeds())
def test_mutation_matches_dense_formula(seed):
    _check_against_dense(seed)


def test_mutation_matches_dense_formula_on_builtin_seeds():
    seeds = [builtin(n) for n in names() if isinstance(builtin(n), ExchangeSeed)]
    assert len(seeds) == 14
    for seed in seeds:
        _check_against_dense(seed)


def _initial_y(seed):
    return {i: tuple(int(i == j) for j in seed.labels) for i in seed.labels}


def _mutate_tropical_dense(seed, y, k):
    """The tropical mutation formula at every label, with the entries of B
    read as Fractions: y_k -> -y_k, and y_i gains -b_ik min(0, -s y_k)
    slotwise, s the sign of b_ik.  The reference for tropical_walk, whose
    sign-coherent rule adds [eps b_ik]_+ y_k instead."""
    yk = y[k]
    out = {}
    for i in seed.labels:
        bik = seed.entry(i, k)
        s = 1 if bik > 0 else -1
        out[i] = (tuple(-a for a in yk) if i == k else
                  tuple(a - bik * min(0, -s * x) for a, x in zip(y[i], yk)))
    return _mutate_dense(seed, k), out


def _coherent_sign(v):
    """1 or -1 for a nonzero sign-coherent vector, else None."""
    if any(v) and all(a >= 0 for a in v):
        return 1
    if any(v) and all(a <= 0 for a in v):
        return -1
    return None


BUILTIN_SEEDS = [n for n in names() if isinstance(builtin(n), ExchangeSeed)]


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from(BUILTIN_SEEDS).map(builtin), _seeds()), st.data())
def test_tropical_walk_matches_dense_formula(seed, data):
    # every prefix of a random mutable walk, followed by a random relabel,
    # lands where the min formula does: same seed and same images, the
    # image of Y_k it reads at each step is sign-coherent, and the sign the
    # walk takes is that image's sign
    mutable = seed.mutable()
    steps = data.draw(st.lists(st.sampled_from(mutable), max_size=12)
                      if mutable else st.just([]))
    lab = seed.labels
    sigma = Perm(dict(zip(lab, data.draw(st.permutations(lab)))))
    ref, y, signs = seed, _initial_y(seed), []
    for n in range(len(steps) + 1):
        walk = tropical_walk(seed, MutationSequence(steps[:n], sigma))
        assert walk.seed == ref.permuted(sigma)
        assert walk.hom.images == {sigma(i): v for i, v in y.items()}
        assert all(type(a) is int for v in walk.hom.images.values() for a in v)
        assert tuple(eps for _, _, eps in walk.dilogs) == tuple(signs)
        if n < len(steps):
            k = steps[n]
            signs.append(_coherent_sign(y[k]))
            assert signs[-1] is not None
            ref, y = _mutate_tropical_dense(ref, y, k)


def test_tropical_walk_errors():
    # a missing or frozen k is refused by the matrix mutation before any
    # sign is read; a zero or sign-incoherent image of Y_k raises ValueError
    seed = builtin("B(A2)")
    with pytest.raises(BadIndex):
        tropical_walk(seed, MutationSequence((99,)))
    with pytest.raises(FrozenVertex):
        tropical_walk(seed, MutationSequence((min(seed.frozen),)))
    torus = QuantumTorus(seed)
    k, other = seed.mutable()[:2]
    for bad in ([0] * seed.n(), [int(j == k) - int(j == other) for j in seed.labels]):
        images = {**TorusHom.identity(torus).images, k: tuple(bad)}
        with pytest.raises(ValueError):
            CompositeState(seed, TorusHom(torus, torus, images)).mutate(k)


def test_mutation_errors():
    seed = builtin("B(C2)")
    with pytest.raises(FrozenVertex):
        mutate_matrix(seed, 1)
    with pytest.raises(BadIndex):
        mutate_matrix(seed, 99)


def test_frozen_set_and_support_check():
    # frozen: a half-integer anywhere in the vertex's row or column
    for name in ("B(A2)", "B(C2)", "B(C3)", "B_FG(B2)"):
        seed = builtin(name)
        for s in [seed] + [mutate_matrix(seed, k) for k in seed.mutable()]:
            lab = s.labels
            assert s.frozen == {i for i in lab if any(
                s.entry(i, j).denominator != 1 or s.entry(j, i).denominator != 1
                for j in lab)}
    # a skew-symmetrizable matrix has a symmetric support
    with pytest.raises(ValueError):
        ExchangeSeed((1, 2), {1: {2: Fraction(1)}}, {1: 1, 2: 1})


def test_named_sequences_hit_targets():
    assert builtin("R-seq").apply_matrix(builtin("B(A2)")) == builtin("B'(A2)")
    assert builtin("K-seq").apply_matrix(builtin("B(C2)")) == builtin("B'(C2)")
    assert builtin("FG-K-seq").apply_matrix(builtin("B_FG(C2)")) == \
        builtin("B'_FG(C2)")
    assert builtin("FG-R-seq").apply_matrix(builtin("B_FG(A2)")) == \
        builtin("B'_FG(A2)")
    assert builtin("Rbar-seq").apply_matrix(builtin("B'(A2)")) == \
        builtin("B(A2)")
    assert builtin("FG-K-seq").apply_matrix(builtin("B_FG(B2)")) == \
        builtin("B'_FG(B2)")


def test_bhat_fixture_and_rank():
    seed = builtin("B(C2)")
    lab = seed.labels
    for i in lab:
        for j in lab:
            assert seed.bhat(i, j) == BHAT_C2_PRINTED[i - 1][j - 1]
    assert seed.rank_bhat() == 8
    assert tuple(seed.d[i] for i in lab) == (2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1)
    assert seed.bhat(1, 2) == 2 and seed.bhat(1, 6) == 1 and seed.bhat(1, 7) == -2


def test_c3_fixture_consistency():
    seed = builtin("B(C3)")
    assert sorted(seed.frozen) == [1, 7, 8, 14, 15, 21, 22]
    assert seed.rank_bhat() == 18
    seed.validate()


def test_tropical_first_step():
    seed = builtin("B(A2)")
    walk = tropical_walk(seed, MutationSequence((6,)))
    k_idx = seed.labels.index(6)
    assert walk.hom.images[6] == tuple(-1 if i == k_idx else 0
                                       for i in range(len(seed.labels)))
    assert [eps for _, _, eps in walk.dilogs] == [1]


def test_sign_coherence_along_builtin_sequences():
    # after every step, every nonzero image of the walk is sign-coherent,
    # frozen labels included
    for seq_name, base in (("R-seq", "B(A2)"), ("K-seq", "B(C2)"),
                           ("FG-K-seq", "B_FG(C2)")):
        steps = builtin(seq_name).steps
        for n in range(len(steps) + 1):
            walk = tropical_walk(builtin(base), MutationSequence(steps[:n]))
            assert all(_coherent_sign(v) for v in walk.hom.images.values() if any(v))


def test_k_sequence_tropical_signs_in_big_composite():
    ms = composite_sequence(FX.REFLECTION_LHS)
    flat = iter(eps for _, _, eps in tropical_walk(builtin("B(C3)"), ms).dilogs)
    # split the walk's signs per factor by the factors' step counts
    signs = tuple(tuple(next(flat) for _ in steps)
                  for _, _, steps, _ in FX.REFLECTION_LHS)
    assert signs[1] == (1, 1, 1, 1, 1, 1, -1, -1, 1, 1)
    assert signs == TROPICAL_SIGNS_LHS


def _is_period(seed, ms):
    return V.check_period(seed, ms).status


def test_sigma_period_basics():
    seed = builtin("B(A2)")
    ms = MutationSequence((6, 6), Perm())
    assert _is_period(seed, ms)
    assert not _is_period(seed, MutationSequence((6,), Perm()))


def test_sigma_period_two_paths_agree():
    # the verdict of the tropical walk vs a stepwise walk of the matrix
    # and the min formula
    seed = builtin("B(A2)")
    for ms in (MutationSequence((6, 6), Perm()),
               MutationSequence((6, 5), Perm()),
               builtin("R-seq").then(builtin("Rbar-seq"))):
        direct = _is_period(seed, ms)
        cur, y = seed, _initial_y(seed)
        for k in ms.steps:
            cur, y = _mutate_tropical_dense(cur, y, k)
        sigma = ms.sigma
        stepwise = (cur.permuted(sigma) == seed
                    and {sigma(i): v for i, v in y.items()} == _initial_y(seed))
        assert direct == stepwise


def test_sequence_inverse_roundtrip():
    seed = builtin("B(A2)")
    ms = builtin("R-seq")
    round_trip = ms.then(ms.inverse())
    assert _is_period(seed, round_trip)


def test_reflection_roundtrip_is_period():
    seed = builtin("B(C3)")
    msL = composite_sequence(FX.REFLECTION_LHS)
    msR = composite_sequence(FX.REFLECTION_RHS)
    assert _is_period(seed, msL.then(msR.inverse()))
    assert not _is_period(seed, msL.then(msL.inverse()).then(msR))


def test_permutation_action():
    seed = builtin("B(A2)")
    sig = Perm.transpositions([(5, 7), (2, 6)])
    assert seed.permuted(sig).permuted(sig.inv()) == seed
    assert seed.permuted(Perm()) == seed


def test_file_roundtrip(tmp_path):
    seed = builtin("B(C2)")
    text = seed_to_text(seed, {"K": builtin("K-seq")})
    loaded, seqs = seed_from_text(text)
    assert loaded == seed
    assert seqs["K"].steps == builtin("K-seq").steps
    bad = text.replace("frozen 1 5 6 10 11", "frozen 1 2")
    with pytest.raises(MalformedQuiver):
        seed_from_text(bad)


@pytest.mark.parametrize("old,new", [
    ("b 0 1 -1 0\n", "b 0 1 -1\n"),           # short b row
    ("b 0 1 -1 0\n", "b 0 1 -1 0 5\n"),       # extra b entry
    ("d 1 1\n", "d 1\n"),                     # short d row
    ("d 1 1\n", "d 1 x\n"),                   # d entry not an integer
    ("b 0 1 -1 0\n", "b 0 1 1 0\n"),          # not skew-symmetrizable
    ("b 0 1 -1 0\n", "b 0 1/0 -1 0\n"),       # b entry not a fraction
    ("n 2\n", "n 0\n"),
    ("n 2\n", ""),                             # no n line
    ("labels 1 2\n", "labels 1 1\n"),
    ("b 0 1 -1 0\n", "frozen\nb 0 1/2 -1/2 0\n"),  # 1, 2 frozen, none declared
])
def test_malformed_quiver_files(old, new):
    text = "n 2\nlabels 1 2\nd 1 1\nb 0 1 -1 0\n"
    seed, _ = seed_from_text(text)
    assert seed.entry(1, 2) == 1 and seed.entry(2, 1) == -1
    with pytest.raises(MalformedQuiver):
        seed_from_text(text.replace(old, new))


def _rebuilt(seed):
    """The seed built afresh from its rational entries b_ij."""
    b = {i: {j: seed.entry(i, j) for j in seed.labels} for i in seed.labels}
    return ExchangeSeed(seed.labels, b, seed.d)


def test_frozen_set_carried_through_mutation_matches_a_rescan():
    # after every step (and the final relabel) of both reflection sides on
    # B(C3) and both tetrahedron sides on B(A3), the carried frozen set is
    # the one a fresh scan of the matrix finds
    walks = [("B(C3)", FX.REFLECTION_LHS), ("B(C3)", FX.REFLECTION_RHS),
             ("B(A3)", FX.TETRAHEDRON_LHS), ("B(A3)", FX.TETRAHEDRON_RHS)]
    for name, rows in walks:
        seed = builtin(name)
        ms = composite_sequence(rows)
        assert seed.frozen
        for k in ms.steps:
            seed = mutate_matrix(seed, k)
            assert seed.frozen == _rebuilt(seed).frozen
        seed = seed.permuted(ms.sigma)
        assert seed.frozen == _rebuilt(seed).frozen


def _int_or_half(seed):
    # the stored form S = 2*Bhat holds ints only, and every b_ij read from
    # it is an integer or a half-integer
    return (all(type(x) is int for row in seed.rows for x in row.values())
            and all((2 * seed.entry(i, j)).denominator == 1
                    for i in seed.labels for j in seed.labels))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BUILTIN_SEEDS), st.data())
def test_exchange_entries_are_ints_or_half_integer_fractions(name, data):
    # in every builtin seed and every seed mutation reaches, the stored
    # entries are ints and the entries of B lie in (1/2)Z
    seed = builtin(name)
    assert _int_or_half(seed)
    for k in data.draw(st.lists(st.sampled_from(seed.mutable()), max_size=12)):
        seed = mutate_matrix(seed, k)
        assert _int_or_half(seed)


@settings(max_examples=100, deadline=None)
@given(_seeds())
def test_seed_from_fraction_rows_equals_seed_from_int_rows(seed):
    fractions = {i: {j: Fraction(seed.entry(i, j)) for j in seed.labels}
                 for i in seed.labels}
    ints = {i: {j: int(v) if v.denominator == 1 else v for j, v in row.items()}
            for i, row in fractions.items()}
    a, b = (ExchangeSeed(seed.labels, rows, seed.d) for rows in (fractions, ints))
    assert a == b == seed and a.frozen == b.frozen
    assert a.rows == b.rows == seed.rows
    assert _int_or_half(a) and _int_or_half(b)
    assert seed_to_text(a) == seed_to_text(b)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_seeds(), st.sampled_from(BUILTIN_SEEDS).map(builtin)), st.data())
def test_seed_keeps_one_integer_skew_form_through_mutation_and_relabel(seed, data):
    # after every mutation step and a final relabel, the stored form S =
    # 2*Bhat holds ints only, equals the rows of a seed rebuilt from the
    # rational entries (whose frozen set is a fresh rescan), and is the
    # very skew form the seed's torus reads; the relabel is that of the
    # entries and the symmetrizer
    mutable = seed.mutable()
    steps = data.draw(st.lists(st.sampled_from(mutable), max_size=16)
                      if mutable else st.just([]))
    lab = seed.labels
    sigma = Perm(dict(zip(lab, data.draw(st.permutations(lab)))))
    seeds = [seed]
    for k in steps:
        seeds.append(mutate_matrix(seeds[-1], k))
    last = seeds[-1]
    seeds.append(last.permuted(sigma))
    assert seeds[-1] == ExchangeSeed(
        lab, {sigma(i): {sigma(j): last.entry(i, j) for j in lab} for i in lab},
        {sigma(i): last.d[i] for i in lab})
    for s in seeds:
        assert all(type(x) is int for row in s.rows for x in row.values())
        b = {i: {j: s.entry(i, j) for j in s.labels} for i in s.labels}
        fresh = ExchangeSeed(s.labels, b, s.d)
        assert fresh == s and fresh.frozen == s.frozen
        assert QuantumTorus(s).skew() is s.rows
