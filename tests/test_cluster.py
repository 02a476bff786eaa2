from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qrefl.cluster import (BadIndex, ExchangeSeed, FrozenVertex,
                           MalformedQuiver, MutationSequence, Perm,
                           TropicalSeed, is_sigma_period, mutate_matrix,
                           mutate_tropical, seed_from_text, seed_to_text,
                           tropical_signs)
from qrefl.compose import composite_sequence
from qrefl.quivers import builtin, names
import qrefl.catalog as C
import qrefl.compositions as FX


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
    return ExchangeSeed(seed.labels, b, seed.d, check=False)


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
    rows = {i: dict(row) for i, row in seed.b.items()}
    for k in seed.mutable():
        out, want = mutate_matrix(seed, k), _mutate_dense(seed, k)
        assert all(out.entry(i, j) == want.entry(i, j)
                   for i in seed.labels for j in seed.labels)
        assert out == want
        assert out.frozen == want.frozen and out.d == want.d
        assert mutate_matrix(out, k) == seed
        assert seed.b == rows


@settings(max_examples=200, deadline=None)
@given(_seeds())
def test_mutation_matches_dense_formula(seed):
    _check_against_dense(seed)


def test_mutation_matches_dense_formula_on_builtin_seeds():
    seeds = [builtin(n) for n in names() if isinstance(builtin(n), ExchangeSeed)]
    assert len(seeds) == 14
    for seed in seeds:
        _check_against_dense(seed)


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
            assert seed.bhat(i, j) == C.BHAT_C2_PRINTED[i - 1][j - 1]
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
    ts = TropicalSeed(seed)
    out = mutate_tropical(ts, 6)
    k_idx = seed.labels.index(6)
    assert out.y[6] == tuple(-1 if i == k_idx else 0
                             for i in range(len(seed.labels)))


def test_sign_coherence_along_builtin_sequences():
    for seq_name, base in (("R-seq", "B(A2)"), ("K-seq", "B(C2)"),
                           ("FG-K-seq", "B_FG(C2)")):
        ts = TropicalSeed(builtin(base))
        ms = builtin(seq_name)
        for k in ms.steps:
            for i in ts.seed.labels:
                ts.sign(i) if any(ts.y[i]) else None
            ts = mutate_tropical(ts, k)


def test_k_sequence_tropical_signs_in_big_composite():
    ms = composite_sequence(FX.REFLECTION_LHS)
    flat = iter(tropical_signs(builtin("B(C3)"), ms))
    # split the walk's signs per factor by the factors' step counts
    signs = tuple(tuple(next(flat) for _ in steps)
                  for _, _, steps, _ in FX.REFLECTION_LHS)
    assert signs[1] == (1, 1, 1, 1, 1, 1, -1, -1, 1, 1)
    assert signs == C.TROPICAL_SIGNS_LHS


def test_sigma_period_basics():
    seed = builtin("B(A2)")
    ms = MutationSequence((6, 6), Perm())
    assert is_sigma_period(seed, ms)
    assert not is_sigma_period(seed, MutationSequence((6,), Perm()))


def test_sigma_period_two_paths_agree():
    # direct tropical composition vs stepwise matrix+tropical comparison
    seed = builtin("B(A2)")
    for ms in (MutationSequence((6, 6), Perm()),
               MutationSequence((6, 5), Perm()),
               builtin("R-seq").then(builtin("Rbar-seq"))):
        direct = is_sigma_period(seed, ms)
        cur_m = seed
        cur_t = TropicalSeed(seed)
        for k in ms.steps:
            cur_m = mutate_matrix(cur_m, k)
            cur_t = mutate_tropical(cur_t, k)
        cur_m = cur_m.permuted(ms.sigma)
        cur_t = cur_t.permuted(ms.sigma)
        stepwise = cur_m == seed and cur_t == TropicalSeed(seed)
        assert direct == stepwise


def test_sequence_inverse_roundtrip():
    seed = builtin("B(A2)")
    ms = builtin("R-seq")
    round_trip = ms.then(ms.inverse())
    assert is_sigma_period(seed, round_trip)


def test_reflection_roundtrip_is_period():
    seed = builtin("B(C3)")
    msL = composite_sequence(FX.REFLECTION_LHS)
    msR = composite_sequence(FX.REFLECTION_RHS)
    assert is_sigma_period(seed, msL.then(msR.inverse()))
    assert not is_sigma_period(seed, msL.then(msL.inverse()).then(msR))


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
            assert seed.frozen == ExchangeSeed(seed.labels, seed.b, seed.d).frozen
        seed = seed.permuted(ms.sigma)
        assert seed.frozen == ExchangeSeed(seed.labels, seed.b, seed.d).frozen
