from functools import reduce
from itertools import product

from hypothesis import given, settings, strategies as st

import qrefl.verify as V
from qrefl.cluster import MutationSequence, Perm
from qrefl.compose import composite_signs, fold_prefixes, run_composite, run_composites
from qrefl.nilgroup import OrderViolation, bch_mul
from qrefl.operators import canonical_map, rules_for, sign_text, tail
from qrefl.quivers import builtin
from qrefl.qweyl import SPEC_C3, AffineCanonMap

TUPLES = list(product((1, -1), repeat=4))


def fold_side(side, deltas, factor, mul):
    """One reflection side folded row by row for one sign tuple, each
    factor built just before it is multiplied in: the reference for the
    folds that share prefixes."""
    signs = iter(deltas)
    return reduce(mul, (factor(V._K if kind == "K" else kind + sign_text((next(signs),)),
                               spaces)
                        for kind, spaces, _, _ in V._REFLECTION[side]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2), max_size=5).map(tuple),
                min_size=1, max_size=10))
def test_fold_prefixes_matches_one_fold_per_key(keys):
    # a fold that records its path gives back every key, each step sees
    # the state of the key's prefix at its depth, and every distinct
    # nonempty prefix of the keys is folded exactly once
    calls = []

    def step(state, depth, item):
        assert len(state) == depth
        calls.append(state + (item,))
        return state + (item,)

    assert fold_prefixes(keys, (), step) == {key: key for key in keys}
    assert sorted(calls) == sorted({key[:i] for key in keys
                                    for i in range(1, len(key) + 1)})


def assert_same_walk(got, want):
    assert got.seed == want.seed and got.seed.frozen == want.seed.frozen
    assert got.torus.labels == want.torus.labels
    assert got.torus.skew() == want.torus.skew()
    assert got.hom == want.hom and list(got.hom.images) == list(want.hom.images)
    assert got.hom.source.skew() == want.hom.source.skew()
    assert got.dilogs == want.dilogs


def test_reflection_walks_match_run_composite():
    # all 16 sign tuples of both sides: seed, torus, map and factor list of
    # the shared walk equal those of one walk per tuple
    seed = builtin("B(C3)")
    for side in "LR":
        ms, rows = V._RE_SEQ[side], V._REFLECTION[side]
        lists = [composite_signs(rows, t) for t in TUPLES]
        walks = run_composites(seed, ms, lists)
        assert list(walks) == sorted(lists)
        for signs in lists:
            assert_same_walk(walks[signs], run_composite(seed, ms, signs))
        assert len({id(st.dilogs) for st in walks.values()}) == len(walks)


SMALL = ("B(A2)", "B(C2)")


@st.composite
def signed_walks(draw):
    """A seed, a mutation sequence on it (a named one or random steps,
    with a random relabel) and sign lists drawn with repeats, unsorted."""
    name = draw(st.sampled_from(SMALL))
    seed = builtin(name)
    if draw(st.booleans()):
        ms = builtin("R-seq" if name == "B(A2)" else "K-seq")
    else:
        steps = draw(st.lists(st.sampled_from(seed.mutable()), max_size=7))
        image = draw(st.permutations(seed.labels))
        ms = MutationSequence(steps, Perm(dict(zip(seed.labels, image))))
    signs = st.lists(st.sampled_from((1, -1)), min_size=len(ms.steps),
                     max_size=len(ms.steps)).map(tuple)
    pool = draw(st.lists(signs, min_size=1, max_size=5))
    lists = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    return seed, ms, lists


@settings(max_examples=120, deadline=None)
@given(signed_walks())
def test_random_walks_match_run_composite(walk):
    seed, ms, lists = walk
    walks = run_composites(seed, ms, lists)
    assert set(walks) == set(lists)
    for signs in lists:
        assert_same_walk(walks[signs], run_composite(seed, ms, signs))


def test_eta_folds_match_one_fold_per_tuple():
    def factor(name, spaces):
        return canonical_map(name, spaces, SPEC_C3)

    pairs = [(side, t) for side in "LR" for t in TUPLES]
    cache = {}
    got = V._eta_side(pairs, cache)
    for side, t in pairs:
        assert got[side, t] == fold_side(side, t, factor, AffineCanonMap.compose)
    # every fold is kept, and a later call reads it back
    assert cache == got
    assert all(V._eta_side([pair], cache)[pair] is got[pair] for pair in pairs)


def test_p_folds_match_one_fold_per_tuple():
    # the same products, and an OrderViolation with the same message on
    # exactly the tuples whose one-tuple fold raises
    rules = rules_for("3dre")

    def factor(name, spaces):
        return tail(name, spaces, SPEC_C3, rules=rules)

    pairs = [(side, t) for side in "LR" for t in TUPLES]
    got = V._p_sides(pairs, rules)
    raised = set()
    for side, t in pairs:
        try:
            want = fold_side(side, t, factor, bch_mul)
        except OrderViolation as exc:
            raised.add((side, t))
            assert isinstance(got[side, t], OrderViolation)
            assert str(got[side, t]) == str(exc)
            continue
        assert got[side, t] == want and repr(got[side, t]) == repr(want)
    assert raised == {pair for pair in pairs if isinstance(got[pair], OrderViolation)}
    assert raised and len(raised) < len(pairs)


def test_full_tau_search_equals_the_eta_search():
    tau = V.search_good_signs_tau(False)
    assert len(tau) == 13 and tau == V.search_good_signs_eta(False)
    assert V.search_good_signs_tau(True) == [(1, 1), (1, -1), (-1, -1)]
    assert V.search_good_signs_eta(True) == [(1, 1), (1, -1), (-1, -1)]
    assert V.search_good_signs_P() == [(1, -1)]
