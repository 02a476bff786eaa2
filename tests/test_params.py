from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qrefl.params import Inconsistent, LinSystem, ParamForm

SYMS = ("a", "b", "c", "d")
HALF = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
FORM = st.builds(lambda coeffs, const: ParamForm(dict(zip(SYMS, coeffs)), const),
                 st.lists(HALF, min_size=len(SYMS), max_size=len(SYMS)), HALF)


@settings(max_examples=150, deadline=None)
@given(st.lists(FORM, min_size=1, max_size=5),
       st.lists(st.sampled_from(SYMS), max_size=3, unique=True))
def test_linsystem_matches_sympy(forms, prefer):
    # rank, dependents, rules and inconsistency against sympy's rref of the
    # augmented matrix [A | c] (each row c0 + sum c_s s = 0), with the
    # columns in the order eliminate scans them
    system = LinSystem(forms)
    order = prefer + [s for s in system.symbols() if s not in prefer]
    n = len(order)
    rows = [[sympy.Rational(c.coeff(s).numerator, c.coeff(s).denominator) for s in order]
            + [sympy.Rational(c.const.numerator, c.const.denominator)]
            for c in system.constraints]
    aug = sympy.Matrix(len(rows), n + 1, [x for row in rows for x in row])
    assert system.rank() == aug[:, :n].rank()
    reduced, pivots = aug.rref()
    if n in pivots:
        with pytest.raises(Inconsistent):
            system.eliminate(prefer)
        return
    rules = system.eliminate(prefer)
    assert list(rules) == [order[col] for col in pivots]
    for k, col in enumerate(pivots):
        want = ParamForm({order[j]: -Fraction(str(reduced[k, j])) for j in range(n)
                          if j != col}, -Fraction(str(reduced[k, n])))
        assert rules[order[col]] == want
