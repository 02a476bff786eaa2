"""Checks computed apart from the program.

``ScalarQ`` values are converted to sympy rational functions in s, and
the program's sums, products and ``==`` are compared with sympy's.  The
quantum-dilogarithm coefficients are checked against two identities any
correct expansion satisfies, with q = s^2 and base q^b:

    Psi(U) * Psi(U)^-1 = 1                    (coefficient by coefficient)
    Psi(q^(2b) U) = (1 + q^b U) * Psi(U)

sympy is imported here only, after the timed rounds and the peak-RSS
reading, so it weighs on neither.
"""

from __future__ import annotations

import random

from workloads import Failure, expect

DILOG_ORDER = 8          # coefficients U^0 .. U^8 of each expansion


def _sympy():
    import sympy
    return sympy, sympy.Symbol("s")


def to_sympy(c):
    """num / (iden * prod (1 - s^m)^k) as a sympy expression."""
    sp, s = _sympy()
    num = sum((coef * s**e for e, coef in c.num.items()), sp.Integer(0))
    den = sp.Integer(c.iden)
    for m, k in c.den:
        den *= (1 - s**m) ** k
    return num / den


def _same(a, b):
    sp, _ = _sympy()
    return sp.cancel(sp.together(a - b)) == 0


def check_scalars(pairs, seed, count=8):
    """``pairs`` holds (lhs, rhs) coefficients of both sides of an identity
    at one exponent each.  For a seeded sample: the two sides must agree
    under the program's ``==`` and under sympy; ``==`` across exponents,
    sums and products must agree with sympy."""
    expect(pairs, "no coefficients to sample")
    expect(all(r is not None for _, r in pairs),
           "an exponent of one side is missing on the other")
    rng = random.Random(seed)
    sample = rng.sample(pairs, min(count, len(pairs)))
    for lhs, rhs in sample:
        expect(lhs == rhs, "the program finds the two sides unequal")
        expect(_same(to_sympy(lhs), to_sympy(rhs)), "sympy finds the two sides unequal")
    for (a, _), (_, b) in zip(sample, sample[1:] + sample[:1]):
        sa, sb = to_sympy(a), to_sympy(b)
        expect((a == b) == _same(sa, sb), "== disagrees with sympy")
        expect(_same(to_sympy(a + b), sa + sb), "a sum disagrees with sympy")
        expect(_same(to_sympy(a * b), sa * sb), "a product disagrees with sympy")


def check_dilog_identities():
    from qrefl.qtorus import dilog_coefficients
    sp, s = _sympy()
    q = s**2
    for base in (1, 2):
        plus = [to_sympy(c) for c in dilog_coefficients(base, 1, DILOG_ORDER)]
        minus = [to_sympy(c) for c in dilog_coefficients(base, -1, DILOG_ORDER)]
        for n in range(DILOG_ORDER + 1):
            conv = sum((plus[k] * minus[n - k] for k in range(n + 1)), sp.Integer(0))
            expect(_same(conv, 1 if n == 0 else 0),
                   f"Psi*Psi^-1 differs from 1 at U^{n}, base q^{base}")
            shifted = plus[n] * q ** (2 * base * n)
            want = plus[n] + (q**base * plus[n - 1] if n else 0)
            expect(_same(shifted, want),
                   f"Psi(q^{2 * base}U) != (1+q^{base}U)Psi(U) at U^{n}")


def check_gradings(reports_and_vectors):
    """Each finite-fiber grading g must satisfy g . v >= 1 on every index
    vector v of its system, in plain integer arithmetic."""
    for system, g, vecs in reports_and_vectors:
        expect(g is not None, f"{system}: no grading")
        bad = [v for v in vecs if sum(a * b for a, b in zip(g, v)) < 1]
        if bad:
            raise Failure(f"{system}: grading {g} is not positive on {bad[0]}")
