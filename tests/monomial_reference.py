"""The long way to apply a monomial map given on generators, kept as the
reference for the maps of qrefl, which send the coefficient through.

In symmetric normalization Y^alpha is s^-twist(alpha) times the ordered
product Y_1^alpha_1 ... Y_n^alpha_n, with twist(alpha) =
sum_{i<j} alpha_i alpha_j S_ij for the integer skew form S = 2*Bhat.  So a
multiplicative map sends c*Y^alpha to c*s^-twist(alpha) times the ordered
product of the image powers.  The hypothesis strategies draw the
exponents and coefficients the reference is tried on.
"""

from hypothesis import strategies as st

from qrefl.scalars import ScalarQ


def exponents(n):
    """Integer exponent vectors of length n."""
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)


@st.composite
def coefficients(draw):
    """Nonzero scalars with a small numerator in s and a cyclotomic
    denominator."""
    num = {draw(st.integers(-6, 6)): draw(st.integers(-4, 4)) or 1
           for _ in range(draw(st.integers(1, 3)))}
    den = tuple((4 * m, 1) for m in draw(st.sets(st.integers(1, 3), max_size=2)))
    return ScalarQ(num, den, draw(st.integers(1, 3)))


def ordering_twist(rows, alpha) -> int:
    """sum_{i<j} alpha_i alpha_j S_ij for the skew form S with sparse rows
    ``rows``."""
    return sum(ai * x * alpha[j] for i, ai in enumerate(alpha) if ai
               for j, x in rows[i].items() if j > i)


def reference_apply(source, images, constant, coeff, alpha):
    """The image of coeff*Y^alpha over the torus ``source`` under the map
    with monomial ``images`` {label: image}: constant(c), the target's
    scalar c, for c = coeff*s^-twist(alpha), times the ordered product of
    the image powers, multiplied out with the target's own product."""
    out = constant(coeff * ScalarQ.s_pow(-ordering_twist(source.skew(), alpha)))
    for label, a in zip(source.labels, alpha):
        if a:
            out = out * images[label].pow(a)
    return out
