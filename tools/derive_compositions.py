"""Derive the composite factor fixtures for the two big identities.

Anchor vertices come from tracking which vertex sits at each crossing /
reflection point of the evolving diagram; the face vertices are solved
by local matching on the current seed.  Every solved factor is validated
immediately: the pushed dilogarithm arguments must reproduce the
reference 46-factor products exactly, the tropical signs must match the
reference sign sequences, and the two sides must land on the same seed with equal
composed monomial maps.

Writes src/qrefl/compositions.py.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from qrefl import catalog as C
from qrefl.cluster import Perm, tropical_signs
from qrefl.compose import CompositeState, composite_sequence, composite_signs
from qrefl.qtorus import QuantumTorus
from qrefl.quivers import builtin


def solve_r_face(seed, a, b, c):
    out = [f for f in seed.mutable()
           if f not in (a, b, c) and seed.d[f] == 1
           and seed.entry(f, a) == 1 and seed.entry(f, c) == 1
           and seed.entry(b, f) == 1]
    assert len(out) == 1, (a, b, c, out)
    return out[0]


def solve_k_faces(seed, m7, m2, m9, m4):
    m8s = [f for f in seed.mutable()
           if f not in (m7, m2, m9, m4) and seed.d[f] == 1
           and seed.entry(f, m7) == 1 and seed.entry(f, m9) == 1
           and seed.entry(m2, f) == 2]
    m3s = [f for f in seed.mutable()
           if f not in (m7, m2, m9, m4) and seed.d[f] == 2
           and seed.entry(f, m2) == 1 and seed.entry(f, m4) == 1
           and seed.entry(m9, f) == 1]
    assert len(m8s) == 1 and len(m3s) == 1, (m7, m2, m9, m4, m8s, m3s)
    return m8s[0], m3s[0]


def build_side(seed0, layout, cross, refl):
    """Solve each factor's face vertices on the seed the factors before it
    leave, and apply it there; returns the final state and the rows
    (kind, spaces, steps, sigma_pairs)."""
    cross = dict(cross)
    refl = dict(refl)
    st = CompositeState(seed0)
    rows = []
    for kind, spaces in layout:
        if kind == "R":
            i, j, k = spaces
            a, b, c = cross[i], cross[j], cross[k]
            f = solve_r_face(st.seed, a, b, c)
            row, delta = ("R", spaces, (f, a, c, b), ((a, c), (b, f))), +1
        elif kind == "Rbar":
            i, j, k = spaces
            s7, s2, s5 = cross[i], cross[j], cross[k]
            f = solve_r_face(st.seed, s5, s2, s7)
            row, delta = ("Rbar", spaces, (f, s5, s7, s2), ((s5, s7), (s2, f))), -1
        else:
            i, j, k, l = spaces
            m7, m2 = cross[i], refl[j]
            m9, m4 = cross[k], refl[l]
            m8, m3 = solve_k_faces(st.seed, m7, m2, m9, m4)
            row, delta = ("K", spaces, (m8, m3, m9, m2, m7, m4, m9, m2, m8, m3), ()), None
            cross[i], cross[k] = cross[k], cross[i]
            refl[j], refl[l] = refl[l], refl[j]
        for step, eps in zip(row[2], composite_signs([row], (delta,))):
            st.mutate(step, eps)
        st.relabel(Perm.transpositions(row[3]))
        rows.append(row)
    return st, rows


def main():
    BC3 = builtin("B(C3)")
    BpC3 = builtin("B'(C3)")
    cross = {1: 16, 2: 9, 4: 18, 5: 11, 7: 20, 8: 13}
    refl = {3: 2, 6: 4, 9: 6}
    lhs_layout = [("R", (1, 2, 4)), ("K", (1, 3, 5, 6)), ("Rbar", (1, 7, 8)),
                  ("R", (2, 5, 8)), ("K", (2, 3, 7, 9)), ("K", (4, 6, 8, 9)),
                  ("Rbar", (4, 5, 7))]
    rhs_layout = [("R", (4, 5, 7)), ("K", (4, 6, 8, 9)), ("K", (2, 3, 7, 9)),
                  ("Rbar", (2, 5, 8)), ("R", (1, 7, 8)), ("K", (1, 3, 5, 6)),
                  ("Rbar", (1, 2, 4))]

    stL, rowsL = build_side(BC3, lhs_layout, cross, refl)
    stR, rowsR = build_side(BC3, rhs_layout, cross, refl)

    T = QuantumTorus(BC3)

    def check_product(st, reference, name):
        assert len(st.dilogs) == len(reference), (len(st.dilogs), len(reference))
        for idx, ((b, e, s, pw), got) in enumerate(zip(reference, st.dilogs)):
            want = (b, T.monomial(s, pw), e)
            assert got[0] == want[0] and got[2] == want[2], (name, idx)
            assert got[1] == want[1], (name, idx, got[1], want[1])
        print(f"{name}: all {len(reference)} dilog factors match the reference product")

    check_product(stL, C.REFLECTION_LHS_FACTORS, "LHS")
    check_product(stR, C.REFLECTION_RHS_FACTORS, "RHS")

    assert stL.seed == stR.seed == BpC3, "sides do not land on the target seed"
    print("both sides end at the catalog target seed")
    assert stL.hom == stR.hom, "composed monomial maps differ"
    print("composed monomial maps agree (tau-level identity, signs (+,-))")

    def signs_per_factor(rows):
        flat = iter(tropical_signs(BC3, composite_sequence(rows)))
        return tuple(tuple(next(flat) for _ in row[2]) for row in rows)

    assert signs_per_factor(rowsL) == C.TROPICAL_SIGNS_LHS
    assert signs_per_factor(rowsR) == C.TROPICAL_SIGNS_RHS
    print("tropical sign sequences match the reference data")

    # tetrahedron side: A3
    BA3 = builtin("B(A3)")
    BpA3 = builtin("B'(A3)")
    crossA = {1: 11, 2: 6, 3: 3, 4: 13, 5: 8, 6: 15}
    te_lhs = [("R", t) for t in [(1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)]]
    te_rhs = [("R", t) for t in [(4, 5, 6), (2, 3, 6), (1, 3, 5), (1, 2, 4)]]
    stTL, rowsTL = build_side(BA3, te_lhs, crossA, {})
    stTR, rowsTR = build_side(BA3, te_rhs, crossA, {})
    endL = stTL.seed.permuted(Perm.transpositions([(7, 14)]))
    endR = stTR.seed.permuted(Perm.transpositions([(7, 12)]))
    assert endL == endR == BpA3, "tetrahedron sides disagree"
    print("tetrahedron sides agree and land on the corrected target")

    payload = {
        "REFLECTION_LHS": rowsL,
        "REFLECTION_RHS": rowsR,
        "TETRAHEDRON_LHS": rowsTL,
        "TETRAHEDRON_RHS": rowsTR,
        "TETRAHEDRON_FINAL": {"LHS": ((7, 14),), "RHS": ((7, 12),)},
    }
    path = os.path.join(os.path.dirname(__file__), "..", "src", "qrefl",
                        "compositions.py")
    with open(path, "w") as fh:
        fh.write('"""Factor realizations of the two composite identities.\n'
                 "\n"
                 "Generated by tools/derive_compositions.py: anchor vertices\n"
                 "are solved on the evolving seed and validated against the\n"
                 "reference 46-factor products, the reference tropical signs,\n"
                 "and the seed-level identity.  Regenerate with the tool\n"
                 'rather than editing by hand.\n"""\n\n')
        for key in ("REFLECTION_LHS", "REFLECTION_RHS", "TETRAHEDRON_LHS",
                    "TETRAHEDRON_RHS"):
            fh.write(f"{key} = (\n")
            for row in payload[key]:
                fh.write(f"    {row!r},\n")
            fh.write(")\n\n")
        fh.write(f"TETRAHEDRON_FINAL = {payload['TETRAHEDRON_FINAL']!r}\n")
    print(f"wrote {os.path.normpath(path)}")


if __name__ == "__main__":
    main()
