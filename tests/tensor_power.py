"""The degree-d tensor power of the natural module, a reference oracle for tests.

Its basis vectors are bit-strings of length d, encoded as integers with the
leftmost slot most significant.  Its generator images are built from the
explicit 2x2 matrices by iterating the comultiplication, which distributes
the group-like legs K1*K2^-1 (or its inverse) over the tensor slots.  The
dimension is 2^d, so it is built only at small d, as an independent
cross-check of the Weyl-module oracle that the suites use.
"""

from qschur.laurent import LaurentPoly
from qschur.oracle import (
    CoproductCheckFailed,
    LaurentMatrix,
    OracleRep,
    verify_defining_relations,
)


def _slot_bits(n: int, d: int) -> list[int]:
    return [(n >> (d - 1 - j)) & 1 for j in range(d)]


def tensor_rep(d: int) -> OracleRep:
    """The generators on the tensor power, checked against the defining relations."""
    dim = 1 << d
    e_entries: dict[tuple[int, int], LaurentPoly] = {}
    f_entries: dict[tuple[int, int], LaurentPoly] = {}
    k1_exps: list[int] = []
    k2_exps: list[int] = []
    for src in range(dim):
        bits = _slot_bits(src, d)
        ones = sum(bits)
        k1_exps.append(d - ones)
        k2_exps.append(ones)
        for j, bit in enumerate(bits):
            mask = 1 << (d - 1 - j)
            if bit == 1:
                # e clears the bit; each slot to its left contributes v^+-1.
                w = sum(1 if b == 0 else -1 for b in bits[:j])
                e_entries[(src & ~mask, src)] = LaurentPoly.v(w)
            else:
                # f sets the bit; each slot to its right contributes v^+-1.
                w = sum(1 if b == 1 else -1 for b in bits[j + 1 :])
                f_entries[(src | mask, src)] = LaurentPoly.v(w)
    rep = OracleRep(
        d,
        LaurentMatrix(dim, e_entries),
        LaurentMatrix(dim, f_entries),
        LaurentMatrix.diagonal([LaurentPoly.v(z) for z in k1_exps]),
        LaurentMatrix.diagonal([LaurentPoly.v(-z) for z in k1_exps]),
        LaurentMatrix.diagonal([LaurentPoly.v(o) for o in k2_exps]),
        LaurentMatrix.diagonal([LaurentPoly.v(-o) for o in k2_exps]),
    )
    if not verify_defining_relations(rep)["pass"]:
        raise CoproductCheckFailed(f"the tensor power fails the defining relations at d={d}")
    return rep
