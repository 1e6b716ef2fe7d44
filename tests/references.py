"""Reference constructions the tests compare the package against.

dense_op builds a TruncOp from a dense square array through the one
constructor, TruncOp(diags, d, bandwidth, lattice), so a kernel test can
hold every operation to plain numpy arithmetic on the same array.
exact_value evaluates a CoefPoly at a rational point in Fraction
arithmetic, read off its public terms, so ring identities are checked by
an evaluation independent of the ring's own.
"""

from fractions import Fraction

import numpy as np

from qglue import CoefPoly, TruncOp


def dense_op(mat, bandwidth: int = 0, lattice: str = "N") -> TruncOp:
    """The window whose entries are those of mat. Each diagonal is copied
    out of the array, so the operator does not share its memory; an array
    that is not square gives a diagonal of the wrong length, which the
    constructor rejects with DimensionMismatch."""
    arr = np.asarray(mat, dtype=np.complex128)
    d = len(arr)
    diags = {k: np.diagonal(arr, k).copy() for k in range(1 - d, d)}
    return TruncOp(diags, d, bandwidth, lattice)


def exact_value(x: CoefPoly, q, p, s=0) -> Fraction:
    """x at the rational point (q, p, s), as a Fraction."""
    q, p, s = Fraction(q), Fraction(p), Fraction(s)
    total = Fraction(0)
    for (eq, ep, es), coef in x.items():
        total += coef * q**eq * p**ep * s**es
    return total
