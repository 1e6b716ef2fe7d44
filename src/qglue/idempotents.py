"""Line-bundle idempotents over the glued-disc algebra.

For each integer degree N the module is presented by a pair of vectors X, Y
over the algebra with Y^T X = 1, making E = X Y^T an idempotent matrix whose
class encodes the degree. The deformed binomial weights in Y come from
reordering the two disc copies; `assignment` selects which deformation base
feeds which side ("corrected" is the convention that actually satisfies
Y^T X = 1, "literal" keeps the transposed reading so its failure witness can
be inspected). build_en builds any degree, once per (N, assignment) per
process; what grows with |N| is the exact reduction of Y^T X, which
terminates because every rewrite lowers the term order. EN_CAP bounds only
the degrees a run reports, through en_degrees.
"""

from __future__ import annotations

from functools import lru_cache

from .coefficients import CoefPoly, ONE, P, Q
from .ncpoly import NCPoly, SymMatrix
from .presets import sphere3_presentation

# the largest |N| a run reports E_N rows for: a higher cap adds rows to the
# default report, which then no longer matches the pinned reference outcomes
EN_CAP = 3


def en_degrees(nmax: int) -> range:
    """The degrees N of the E_N rows a run at nmax reports: |N| <= min(nmax, EN_CAP)."""
    cap = min(nmax, EN_CAP)
    return range(-cap, cap + 1)


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, x: CoefPoly) -> CoefPoly:
    """Deformed binomial coefficient in the variable x (Q or P) via the
    deformed Pascal recurrence

        binom(n, k)_x = binom(n-1, k-1)_x + x^k binom(n-1, k)_x"""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return CoefPoly()
    if k == 0 or k == n:
        return ONE
    return gaussian_binomial(n - 1, k - 1, x) + (x**k) * gaussian_binomial(n - 1, k, x)


# room for every degree a run reports, on both assignments
@lru_cache(maxsize=2 * (2 * EN_CAP + 1))
def build_en(N: int, assignment: str = "corrected") -> tuple[SymMatrix, SymMatrix, SymMatrix]:
    """Vectors X, Y and the idempotent E = X Y^T for degree N.

    For n = |N| the vectors have n+1 entries. With A = 1 - aa*, B = 1 - bb*:

        N >= 0:  X[k] = b^k a*^{n-k}
                 Y[k] = binom(n, k)_p p^{n-k} B^{n-k} a^{n-k} b*^k
        N < 0:   X[k] = a^k b*^{n-k}
                 Y[k] = binom(n, k)_q q^{n-k} A^{n-k} b^{n-k} a*^k

    assignment="corrected" (default) uses the base pairing above, for which
    Y^T X reduces to 1 exactly. assignment="literal" swaps the two bases
    (q-binomials with B, p-binomials with A); already at N = 1 that leaves
    the nonzero witness (q - p)(1 - bb*).

    The result is built once per (N, assignment) and shared (SymMatrix
    entries are tuples).
    """
    if assignment not in ("corrected", "literal"):
        raise ValueError(f"unknown assignment {assignment!r}")
    pres = sphere3_presentation()
    n = abs(N)
    a, astar, b, bstar = (pres.gen(x) for x in ("a", "a*", "b", "b*"))
    one = pres.one()
    A = one - a * astar
    B = one - b * bstar

    # the corrected base is p for N >= 0 and q for N < 0; literal swaps them
    if N >= 0:
        x_front, x_back, proj, back, front = b, astar, B, a, bstar
        bases = (P, Q)
    else:
        x_front, x_back, proj, back, front = a, bstar, A, b, astar
        bases = (Q, P)
    base = bases[0] if assignment == "corrected" else bases[1]

    xs: list[NCPoly] = []
    ys: list[NCPoly] = []
    for k in range(n + 1):
        xs.append(x_front**k * x_back ** (n - k))
        coef = gaussian_binomial(n, k, base) * base ** (n - k)
        ys.append(coef * (proj ** (n - k) * back ** (n - k) * front**k))

    X = SymMatrix(pres, [[x] for x in xs])
    Y = SymMatrix(pres, [[y] for y in ys])
    E = X @ Y.transpose()
    return X, Y, E
