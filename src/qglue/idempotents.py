"""Line-bundle idempotents over the glued-disc algebra.

For each integer degree N the module is presented by a pair of vectors X, Y
over the algebra with Y^T X = 1, making E = X Y^T an idempotent matrix whose
class encodes the degree. The deformed binomial weights in Y come from
reordering the two disc copies; `assignment` selects which deformation base
feeds which side ("corrected" is the convention that actually satisfies
Y^T X = 1, "literal" keeps the transposed reading so its failure witness can
be inspected). build_en checks its degree cap on every call and builds each
(presentation, N, assignment) once per process.
"""

from __future__ import annotations

from functools import lru_cache

from .coefficients import CoefPoly, ONE, P, Q
from .errors import SizeCapExceeded
from .ncpoly import NCPoly, SymMatrix
from .presets import sphere3_presentation

# the largest |N| that build_en builds, and so the largest degree the suites
# pair: a higher cap adds E_N rows to the default report, which then no
# longer matches the pinned reference outcomes. The exact check of E^2 = E
# reduces only Y^T X - 1 and no longer limits it (about 0.2 s cold at
# |N| = 8 on a 2-vCPU VM).
EN_CAP = 3


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, which: str = "q") -> CoefPoly:
    """Deformed binomial coefficient via the deformed Pascal recurrence

        binom(n, k)_x = binom(n-1, k-1)_x + x^k binom(n-1, k)_x

    with x the variable selected by `which` ("q" or "p")."""
    if which not in ("q", "p"):
        raise ValueError(f"which must be 'q' or 'p', got {which!r}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return CoefPoly()
    if k == 0 or k == n:
        return ONE
    x = Q if which == "q" else P
    return gaussian_binomial(n - 1, k - 1, which) + (x**k) * gaussian_binomial(
        n - 1, k, which
    )


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

    Raises SizeCapExceeded when |N| > EN_CAP. The cap is checked on every
    call; past it the vectors are built once per presentation, degree and
    assignment and shared (SymMatrix entries are tuples).
    """
    if assignment not in ("corrected", "literal"):
        raise ValueError(f"unknown assignment {assignment!r}")
    n = abs(N)
    if n > EN_CAP:
        raise SizeCapExceeded(f"|N| = {n} exceeds the size cap {EN_CAP}")
    return _build_en(sphere3_presentation(), N, assignment)


# room for every degree up to a cap of 8, on both assignments
@lru_cache(maxsize=34)
def _build_en(pres, N: int, assignment: str) -> tuple[SymMatrix, SymMatrix, SymMatrix]:
    """build_en past its checks, once per (presentation, N, assignment)."""
    n = abs(N)
    a, astar, b, bstar = (pres.gen(x) for x in ("a", "a*", "b", "b*"))
    one = pres.one()
    A = one - a * astar
    B = one - b * bstar

    # the corrected base is p for N >= 0 and q for N < 0; literal swaps them
    if N >= 0:
        x_front, x_back, proj, back, front = b, astar, B, a, bstar
        bases = (("p", P), ("q", Q))
    else:
        x_front, x_back, proj, back, front = a, bstar, A, b, astar
        bases = (("q", Q), ("p", P))
    which, base = bases[0] if assignment == "corrected" else bases[1]

    xs: list[NCPoly] = []
    ys: list[NCPoly] = []
    for k in range(n + 1):
        xs.append(x_front**k * x_back ** (n - k))
        coef = gaussian_binomial(n, k, which) * base ** (n - k)
        ys.append(coef * (proj ** (n - k) * back ** (n - k) * front**k))

    X = SymMatrix(pres, [[x] for x in xs])
    Y = SymMatrix(pres, [[y] for y in ys])
    E = X @ Y.transpose()
    return X, Y, E
