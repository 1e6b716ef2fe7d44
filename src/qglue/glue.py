"""Fibre products of truncated Toeplitz pictures over the circle.

A FibrePair is one element of the glued algebra: two operator legs together
with one exact boundary symbol and an integer twist N. Leg 0 carries the
symbol sym0 and leg 1 its twisted copy, by definition

    sym1 = U^N * sym0,

so the membership rule holds by construction. Twist 0 is the glued function
algebra itself; twist N is the degree-N bimodule over it. chi produces the
canonical range projections (chi(0) is the unit), psi_iso normalizes a
twist away and psi_inverse puts it back, both by one leg shift (see
ORIENTATION). leg_bilaurent is the one symbol map: (sigma x id) of a
glued-disc element on one leg, an exact two-torus element. iota embeds the
symbolic glued-disc algebra into the doubled picture, a map degree k ->
twist-k FibrePair whose legs opnum.evaluate builds from the leg assignments
and whose symbol is leg 0's; it checks the gluing law, W on leg 0's
symbol == leg 1's, on every degree. en_numeric builds the degree-N
line-bundle idempotents through it, as the OuterProduct X Y^T of the
embedded column and row, which keeps its factors for the square. The leg
assignments are built once per (leg, ParamSet) and shared read-only. The
tensor picture (iota_kron_assignment) realizes the same gluing map on disc
(x) circle windows, as TruncOps built by opnum.kron.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from operator import add, index, matmul, sub
from types import MappingProxyType

import numpy as np

from .circle import BiLaurent, LaurentPoly, w_map
from .coefficients import S as S_COEF, _accumulate, _matrix_product
from .errors import DimensionMismatch, SymbolMismatch, UnsupportedSymbol
from .idempotents import build_en
from .ncpoly import NCPoly
from .opnum import (
    TruncOp,
    diag_op,
    disc_base,
    disc_rep,
    evaluate,
    identity,
    inv_sqrt_psd,
    kron,
    pi_rep,
    shift,
    weighted_shift,
)
from .params import ParamSet
from .presets import S2_IN_S3, sphere3_presentation

ORIENTATION = (
    "psi_iso removes a twist by shifting the leg whose symbol carries the "
    "U^N factor: the right leg for N >= 0, the left leg for N < 0; the image "
    "of the twist-N module is then supported on chi(-N). Index pairings of "
    "degree-N idempotents therefore carry the sign recorded in "
    "kpair.ORIENTATION_SIGN."
)


class FibrePair:
    """Two truncated operator legs with one exact boundary symbol: sym0 on
    leg 0, and on leg 1 its twisted copy sym1 = U^twist sym0."""

    __slots__ = ("t0", "t1", "sym0", "twist")

    def __init__(self, t0: TruncOp, t1: TruncOp, sym0, twist: int):
        if t0.lattice != "N" or t1.lattice != "N":
            raise DimensionMismatch("fibre-pair legs live on the natural lattice")
        t0._compat(t1)
        if not isinstance(sym0, LaurentPoly):
            raise TypeError("the boundary symbol is a LaurentPoly")
        self.t0 = t0
        self.t1 = t1
        self.sym0 = sym0
        self.twist = index(twist)

    @property
    def sym1(self) -> LaurentPoly:
        """Leg 1's symbol, U^twist sym0 by definition."""
        return self.sym0.shift(self.twist)

    @property
    def d(self) -> int:
        return self.t0.d

    def _entrywise(self, other, op):
        """Sum or difference of two pairs of one twist: op on each leg and
        on the symbol."""
        if not isinstance(other, FibrePair):
            return NotImplemented
        if self.twist != other.twist:
            raise SymbolMismatch(f"cannot add twist {self.twist} to twist {other.twist}")
        return FibrePair(
            op(self.t0, other.t0), op(self.t1, other.t1), op(self.sym0, other.sym0), self.twist
        )

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def __matmul__(self, other):
        if not isinstance(other, FibrePair):
            return NotImplemented
        return FibrePair(
            self.t0 @ other.t0,
            self.t1 @ other.t1,
            self.sym0 * other.sym0,
            self.twist + other.twist,
        )

    def __repr__(self):
        return (
            f"FibrePair(d={self.d}, twist={self.twist}, "
            f"sym0={self.sym0}, sym1={self.sym1})"
        )


# -- canonical projections and the twist normalization -------------------------


def chi(N: int, d: int) -> FibrePair:
    """Range projection of the twist-N module inside the glued algebra:
    one leg is the shift-range projection S^{|N|} S*^{|N|}, the other the
    unit; the symbol is 1."""
    N = index(N)
    k = abs(N)
    if k >= d:
        raise DimensionMismatch(f"need d > |N|, got d={d}, N={N}")
    proj = diag_op([0.0] * k + [1.0] * (d - k))
    one = identity(d)
    sym = LaurentPoly({0: 1})
    if N >= 0:
        return FibrePair(proj, one, sym, 0)
    return FibrePair(one, proj, sym, 0)


def _shift_leg(pair: FibrePair, N: int, twist: int) -> FibrePair:
    """pair moved to twist, one of pair.twist and twist being N and the other
    0: the leg that carries U^N (see ORIENTATION) is multiplied by S^|N| to
    add the twist or by S*^|N| to remove it, and its symbol moves with it
    (leg 1's follows the twist; leg 0's is shifted the other way)."""
    power = shift(pair.d) ** abs(N)
    if twist == 0:
        power = power.adjoint()
    if N > 0:
        return FibrePair(pair.t0, pair.t1 @ power, pair.sym0, twist)
    return FibrePair(pair.t0 @ power, pair.t1, pair.sym0.shift(pair.twist - twist), twist)


def psi_iso(pair: FibrePair) -> FibrePair:
    """Normalize the twist to zero by shifting the leg whose symbol carries
    the U^N factor (see ORIENTATION). The image of the twist-N module is
    supported on chi(-N)."""
    return pair if pair.twist == 0 else _shift_leg(pair, pair.twist, 0)


def psi_inverse(pair: FibrePair, N: int) -> FibrePair:
    """Partial inverse of psi_iso: reinstate twist N on a twist-0 element.
    On truncations psi_inverse(psi_iso(P), N) agrees with P on the trusted
    block only, since S*^k S^k is the unit minus a boundary defect."""
    if pair.twist != 0:
        raise SymbolMismatch("psi_inverse expects a twist-0 element")
    N = index(N)
    return pair if N == 0 else _shift_leg(pair, N, N)


# -- matrices of fibre pairs ----------------------------------------------------


def fp_matmul(
    A: Sequence[Sequence[FibrePair]], B: Sequence[Sequence[FibrePair]]
) -> list[list[FibrePair]]:
    """The matrix product of two matrices of fibre pairs."""
    return _matrix_product(A, B, matmul)


class OuterProduct(Sequence):
    """The square matrix X Y^T of a column X and a row Y^T of fibre pairs,
    read as the sequence of its rows: entry (i, j) is X[i] @ Y[j]. It keeps
    its factors, so its square can be formed as X (Y^T X) Y^T (square)."""

    __slots__ = ("column", "row", "entries")

    def __init__(self, column: Sequence[FibrePair], row: Sequence[FibrePair]):
        self.column = tuple(column)
        self.row = tuple(row)
        self.entries = [[x @ y for y in self.row] for x in self.column]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def square(self) -> list[list[FibrePair]]:
        """The matrix square, as X (Y^T X) Y^T: n^2 + 2n fibre-pair products
        for n entries per row, against n^3 for the entrywise square."""
        x = [[v] for v in self.column]
        yt = [list(self.row)]
        return fp_matmul(fp_matmul(x, fp_matmul(yt, x)), yt)


# -- symbol maps ----------------------------------------------------------------


# The gluing map: each s3pq letter as the disc letter it acts as on leg 0
# and on leg 1 (None: the unit), tensored with U^(its grading weight), so
#     a -> (z (x) U*, 1 (x) U*)      b -> (1 (x) U, y (x) U)
S3_GLUING = {
    "a": ("z", None),
    "a*": ("z*", None),
    "b": (None, "y"),
    "b*": (None, "y*"),
}


def leg_bilaurent(x: NCPoly, leg: int) -> BiLaurent:
    """(sigma x id) of a glued-disc element on one leg (a-side or b-side), as
    an exact two-torus element: a word goes to U^m x U^k, where m sums its
    letters' exponents on the leg (the leg's disc letter is U, its star
    U^{-1}, the unit 1; read off S3_GLUING) and k is its grading degree."""
    exponent = {}
    for letter, discs in S3_GLUING.items():
        disc = discs[leg]
        exponent[letter] = 0 if disc is None else (-1 if disc.endswith("*") else 1)
    pres = x.pres
    terms = {}
    for word, coef in x.terms.items():
        m = sum(exponent[pres.letters[i]] for i in word)
        _accumulate(terms, (m, pres.word_degree(word)), coef)
    return BiLaurent(terms)


# -- leg assignments -------------------------------------------------------------


# bounded, since each ParamSet is a new key; a default verify pass builds 10
# (both legs at five ParamSets)
@lru_cache(maxsize=32)
def s3_leg_assignment(leg: int, params: ParamSet) -> Mapping[str, TruncOp]:
    """Operators for one leg of the glued-disc picture, read off S3_GLUING:
    the a-copy acts as the q-disc and b is scalar on leg 0; mirrored on leg 1.

    Built once per (leg, params) and shared by every caller: a read-only
    mapping of operators, whose diagonals are read-only like every
    TruncOp's."""
    if leg not in (0, 1):
        raise ValueError("leg must be 0 or 1")
    one = identity(params.d)
    return MappingProxyType({
        letter: one if discs[leg] is None else disc_rep(discs[leg], params)
        for letter, discs in S3_GLUING.items()
    })


def s2_leg_assignment(leg: int, params: ParamSet) -> dict[str, TruncOp]:
    """Operators for one leg of the quotient sphere: the s3pq images of its
    letters under presets.S2_IN_S3, evaluated on s3_leg_assignment."""
    legs, pres = s3_leg_assignment(leg, params), sphere3_presentation()
    return {x: evaluate(pres.element(image), legs, params) for x, image in S2_IN_S3.items()}


# -- the doubled picture ----------------------------------------------------------


def iota(x: NCPoly, params: ParamSet) -> dict[int, FibrePair]:
    """Embed a symbolic glued-disc element into the doubled picture by the
    gluing map S3_GLUING: degree k -> the twist-k FibrePair of the degree-k
    part of x, its legs evaluated on the leg assignments and its exact
    symbol read off leg 0 by leg_bilaurent. Each degree part must obey the
    gluing law W (sigma x id) leg 0 == (sigma x id) leg 1, on the circle
    U^k sym0 == sym1; a part that breaks it raises SymbolMismatch."""
    parts: dict[int, dict] = {}
    for word, coef in x.terms.items():
        parts.setdefault(x.pres.word_degree(word), {})[word] = coef
    legs = [s3_leg_assignment(leg, params) for leg in (0, 1)]
    image = {}
    for k, terms in parts.items():
        part = NCPoly(x.pres, terms)
        sym0 = leg_bilaurent(part, 0)
        mismatch = (w_map(sym0) - leg_bilaurent(part, 1)).collapse(1)
        if not mismatch.is_zero():
            j = min(mismatch.terms)
            raise SymbolMismatch(
                f"twist-{k} membership U^{k} sym0 == sym1 fails first "
                f"at U^{j} (difference {mismatch.terms[j]})"
            )
        image[k] = FibrePair(
            evaluate(part, legs[0], params), evaluate(part, legs[1], params), sym0.collapse(1), k
        )
    return image


def iota_kron_assignment(leg: int, params: ParamSet) -> dict[str, TruncOp]:
    """Tensor form of the doubled picture on one leg, with the circle factor
    realized as the window shift: a -> z (x) U* on leg 0, etc. The operators
    act on the tensor of the disc space (dim params.d) and the window (dim
    2 params.w + 1) and are trusted nowhere by bandwidth: trust the interior
    kron_interior(params.d, params.w, margins) only."""
    pres = sphere3_presentation()
    ops = s3_leg_assignment(leg, params)
    u = pi_rep("+", LaurentPoly({1: 1}), params)
    circle = {1: u, -1: u.adjoint()}
    return {
        letter: kron(ops[letter], circle[weight])
        for letter, weight in zip(pres.letters, pres.weights)
    }


def kron_interior(d: int, w: int, disc_margin: int, window_margin: int) -> np.ndarray:
    """Indices of the trusted interior of the tensor space: disc index below
    d - disc_margin, window index at distance >= window_margin from both
    window edges."""
    dw = 2 * w + 1
    keep = []
    for i in range(d - disc_margin):
        for j in range(window_margin, dw - window_margin):
            keep.append(i * dw + j)
    return np.asarray(keep, dtype=int)


# -- the equatorial family -------------------------------------------------------


@dataclass(frozen=True)
class PodlesPair:
    """Numeric spectral generators of the equatorial family, realized on the
    two gluing legs over the squared-base disc defect t = 1 - xx*."""

    zeta: FibrePair
    eta: FibrePair


def podles_generators(params: ParamSet) -> PodlesPair:
    """Operator legs for the family generators:

        zeta -> (-s^2 q^2 t, q^2 t)
        eta  -> (f0(t) shift, f1(t) shift)   with subdiagonal entries
                f0 at q^{2(n+1)}: s sqrt((1 - v)(1 + s^2 v))
                f1 at q^{2(n+1)}:   sqrt((1 - v)(s^2 + v))

    eta has exact boundary symbol s U on both legs; zeta has symbol 0."""
    d = params.d
    qq = disc_base("x", params)
    s = params.s
    n = np.arange(d)
    zeta0 = diag_op(-(s**2) * qq ** (n + 1.0))
    zeta1 = diag_op(qq ** (n + 1.0))
    v = qq ** (np.arange(d - 1) + 1.0)
    eta0 = weighted_shift(s * np.sqrt((1.0 - v) * (1.0 + s**2 * v)))
    eta1 = weighted_shift(np.sqrt((1.0 - v) * (s**2 + v)))
    zeta = FibrePair(zeta0, zeta1, LaurentPoly({}), 0)
    eta = FibrePair(eta0, eta1, LaurentPoly({1: S_COEF}), 0)
    return PodlesPair(zeta=zeta, eta=eta)


def polar_part(pair: FibrePair) -> FibrePair:
    """Isometry part of the polar decomposition, leg by leg; the symbol is
    the phase U^n of a symbol c U^n with c one term of positive rational
    coefficient, so c > 0 at every accepted point (else UnsupportedSymbol)."""

    def leg(op: TruncOp) -> TruncOp:
        return op @ inv_sqrt_psd(op.adjoint() @ op)

    def phase(sym: LaurentPoly) -> LaurentPoly:
        if sym.is_zero():
            return sym
        if len(sym.terms) != 1:
            raise UnsupportedSymbol("polar phase implemented for monomial symbols only")
        (n, coef), = sym.terms.items()
        if not (coef.is_monomial() and next(coef.items())[1] > 0):
            raise UnsupportedSymbol(f"polar phase of {sym}: not a positive monomial times U^{n}")
        return LaurentPoly({n: 1})

    return FibrePair(leg(pair.t0), leg(pair.t1), phase(pair.sym0), pair.twist)


# -- numeric line-bundle idempotents ----------------------------------------------


def en_numeric(N: int, params: ParamSet) -> OuterProduct:
    """Numeric idempotent matrix for degree N over the glued algebra, as
    the OuterProduct of the embedded X and Y.

    Entry (i, j) is x @ y for the single fibre pairs x and y that iota maps
    the homogeneous X[i] and Y[j] to: the evaluation of E's entry
    reassociated as a product of the embedded X and Y vectors, with the
    exact leg symbols carried along by the gluing map.
    The leg-symbol map sends every s3pq rule to zero, so these are the
    symbols of the normal forms of E's entries."""

    def single_pair(v: NCPoly) -> FibrePair:
        (pair,) = iota(v, params).values()
        return pair

    X, Y, _ = build_en(N)
    xs = [single_pair(X[k, 0]) for k in range(X.shape[0])]
    ys = [single_pair(Y[k, 0]) for k in range(Y.shape[0])]
    return OuterProduct(xs, ys)
