"""Truncated operators with trusted-block bookkeeping.

A TruncOp is a finite window onto an operator on a sequence space. The
bandwidth records how far boundary corruption can have crept in: entries of
the top-left (d - bandwidth) block (natural lattice), or of the centered
block with margin bandwidth (integer lattice), agree with the infinite
operator. Sums take the larger bandwidth, products add bandwidths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .circle import EXACT, LaurentPoly, _params_qps
from .errors import DimensionMismatch, WindowOverflow
from .ncpoly import NCPoly
from .presets import DISC_FLAVOURS


@dataclass(frozen=True)
class ParamSet:
    """Deformation parameters and window sizes used on the numeric side."""

    q: float = 0.6
    p: float = 0.4
    s: float = 0.8
    d: int = 64
    w: int = 8
    tol: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        if not (0.0 < self.s <= 1.0):
            raise ValueError(f"s must lie in (0, 1], got {self.s}")
        if not (4 <= self.d <= 512):
            raise ValueError(f"d must lie in [4, 512], got {self.d}")
        if not (1 <= self.w <= 512):
            raise ValueError(f"w must lie in [1, 512], got {self.w}")
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


class TruncOp:
    """A d x d window onto an operator, plus its trust bookkeeping."""

    __slots__ = ("mat", "bandwidth", "lattice", "w")

    def __init__(self, mat, bandwidth: int = 0, lattice: str = "N", w: int | None = None):
        arr = np.array(mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"operator must be square, got shape {arr.shape}")
        if lattice not in ("N", "Z"):
            raise ValueError(f"lattice must be 'N' or 'Z', got {lattice!r}")
        if lattice == "Z":
            if w is None or arr.shape[0] != 2 * w + 1:
                raise DimensionMismatch(
                    "integer-lattice window of radius w needs dimension 2w+1"
                )
        else:
            w = None
        arr.setflags(write=False)
        self.mat = arr
        self.bandwidth = min(max(int(bandwidth), 0), arr.shape[0])
        self.lattice = lattice
        self.w = w

    @property
    def d(self) -> int:
        return self.mat.shape[0]

    def trusted_range(self, guard: int = 0) -> tuple[int, int]:
        """Index range [lo, hi) on which entries are trusted."""
        margin = self.bandwidth + guard
        lo = 0 if self.lattice == "N" else margin
        hi = self.d - margin
        return (lo, max(lo, hi))

    def trusted_block(self, guard: int = 0) -> np.ndarray:
        lo, hi = self.trusted_range(guard)
        return self.mat[lo:hi, lo:hi]

    def max_abs(self, guard: int | None = None) -> float:
        """Largest entry magnitude: of the whole window when guard is None,
        else of the guarded trusted block (0.0 when that block is empty)."""
        block = self.mat if guard is None else self.trusted_block(guard)
        return float(np.max(np.abs(block))) if block.size else 0.0

    def _compat(self, other: "TruncOp") -> None:
        if self.lattice != other.lattice or self.w != other.w or self.d != other.d:
            raise DimensionMismatch(
                f"incompatible operators: ({self.lattice},{self.d},{self.w}) "
                f"vs ({other.lattice},{other.d},{other.w})"
            )

    def _entrywise(self, other, op):
        """Sum or difference: entrywise op, the larger bandwidth."""
        if not isinstance(other, TruncOp):
            return NotImplemented
        self._compat(other)
        bandwidth = max(self.bandwidth, other.bandwidth)
        return TruncOp(op(self.mat, other.mat), bandwidth, self.lattice, self.w)

    def __add__(self, other):
        return self._entrywise(other, np.add)

    def __sub__(self, other):
        return self._entrywise(other, np.subtract)

    def __neg__(self):
        return TruncOp(-self.mat, self.bandwidth, self.lattice, self.w)

    def __matmul__(self, other):
        if not isinstance(other, TruncOp):
            return NotImplemented
        self._compat(other)
        return TruncOp(
            self.mat @ other.mat,
            self.bandwidth + other.bandwidth,
            self.lattice,
            self.w,
        )

    def __mul__(self, scalar):
        if isinstance(scalar, TruncOp):
            return NotImplemented
        return TruncOp(self.mat * complex(scalar), self.bandwidth, self.lattice, self.w)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = identity_like(self)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def adjoint(self) -> "TruncOp":
        return TruncOp(self.mat.conj().T, self.bandwidth, self.lattice, self.w)

    def __repr__(self) -> str:
        tag = f"Z,w={self.w}" if self.lattice == "Z" else "N"
        return f"TruncOp({self.d}x{self.d}, bw={self.bandwidth}, lattice={tag})"


# -- constructors -------------------------------------------------------------


def identity(d: int, lattice: str = "N", w: int | None = None) -> TruncOp:
    return TruncOp(np.eye(d, dtype=np.complex128), 0, lattice, w)


def identity_like(op: TruncOp) -> TruncOp:
    return identity(op.d, op.lattice, op.w)


def zero(d: int, lattice: str = "N", w: int | None = None) -> TruncOp:
    return TruncOp(np.zeros((d, d), dtype=np.complex128), 0, lattice, w)


def diag_op(values, lattice: str = "N", w: int | None = None) -> TruncOp:
    return TruncOp(np.diag(np.asarray(values, dtype=np.complex128)), 0, lattice, w)


def weighted_shift(weights) -> TruncOp:
    """Weighted unilateral shift e_n -> weights[n] e_{n+1} on the window of
    size len(weights) + 1; bandwidth 1."""
    d = len(weights) + 1
    mat = np.zeros((d, d), dtype=np.complex128)
    idx = np.arange(d - 1)
    mat[idx + 1, idx] = weights
    return TruncOp(mat, 1, "N")


def shift(d: int) -> TruncOp:
    """Unilateral shift e_n -> e_{n+1}, truncated; bandwidth 1."""
    return weighted_shift(np.ones(d - 1))


def disc_base(letter: str, params: ParamSet) -> float:
    """Deformation base of a disc letter (or its star), as presets.DISC_FLAVOURS
    declares it, evaluated at params."""
    for flavour_letter, base in DISC_FLAVOURS.values():
        if flavour_letter == letter.rstrip("*"):
            return base.evaluate(params.q, params.p, params.s)
    raise ValueError(f"not a disc letter: {letter!r}")


def disc_rep(letter: str, params: ParamSet, d: int | None = None) -> TruncOp:
    """Standard weighted-shift picture of a disc letter: the letter acts as
    e_n -> sqrt(1 - base^{n+1}) e_{n+1}, its star as the adjoint."""
    base = disc_base(letter, params)
    d = params.d if d is None else d
    op = weighted_shift(np.sqrt(1.0 - base ** (np.arange(d - 1) + 1.0)))
    return op.adjoint() if letter.endswith("*") else op


def disc_assignment(pres, params: ParamSet, d: int | None = None) -> dict[str, TruncOp]:
    """Letter -> operator map for a disc presentation."""
    return {letter: disc_rep(letter, params, d) for letter in pres.letters}


# -- integer-lattice shift pictures -------------------------------------------


def _trajectory_plus(j: int, n: int) -> int | None:
    return j + n


def _trajectory_minus(j: int, n: int) -> int | None:
    """n-th successor of j in the integer lattice with 0 removed."""
    if j == 0:
        return None
    step = 1 if n >= 0 else -1
    for _ in range(abs(n)):
        j = j + step
        if j == 0:
            j = j + step
    return j


def pi_rep(sign: str, f: LaurentPoly, w: int, params=None) -> TruncOp:
    """Window truncation of the two shift pictures of a circle element.

    sign "+": U acts as the full shift j -> j+1 on the integer lattice.
    sign "-": U acts as the shift on the lattice with the origin removed
    (j -> j+1, but -1 -> 1 and e_0 is annihilated); the unit acts as the
    projection that kills e_0.

    Each monomial is compressed exactly to the window [-w, w]; a monomial
    whose exponent exceeds w in absolute value raises WindowOverflow.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    d = 2 * w + 1
    mat = np.zeros((d, d), dtype=np.complex128)
    bandwidth = 0
    point = _params_qps(params) if f.mode == EXACT else None
    for n, coef in f.terms.items():
        if abs(n) > w:
            raise WindowOverflow(
                f"monomial exponent {n} does not fit in window radius {w}"
            )
        bandwidth = max(bandwidth, abs(n))
        value = complex(coef if point is None else coef.evaluate(*point))
        for j in range(-w, w + 1):
            if sign == "+":
                k = _trajectory_plus(j, n)
            else:
                k = _trajectory_minus(j, n)
            if k is None or abs(k) > w:
                continue
            mat[k + w, j + w] += value
    return TruncOp(mat, bandwidth, "Z", w)


# -- evaluation of symbolic elements -------------------------------------------


def evaluate(x: NCPoly, assignment: Mapping[str, TruncOp], params: ParamSet) -> TruncOp:
    """Evaluate a symbolic element with letters sent to operators and
    coefficients evaluated at the parameter point."""
    ops = dict(assignment)
    if not ops:
        raise ValueError("empty assignment")
    first = next(iter(ops.values()))
    for op in ops.values():
        first._compat(op)
    empty = zero(first.d, first.lattice, first.w)
    return _word_sum(x, ops, identity_like(first), empty, _at_point(params))


def _at_point(params: ParamSet):
    """The numeric weighting step of _word_sum: the coefficient evaluated at
    the parameter point, times the word's product."""
    return lambda factor, coef: coef.evaluate(params.q, params.p, params.s) * factor


def _word_sum(x: NCPoly, ops: Mapping, one, empty, weigh):
    """The one word-evaluation loop, shared with glue.evaluate_raw and
    glue.iota: each word becomes the product of its letters' images starting
    from one, is turned into a term by weigh(product, coefficient) and
    summed onto empty."""
    letters = x.pres.letters
    total = empty
    for word, coef in x.terms().items():
        factor = one
        for letter_index in word:
            name = letters[letter_index]
            if name not in ops:
                raise KeyError(f"assignment misses letter {name!r}")
            factor = factor @ ops[name]
        total = total + weigh(factor, coef)
    return total


# -- traces and norms ----------------------------------------------------------


@dataclass(frozen=True)
class TraceResult:
    """Trace of an essentially finite-rank window operator.

    value is the full-window trace; tail_max is the largest entry magnitude
    outside the guarded trusted block; exact means that tail is literally
    zero in machine arithmetic, so the value cannot drift with the window.
    """

    value: float
    exact: bool
    tail_max: float


def trace_finite_rank(op: TruncOp, tail_tol: float = 1e-9, guard: int = 2) -> TraceResult:
    """On the natural lattice the tail region is the guarded untrusted
    corner; on the integer lattice it is the guard band at the two window
    edges (the shift-picture differences are exact compressions whose edge
    entries are genuine, so the bandwidth does not widen the band)."""
    if op.lattice == "Z":
        lo, hi = guard, op.d - guard
    else:
        lo, hi = op.trusted_range(guard)
    if hi <= lo:
        raise DimensionMismatch("window too small for the requested guard")
    mask = np.ones((op.d, op.d), dtype=bool)
    mask[lo:hi, lo:hi] = False
    tail_max = float(np.max(np.abs(op.mat[mask]))) if mask.any() else 0.0
    if tail_max > tail_tol:
        raise ValueError(
            f"operator is not finite-rank within the window: tail {tail_max:.3e} "
            f"exceeds {tail_tol:.3e}"
        )
    value = complex(np.trace(op.mat))
    return TraceResult(value=float(value.real), exact=tail_max == 0.0, tail_max=tail_max)


def trusted_diff_norm(a: TruncOp, b: TruncOp, guard: int = 0) -> float:
    """Spectral norm of a - b on the common trusted block. Dimensions may
    differ on the natural lattice (windows of one picture at two sizes)."""
    if a.lattice != b.lattice:
        raise DimensionMismatch("operators live on different lattices")
    if a.lattice == "Z":
        if a.w != b.w:
            raise DimensionMismatch("integer-lattice windows differ")
        lo = max(a.trusted_range(guard)[0], b.trusted_range(guard)[0])
        hi = min(a.trusted_range(guard)[1], b.trusted_range(guard)[1])
    else:
        lo = 0
        hi = min(a.trusted_range(guard)[1], b.trusted_range(guard)[1])
    if hi <= lo:
        raise DimensionMismatch("no common trusted block")
    block = a.mat[lo:hi, lo:hi] - b.mat[lo:hi, lo:hi]
    return float(np.linalg.norm(block, 2))


def inv_sqrt_psd(op: TruncOp, floor: float = 1e-12) -> TruncOp:
    """Pseudo-inverse square root of a positive semidefinite operator via
    eigendecomposition. Eigenvalues at or below the floor map to zero (a
    truncated positive operator always picks up a zero at the boundary);
    genuinely negative eigenvalues raise. Intended for the essentially
    diagonal positive operators arising here."""
    herm = float(np.linalg.norm(op.mat - op.mat.conj().T))
    if herm > 1e-12 * max(1.0, float(np.linalg.norm(op.mat))):
        raise ValueError(f"operator is not self-adjoint (defect {herm:.3e})")
    eigvals, eigvecs = np.linalg.eigh(op.mat)
    if float(eigvals.min()) < -max(floor, 1e-12):
        raise ValueError(
            f"operator is not positive semidefinite: min eig {float(eigvals.min()):.3e}"
        )
    inv = np.zeros_like(eigvals)
    keep = eigvals > floor
    inv[keep] = eigvals[keep] ** -0.5
    mat = (eigvecs * inv) @ eigvecs.conj().T
    diagonal = np.count_nonzero(op.mat - np.diag(np.diag(op.mat))) == 0
    bandwidth = op.bandwidth if diagonal else op.d - 1
    return TruncOp(mat, bandwidth, op.lattice, op.w)
