"""Truncated operators with trusted-block bookkeeping.

A TruncOp is a finite window onto an operator on a sequence space. The
bandwidth records how far boundary corruption can have crept in: entries of
the top-left (d - bandwidth) block (natural lattice), or of the centered
block with margin bandwidth (integer lattice), agree with the infinite
operator. Sums take the larger bandwidth, products add bandwidths.

Every operation and reader works on the stored diagonals: kron builds the
Kronecker product diagonal by diagonal, and trusted_diff_norm measures a
difference by the diagonal-sum norm, so nothing in the package forms a dense
window; .mat is there for callers that want one. trace_finite_rank hands
back a trace and its largest tail entry as two floats; kpair alone judges
them.
"""

from __future__ import annotations

from operator import matmul
from typing import Mapping

import numpy as np

from .circle import LaurentPoly
from .coefficients import _power
from .errors import CertificationError, DimensionMismatch, QGlueError, WindowOverflow
from .ncpoly import NCPoly
from .params import ParamSet
from .presets import DISC_FLAVOURS


class TruncOp:
    """A d x d window onto an operator, plus its trust bookkeeping.

    The window is stored by diagonals: offset k (column minus row) maps to
    the vector of the entries (i, i + k) that lie in the window, in row
    order, and only diagonals with a nonzero entry are kept. So a product of
    operators with k1 and k2 diagonals costs O(d k1 k2). TruncOp(diags, d,
    bandwidth, lattice) takes that {offset: vector} store, the vectors taken
    over, not copied; .mat builds the dense window on each read.
    """

    __slots__ = ("_diags", "d", "bandwidth", "lattice")

    def __init__(self, diags, d: int, bandwidth: int, lattice: str):
        """A diagonal whose offset lies outside the window, or whose length
        is not d - |offset|, raises DimensionMismatch; the bandwidth is
        clamped to [0, d]."""
        _check_window(d, lattice)
        self._diags = {}
        for k in sorted(diags):
            vec = np.asarray(diags[k], dtype=np.complex128)
            if not -d < k < d or vec.shape != (d - abs(k),):
                raise DimensionMismatch(
                    f"diagonal {k} of shape {vec.shape} does not fit a window of dimension {d}"
                )
            if np.count_nonzero(vec):
                vec.setflags(write=False)
                self._diags[k] = vec
        self.d = d
        self.bandwidth = min(max(int(bandwidth), 0), d)
        self.lattice = lattice

    @property
    def w(self) -> int | None:
        """The window radius on the integer lattice (d = 2w + 1), else None."""
        return (self.d - 1) // 2 if self.lattice == "Z" else None

    def _like(self, diags, bandwidth: int) -> "TruncOp":
        return TruncOp(diags, self.d, bandwidth, self.lattice)

    @property
    def mat(self) -> np.ndarray:
        """The whole window as a read-only dense array."""
        out = np.zeros((self.d, self.d), dtype=np.complex128)
        flat = out.reshape(-1)
        for k, vec in self._diags.items():
            start = max(0, -k) * self.d + max(0, k)
            flat[start :: self.d + 1][: vec.size] = vec
        out.setflags(write=False)
        return out

    def trusted_range(self, guard: int = 0) -> tuple[int, int]:
        """Index range [lo, hi) on which entries are trusted."""
        margin = self.bandwidth + guard
        lo = 0 if self.lattice == "N" else margin
        hi = self.d - margin
        return (lo, max(lo, hi))

    def max_abs(self, guard: int | None = None) -> float:
        """Largest entry magnitude: of the whole window when guard is None,
        else of the guarded trusted block. An empty guarded block raises
        DimensionMismatch: a check over it would compare nothing."""
        if guard is None:
            lo, hi = 0, self.d
        else:
            lo, hi = _guarded(self, *self.trusted_range(guard), guard)
        return _max_abs([_segment(k, vec, lo, hi) for k, vec in self._diags.items()])

    def max_abs_on(self, index) -> float:
        """Largest entry magnitude on the principal submatrix whose rows and
        columns are the given indices (0.0 for no indices). An index outside
        [0, d) raises IndexError."""
        index = np.asarray(index, dtype=int)
        if index.size and index.min() < 0:
            raise IndexError(f"negative index {index.min()} into a window of dimension {self.d}")
        member = np.zeros(self.d, dtype=bool)
        member[index] = True
        parts = []
        for k, vec in self._diags.items():
            rows = member[max(0, -k) : self.d - max(0, k)]
            cols = member[max(0, k) : self.d - max(0, -k)]
            parts.append(vec[rows & cols])
        return _max_abs(parts)

    def _compat(self, other: "TruncOp") -> None:
        if self.lattice != other.lattice or self.d != other.d:
            raise DimensionMismatch(
                f"incompatible operators: ({self.lattice},{self.d},{self.w}) "
                f"vs ({other.lattice},{other.d},{other.w})"
            )

    def _entrywise(self, other, op):
        """Sum or difference: op per offset (an absent diagonal reads as
        0.0), the larger bandwidth."""
        if not isinstance(other, TruncOp):
            return NotImplemented
        self._compat(other)
        mine, theirs = self._diags, other._diags
        diags = {k: op(mine.get(k, 0.0), theirs.get(k, 0.0)) for k in mine.keys() | theirs.keys()}
        return self._like(diags, max(self.bandwidth, other.bandwidth))

    def __add__(self, other):
        return self._entrywise(other, np.add)

    def __sub__(self, other):
        return self._entrywise(other, np.subtract)

    def __neg__(self):
        return self._like({k: -vec for k, vec in self._diags.items()}, self.bandwidth)

    def __matmul__(self, other):
        """Entry (i, i + a + b) gains A[i, i + a] * B[i + a, i + a + b] for
        each pair of offsets a of self and b of other."""
        if not isinstance(other, TruncOp):
            return NotImplemented
        self._compat(other)
        d = self.d
        diags = {}
        for a, va in self._diags.items():
            for b, vb in other._diags.items():
                c = a + b
                lo, hi = max(0, -a, -c), min(d, d - a, d - c)
                if hi <= lo:
                    continue
                ra, rb, rc = max(0, -a), a - max(0, -b), max(0, -c)
                acc = diags.get(c)
                if acc is None:
                    acc = diags[c] = np.zeros(d - abs(c), dtype=np.complex128)
                acc[lo - rc : hi - rc] += va[lo - ra : hi - ra] * vb[lo + rb : hi + rb]
        return self._like(diags, self.bandwidth + other.bandwidth)

    def __mul__(self, scalar):
        if isinstance(scalar, TruncOp):
            return NotImplemented
        c = complex(scalar)
        return self._like({k: vec * c for k, vec in self._diags.items()}, self.bandwidth)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Binary powering: coefficients._power with @ as its product."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        return _power(self, n, matmul) if n else identity(self.d, self.lattice)

    def adjoint(self) -> "TruncOp":
        return self._like({-k: vec.conj() for k, vec in self._diags.items()}, self.bandwidth)

    def __repr__(self) -> str:
        tag = f"Z,w={self.w}" if self.lattice == "Z" else "N"
        return f"TruncOp({self.d}x{self.d}, bw={self.bandwidth}, lattice={tag})"


def _check_window(d: int, lattice: str) -> None:
    """An integer-lattice window is centred on the origin, so its dimension
    is odd: 2w + 1 for the radius w."""
    if lattice not in ("N", "Z"):
        raise ValueError(f"lattice must be 'N' or 'Z', got {lattice!r}")
    if lattice == "Z" and d % 2 == 0:
        raise DimensionMismatch("integer-lattice window of radius w needs dimension 2w+1")


def _segment(k: int, vec: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The part of diagonal k that lies in the block of rows and columns
    [lo, hi)."""
    return vec[lo : max(lo, hi - abs(k))]


def _guarded(op: TruncOp, lo: int, hi: int, guard: int) -> tuple[int, int]:
    """The guarded block [lo, hi) of op; an empty one raises
    DimensionMismatch naming the window."""
    if hi <= lo:
        raise DimensionMismatch(
            f"no trusted block: d={op.d}, bandwidth={op.bandwidth} at guard {guard}"
        )
    return lo, hi


def _max_abs(parts) -> float:
    """Largest magnitude over some diagonal parts; 0.0 for no entries (the
    rest of the window is zero)."""
    parts = [part for part in parts if part.size]
    return float(np.max(np.abs(np.concatenate(parts)))) if parts else 0.0


# -- constructors -------------------------------------------------------------


def identity(d: int, lattice: str = "N") -> TruncOp:
    return TruncOp({0: np.ones(d, dtype=np.complex128)}, d, 0, lattice)


def zero(d: int) -> TruncOp:
    return TruncOp({}, d, 0, "N")


def diag_op(values) -> TruncOp:
    vec = np.array(values, dtype=np.complex128)
    return TruncOp({0: vec}, vec.size, 0, "N")


def weighted_shift(weights) -> TruncOp:
    """Weighted unilateral shift e_n -> weights[n] e_{n+1} on the window of
    size len(weights) + 1; bandwidth 1. The 1 x 1 window (no weights) has
    no offset -1, so it is the zero operator."""
    vec = np.array(weights, dtype=np.complex128)
    return TruncOp({-1: vec} if vec.size else {}, vec.size + 1, 1, "N")


def shift(d: int) -> TruncOp:
    """Unilateral shift e_n -> e_{n+1}, truncated; bandwidth 1."""
    return weighted_shift(np.ones(d - 1))


def _padded(k: int, vec: np.ndarray, d: int) -> np.ndarray:
    """Diagonal k of a d x d window as a vector indexed by row: the entry
    (i, i + k) at i, zero at the rows where that column leaves the window."""
    out = np.zeros(d, dtype=np.complex128)
    out[max(0, -k) : d - max(0, k)] = vec
    return out


def kron(a: TruncOp, b: TruncOp) -> TruncOp:
    """Kronecker product of two windows, on the natural lattice of dimension
    a.d * b.d. Its bandwidth is that dimension, so it is trusted nowhere: the
    caller knows which part of the tensor window to trust.

    Built diagonal by diagonal, with no dense window: entry (i, i + ka) of a
    times entry (j, j + kb) of b lands at row i * b.d + j of offset
    c = ka * b.d + kb. So the outer product of the two zero-padded
    diagonals, flattened, is diagonal c indexed by row, and the window keeps
    its rows [max(0, -c), d - max(0, c)). Two pairs (ka, kb) that share an
    offset fill disjoint rows, so their sum is exact: every entry is the one
    product np.kron forms."""
    d = a.d * b.d
    b_rows = [(kb, _padded(kb, vb, b.d)) for kb, vb in b._diags.items()]
    diags = {}
    for ka, va in a._diags.items():
        a_row = _padded(ka, va, a.d)
        for kb, b_row in b_rows:
            c = ka * b.d + kb
            vec = (a_row[:, None] * b_row).reshape(-1)[max(0, -c) : d - max(0, c)]
            diags[c] = vec if c not in diags else diags[c] + vec
    return TruncOp(diags, d, d, "N")


def disc_base(letter: str, params: ParamSet) -> float:
    """Deformation base of a disc letter (or its star), as presets.DISC_FLAVOURS
    declares it, evaluated at params."""
    for flavour_letter, base in DISC_FLAVOURS.values():
        if flavour_letter == letter.rstrip("*"):
            return base.evaluate(params.q, params.p, params.s)
    raise ValueError(f"not a disc letter: {letter!r}")


def disc_rep(letter: str, params: ParamSet) -> TruncOp:
    """Standard weighted-shift picture of a disc letter on the window of
    size params.d: the letter acts as e_n -> sqrt(1 - base^{n+1}) e_{n+1},
    its star as the adjoint."""
    base = disc_base(letter, params)
    op = weighted_shift(np.sqrt(1.0 - base ** (np.arange(params.d - 1) + 1.0)))
    return op.adjoint() if letter.endswith("*") else op


def disc_assignment(pres, params: ParamSet) -> dict[str, TruncOp]:
    """Letter -> operator map for a disc presentation."""
    return {letter: disc_rep(letter, params) for letter in pres.letters}


# -- integer-lattice shift pictures -------------------------------------------


def pi_rep(sign: str, f: LaurentPoly, params: ParamSet) -> TruncOp:
    """Window truncation of the two shift pictures of a circle element, on
    the integer-lattice window of radius params.w.

    sign "+": U acts as the full shift j -> j+1 on the integer lattice.
    sign "-": U acts as the shift on the lattice with the origin removed
    (j -> j+1, but -1 -> 1 and e_0 is annihilated); the unit acts as the
    projection that kills e_0.

    Both are one formula on the window's sites (all of [-w, w] for "+",
    those without 0 for "-"): U^n sends the i-th site to the (i+n)-th. Each
    monomial is compressed exactly to the window; a monomial whose exponent
    exceeds w in absolute value raises WindowOverflow. The exact
    coefficients are evaluated at params (q, p, s).
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if params is None:
        raise ValueError("circle coefficients need params (q, p, s) to evaluate")
    point = (float(params.q), float(params.p), float(params.s))
    w = params.w
    d = 2 * w + 1
    sites = np.arange(d) if sign == "+" else np.delete(np.arange(d), w)
    m = sites.size
    diags = {}
    bandwidth = 0
    for n, coef in f.terms.items():
        if abs(n) > w:
            raise WindowOverflow(
                f"monomial exponent {n} does not fit in window radius {w}"
            )
        bandwidth = max(bandwidth, abs(n))
        value = complex(coef.evaluate(*point))
        cols = sites[max(0, -n) : m - max(0, n)]
        rows = sites[max(0, n) : m - max(0, -n)]
        offsets = cols - rows
        for offset in set(offsets.tolist()):
            at = offsets == offset
            if offset not in diags:
                diags[offset] = np.zeros(d - abs(offset), dtype=np.complex128)
            diags[offset][np.minimum(rows[at], cols[at])] += value
    return TruncOp(diags, d, bandwidth, "Z")


# -- evaluation of symbolic elements -------------------------------------------


def evaluate(x: NCPoly, assignment: Mapping[str, TruncOp], params: ParamSet) -> TruncOp:
    """Evaluate a symbolic element with letters sent to operators and
    coefficients evaluated at the parameter point: the one word-evaluation
    loop. Each word becomes the product of its letters' operators (the
    identity for the empty word), scaled by its coefficient and summed.
    The scaled diagonals go into one {offset: vector} sum and one TruncOp is
    built at the end; every entry is the sum a running TruncOp total
    started from the zero operator has there, bitwise.
    glue.iota runs it on each leg of each degree of the doubled picture."""
    ops = dict(assignment)
    if not ops:
        raise ValueError("empty assignment")
    first = next(iter(ops.values()))
    for op in ops.values():
        first._compat(op)
    letters = x.pres.letters

    def image(letter_index):
        name = letters[letter_index]
        if name not in ops:
            raise KeyError(f"assignment misses letter {name!r}")
        return ops[name]

    one = identity(first.d, first.lattice)
    total: dict[int, np.ndarray] = {}
    bandwidth = 0
    for word, coef in x.terms.items():
        images = map(image, word)
        factor = next(images, one)
        for op in images:
            factor = factor @ op
        c = complex(coef.evaluate(params.q, params.p, params.s))
        for k, vec in factor._diags.items():
            scaled = vec * c
            if k in total:
                total[k] += scaled
            else:
                # 0.0 + scaled, as a sum started from the zero operator has
                # it: no entry of the sum is ever -0.0
                total[k] = np.add(scaled, 0.0, out=scaled)
        bandwidth = max(bandwidth, factor.bandwidth)
    return first._like(total, bandwidth)


# -- traces and norms ----------------------------------------------------------

# the guard width of trace_finite_rank; kpair certifies its pairings on it
GUARD = 2


def trace_finite_rank(op: TruncOp) -> tuple[float, float]:
    """(value, tail_max) of an essentially finite-rank window operator:
    value is the real part of the full-window trace, tail_max the largest
    entry magnitude outside the guarded trusted block. On the natural
    lattice the tail region is the GUARD-guarded untrusted corner; on the
    integer lattice it is the GUARD band at the two window edges (the
    shift-picture differences are exact compressions whose edge entries are
    genuine, so the bandwidth does not widen the band). Only a window with
    no guarded block raises; kpair judges the tail."""
    block = (GUARD, op.d - GUARD) if op.lattice == "Z" else op.trusted_range(GUARD)
    lo, hi = _guarded(op, *block, GUARD)
    tail = []
    for k, vec in op._diags.items():
        inside_end = lo + _segment(k, vec, lo, hi).size
        tail += [vec[:lo], vec[inside_end:]]
    value = complex(op._diags[0].sum()) if 0 in op._diags else 0j
    return float(value.real), _max_abs(tail)


def trusted_diff_norm(a: TruncOp, b: TruncOp, guard: int = 0) -> float:
    """Diagonal-sum norm of a - b on the common trusted block: the sum over
    offsets k of the largest |entry| of diagonal k of the difference.
    Dimensions may differ on the natural lattice (windows of one picture at
    two sizes).

    Each diagonal of the difference is a diagonal matrix times a partial
    isometry, whose spectral norm is its largest entry magnitude, so the sum
    bounds the spectral norm of the difference from above and equals it
    where at most one diagonal differs. It costs O(d * diagonals). An
    absent diagonal reads as 0.0, so each entry is the same IEEE difference
    as in the dense blocks."""
    if a.lattice != b.lattice:
        raise DimensionMismatch("operators live on different lattices")
    if a.lattice == "Z" and a.w != b.w:
        raise DimensionMismatch("integer-lattice windows differ")
    (lo_a, hi_a), (lo_b, hi_b) = a.trusted_range(guard), b.trusted_range(guard)
    lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
    if hi <= lo:
        raise DimensionMismatch(
            f"no common trusted block: d={a.d}, bandwidth={a.bandwidth} vs "
            f"d={b.d}, bandwidth={b.bandwidth} at guard {guard}"
        )

    def part(op, k):
        return _segment(k, op._diags[k], lo, hi) if k in op._diags else 0.0

    offsets = sorted(a._diags.keys() | b._diags.keys())
    return sum((_max_abs([np.subtract(part(a, k), part(b, k))]) for k in offsets), 0.0)


def inv_sqrt_psd(op: TruncOp) -> TruncOp:
    """Pseudo-inverse square root of a diagonal positive semidefinite
    operator, taken entrywise; it keeps the bandwidth. Exactly the zero
    entries map to zero: the one caller, glue.polar_part, passes t*t for a
    weighted shift t, whose entries are exact sums |w|^2, so its boundary
    zero is exactly 0.0. Negative entries raise, and so does a non-diagonal
    operator (QGlueError)."""
    if not op._diags.keys() <= {0}:
        raise QGlueError("inv_sqrt_psd is implemented for diagonal operators only")
    diag = op._diags.get(0, np.zeros(op.d, dtype=np.complex128))
    herm = float(np.linalg.norm(diag - diag.conj()))
    if herm > 1e-12 * max(1.0, float(np.linalg.norm(diag))):
        raise CertificationError(f"operator is not self-adjoint (defect {herm:.3e})")
    eigvals = diag.real
    if float(eigvals.min()) < 0.0:
        raise CertificationError(
            f"operator is not positive semidefinite: min eig {float(eigvals.min()):.3e}"
        )
    inv = np.zeros_like(eigvals)
    keep = eigvals > 0.0
    inv[keep] = eigvals[keep] ** -0.5
    return op._like({0: inv.astype(np.complex128)}, op.bandwidth)
