"""The diagonal store under TruncOp against a dense numpy reference, and the
memory a window costs.

The reference is plain dense arithmetic on the arrays the operators were
built from. An entry that is a single product is bitwise the same either
way when the windows are real (the case the program builds); BLAS forms a
complex product with fused multiply-adds, and entries with several terms
are summed in another order, so those are held to 4 ulps of the sum of the
terms' magnitudes.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglue import (
    DimensionMismatch,
    NCPoly,
    ParamSet,
    Q,
    QGlueError,
    TruncOp,
    diag_op,
    disc_presentation,
    evaluate,
    identity,
    inv_sqrt_psd,
    shift,
    trace_finite_rank,
    trusted_diff_norm,
)
from qglue.opnum import GUARD, kron, weighted_shift
from references import dense_op

ULPS = 4

entries = st.one_of(
    st.just(0.0),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)


@st.composite
def shapes(draw):
    """(lattice, d) of a window on either lattice."""
    lattice = draw(st.sampled_from(["N", "Z"]))
    if lattice == "N":
        return lattice, draw(st.integers(2, 9))
    return lattice, 2 * draw(st.integers(1, 4)) + 1


@st.composite
def windows(draw, shape=None, real=None):
    """(TruncOp, dense array) for a random window with a few nonzero
    diagonals at offsets in [-3, 3]; real or complex entries."""
    lattice, d = draw(shapes()) if shape is None else shape
    reach = min(3, d - 1)
    offsets = draw(st.sets(st.integers(-reach, reach), min_size=1, max_size=3))
    real = draw(st.booleans()) if real is None else real
    dense = np.zeros((d, d), dtype=np.complex128)
    for k in offsets:
        n = d - abs(k)
        vec = np.array(draw(st.lists(entries, min_size=n, max_size=n)), dtype=np.complex128)
        if not real:
            vec += 1j * np.array(draw(st.lists(entries, min_size=n, max_size=n)))
        rows = np.arange(n) + max(0, -k)
        dense[rows, rows + k] = vec
    bandwidth = draw(st.integers(0, 3))
    return dense_op(dense, bandwidth, lattice), dense


@st.composite
def window_pairs(draw):
    shape = draw(shapes())
    return draw(windows(shape)) + draw(windows(shape))


def same_window(op: TruncOp, dense: np.ndarray) -> bool:
    return np.array_equal(op.mat, dense) and op.mat.dtype == np.complex128


def assert_product_matches(got: np.ndarray, want: np.ndarray, terms, scale, real):
    """Bitwise where an entry is at most one real product, else within ULPS
    ulps of the summed term magnitudes (scale)."""
    tol = ULPS * np.spacing(scale)
    assert np.all(np.abs(got.real - want.real) <= tol)
    assert np.all(np.abs(got.imag - want.imag) <= tol)
    if real:
        single = terms <= 1
        assert np.array_equal(got[single], want[single])


def _terms(dense_a, dense_b):
    return (dense_a != 0).astype(int) @ (dense_b != 0).astype(int)


@settings(max_examples=150, deadline=None)
@given(window_pairs())
def test_products_sums_and_adjoints_match_dense(ops):
    a, dense_a, b, dense_b = ops
    assert same_window(a, dense_a) and same_window(b, dense_b)
    real = not np.any(dense_a.imag) and not np.any(dense_b.imag)
    prod = a @ b
    scale = np.abs(dense_a) @ np.abs(dense_b)
    assert_product_matches(prod.mat, dense_a @ dense_b, _terms(dense_a, dense_b), scale, real)
    assert prod.bandwidth == min(a.bandwidth + b.bandwidth, a.d)
    assert same_window(a + b, dense_a + dense_b)
    assert same_window(a - b, dense_a - dense_b)
    assert same_window(-a, -dense_a)
    assert same_window(a * 0.75, dense_a * 0.75)
    assert same_window(a.adjoint(), dense_a.conj().T)
    assert (a + b).bandwidth == max(a.bandwidth, b.bandwidth)
    assert (prod.lattice, prod.w) == (a.lattice, a.w)


def _dense_power(dense: np.ndarray, n: int) -> np.ndarray:
    """Binary powering on dense arrays, in the association TruncOp uses."""
    result, base = np.eye(len(dense), dtype=np.complex128), dense
    while n:
        if n & 1:
            result = result @ base
        base = base @ base
        n >>= 1
    return result


@settings(max_examples=100, deadline=None)
@given(windows(real=True), st.integers(0, 4))
def test_powers_match_dense(op_dense, n):
    op, dense = op_dense
    got = (op**n).mat
    want = _dense_power(dense, n)
    if sum(np.any(np.diagonal(dense, k)) for k in range(1 - op.d, op.d)) <= 1:
        assert np.array_equal(got, want)  # one diagonal: every entry is one product
    else:
        scale = _dense_power(np.abs(dense), n).real
        assert np.all(np.abs(got - want) <= ULPS * np.spacing(scale))


@settings(max_examples=150, deadline=None)
@given(windows(), st.integers(0, 3))
def test_readers_match_dense(op_dense, guard):
    op, dense = op_dense
    lo, hi = op.trusted_range(guard)
    block = op.mat[lo:hi, lo:hi]
    assert np.array_equal(block, dense[lo:hi, lo:hi]) and block.shape == (hi - lo, hi - lo)
    assert op.max_abs() == float(np.max(np.abs(dense)))
    if hi > lo:
        assert op.max_abs(guard) == float(np.max(np.abs(dense[lo:hi, lo:hi])))
    else:
        with pytest.raises(DimensionMismatch, match=f"no trusted block: d={op.d}"):
            op.max_abs(guard)


@settings(max_examples=150, deadline=None)
@given(windows(), st.data())
def test_interior_reader_matches_dense(op_dense, data):
    op, dense = op_dense
    idx = data.draw(st.lists(st.integers(0, op.d - 1), max_size=op.d))
    want = float(np.max(np.abs(op.mat[np.ix_(idx, idx)]), initial=0.0))
    assert want == float(np.max(np.abs(dense[np.ix_(idx, idx)]), initial=0.0))
    assert op.max_abs_on(idx) == want
    assert op.max_abs_on([]) == 0.0


def test_interior_reader_rejects_indices_outside_the_window():
    op = diag_op(np.arange(6.0))
    for index in ([-2, -1], [0, -6], [6]):
        with pytest.raises(IndexError):
            op.max_abs_on(index)


SEEDS = st.integers(0, 2**32 - 1)


def seeded_diagonal(rng, n):
    """n entries drawn as one array: 0.0 with probability 1/3, else uniform
    in [-4, 4]."""
    return np.where(rng.random(n) < 1 / 3, 0.0, rng.uniform(-4.0, 4.0, n))


def seeded_window(rng, lattice, d):
    """(TruncOp, dense array) drawn from a numpy rng the way windows() draws
    one: one to three diagonals at offsets in [-3, 3], real or complex
    entries, and a bandwidth in [0, 3]; each diagonal is one array."""
    reach = min(3, d - 1)
    offsets = rng.choice(np.arange(-reach, reach + 1), rng.integers(1, 4), replace=False)
    real = rng.random() < 0.5
    dense = np.zeros((d, d), dtype=np.complex128)
    for k in offsets:
        n = d - abs(k)
        vec = seeded_diagonal(rng, n) + (0.0 if real else 1j * seeded_diagonal(rng, n))
        rows = np.arange(n) + max(0, -k)
        dense[rows, rows + k] = vec
    return dense_op(dense, int(rng.integers(0, 4)), lattice), dense


def diff_pair(seed):
    """Two windows on one lattice (on the natural lattice possibly of two
    sizes), drawn from one seed: independent, the same window under another
    bandwidth, or the same window with one diagonal changed."""
    rng = np.random.default_rng(seed)
    lattice = str(rng.choice(["N", "Z"]))
    d = int(rng.integers(2, 10)) if lattice == "N" else 2 * int(rng.integers(1, 5)) + 1
    a, dense_a = seeded_window(rng, lattice, d)
    kind = rng.choice(["independent", "same", "one diagonal"])
    if kind == "independent":
        d_b = int(rng.integers(2, 10)) if lattice == "N" else d
        return a, seeded_window(rng, lattice, d_b)[0]
    dense_b = dense_a.copy()
    if kind == "one diagonal":
        k = int(rng.integers(1 - d, d))
        n = d - abs(k)
        rows = np.arange(n) + max(0, -k)
        dense_b[rows, rows + k] += seeded_diagonal(rng, n)
    return a, dense_op(dense_b, int(rng.integers(0, 4)), lattice)


def _common_block(a: TruncOp, b: TruncOp, guard: int):
    (lo_a, hi_a), (lo_b, hi_b) = a.trusted_range(guard), b.trusted_range(guard)
    return max(lo_a, lo_b), min(hi_a, hi_b)


@settings(max_examples=300, deadline=None)
@given(SEEDS.map(diff_pair), st.integers(0, 3))
def test_trusted_diff_norm_is_the_diagonal_sum_norm(ops, guard):
    # the sum over offsets of each differing diagonal's largest entry, read
    # off the dense block; it bounds the spectral norm (numpy's SVD, good to
    # ULPS ulps) from above and is that norm where one diagonal differs
    a, b = ops
    lo, hi = _common_block(a, b, guard)
    if hi <= lo:
        with pytest.raises(DimensionMismatch, match=f"d={a.d}, bandwidth={a.bandwidth}"):
            trusted_diff_norm(a, b, guard)
        return
    got = trusted_diff_norm(a, b, guard)
    block = a.mat[lo:hi, lo:hi] - b.mat[lo:hi, lo:hi]
    diagonals = [np.abs(np.diagonal(block, k)) for k in range(1 - len(block), len(block))]
    assert got == sum((float(np.max(diag)) for diag in diagonals), 0.0)
    largest = float(np.max(np.abs(block)))
    assert got >= float(np.linalg.norm(block, 2)) - ULPS * np.spacing(largest)
    if sum(bool(np.any(diag)) for diag in diagonals) <= 1:
        assert got == largest


@settings(max_examples=100, deadline=None)
@given(windows(), windows())
def test_kron_matches_dense_kron(left, right):
    (a, dense_a), (b, dense_b) = left, right

    def dense(*args):
        raise AssertionError("kron read a dense window")

    with pytest.MonkeyPatch.context() as no_dense:
        no_dense.setattr(TruncOp, "mat", property(dense))
        got = kron(a, b)
    assert np.array_equal(got.mat, np.kron(a.mat, b.mat))
    assert np.array_equal(got.mat, np.kron(dense_a, dense_b))
    assert (got.d, got.lattice, got.bandwidth) == (a.d * b.d, "N", a.d * b.d)


def _word_by_word(x, ops, params):
    """evaluate as a sum of operators: each word's product, scaled, added to
    a running TruncOp total that starts at the zero operator."""
    first = next(iter(ops.values()))
    total = TruncOp({}, first.d, 0, first.lattice)
    for word, coef in x.terms.items():
        images = [ops[x.pres.letters[i]] for i in word]
        factor = images[0] if images else identity(first.d, first.lattice)
        for op in images[1:]:
            factor = factor @ op
        total = total + coef.evaluate(params.q, params.p, params.s) * factor
    return total


@settings(max_examples=100, deadline=None)
@given(
    st.data(),
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(["z", "z*"]), max_size=3),
            st.integers(-3, 3).filter(bool),
        ),
        max_size=5,
    ),
)
def test_evaluate_is_bitwise_the_sum_of_its_scaled_words(data, words):
    # zero entries times a negative coefficient make -0.0, which a sum
    # started from the zero operator never holds: the signs of zeros match too
    shape = data.draw(shapes())
    (z, _), (z_star, _) = data.draw(windows(shape, real=True)), data.draw(windows(shape))
    pres = disc_presentation("q")
    x = NCPoly(pres, {})
    for letters, coef in words:
        x = x + NCPoly(pres, {tuple(pres.letters.index(a) for a in letters): coef * Q})
    ops = {"z": z, "z*": z_star}
    params = ParamSet()
    got, want = evaluate(x, ops, params), _word_by_word(x, ops, params)
    assert (got.d, got.lattice, got.bandwidth) == (want.d, want.lattice, want.bandwidth)
    assert got._diags.keys() == want._diags.keys()
    for k, vec in want._diags.items():
        assert got._diags[k].tobytes() == vec.tobytes()


def _dense_trace(op: TruncOp, dense: np.ndarray):
    """trace_finite_rank on the dense window: the tail is everything outside
    the GUARD-guarded block, read through a boolean mask."""
    lo, hi = _guarded(op)
    mask = np.ones(dense.shape, dtype=bool)
    mask[lo:hi, lo:hi] = False
    tail_max = float(np.max(np.abs(dense[mask]))) if mask.any() else 0.0
    return float(complex(np.trace(dense)).real), tail_max


def _guarded(op: TruncOp) -> tuple[int, int]:
    return (GUARD, op.d - GUARD) if op.lattice == "Z" else op.trusted_range(GUARD)


@settings(max_examples=150, deadline=None)
@given(windows())
def test_trace_finite_rank_matches_dense(op_dense):
    # every tail is measured (kpair certifies it against TAIL_TOL); only a
    # window with no guarded block raises
    op, dense = op_dense
    lo, hi = _guarded(op)
    if hi <= lo:
        with pytest.raises(DimensionMismatch):
            trace_finite_rank(op)
        return
    assert trace_finite_rank(op) == _dense_trace(op, dense)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0.0), st.just(1e-13), st.floats(1e-6, 50.0)), min_size=1, max_size=12
    ),
    st.integers(0, 3),
)
def test_inv_sqrt_psd_of_a_diagonal_matches_eigh(values, bandwidth):
    dense = np.diag(np.asarray(values, dtype=np.complex128))
    got = inv_sqrt_psd(dense_op(dense, bandwidth))
    eigvals, eigvecs = np.linalg.eigh(dense)
    inv = np.zeros_like(eigvals)
    keep = eigvals > 0
    inv[keep] = eigvals[keep] ** -0.5
    assert np.array_equal(got.mat, (eigvecs * inv) @ eigvecs.conj().T)
    assert got.bandwidth == min(bandwidth, len(values))


def test_inv_sqrt_psd_rejects_a_negative_diagonal():
    with pytest.raises(ValueError, match="positive semidefinite"):
        inv_sqrt_psd(dense_op(np.diag([1.0, -0.5, 2.0])))
    with pytest.raises(ValueError, match="self-adjoint"):
        inv_sqrt_psd(dense_op(np.diag([1.0, 1.0 + 1.0j])))


def test_inv_sqrt_psd_rejects_a_non_diagonal_operator():
    # a positive operator with an off-diagonal entry: refused, not decomposed
    op = dense_op(np.array([[2.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(QGlueError, match="diagonal operators only"):
        inv_sqrt_psd(op)


def test_mat_is_read_only():
    op = weighted_shift([1.0, 2.0, 3.0])
    lo, hi = op.trusted_range()
    for arr in (op.mat, op.mat[lo:hi, lo:hi]):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 5.0
    assert op.mat[1, 0] == 1.0


def test_windows_at_d2048_never_hold_a_dense_window():
    d = 2048
    dense_bytes = d * d * np.dtype(np.complex128).itemsize  # 64 MB
    tracemalloc.start()
    try:
        weights = np.linspace(1.0, 2.0, d - 1)
        s = weighted_shift(np.ones(d - 1))
        t = weighted_shift(weights)
        prod = s.adjoint() @ t
        total = prod + s
        adj = total.adjoint()
        largest = adj.max_abs(guard=1)
        rank_one = identity(d) - s @ s.adjoint()  # the projection onto e_0
        value, tail_max = trace_finite_rank(rank_one)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes
    assert largest == weights[d - 4]  # trusted block: rows below d - 3
    assert (value, tail_max) == (1.0, 0.0)


def test_trusted_diff_norm_at_d2048_never_holds_a_dense_block():
    d = 2048
    dense_bytes = d * d * np.dtype(np.complex128).itemsize  # 64 MB
    weights = np.linspace(1.0, 2.0, d - 1)
    tracemalloc.start()
    try:
        got = trusted_diff_norm(weighted_shift(weights), shift(d), guard=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes
    # trusted block: rows and columns below d - 2, so weights[: d - 3]
    assert got == float(np.max(np.abs(weights[: d - 3] - 1.0)))
