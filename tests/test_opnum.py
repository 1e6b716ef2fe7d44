"""Truncated operators: trust bookkeeping, shift pictures, traces."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglue import (
    DimensionMismatch,
    LaurentPoly,
    P,
    ParamSet,
    Q,
    S,
    TruncOp,
    WindowOverflow,
    diag_op,
    disc_assignment,
    disc_presentation,
    disc_rep,
    evaluate,
    identity,
    inv_sqrt_psd,
    pi_rep,
    shift,
    trace_finite_rank,
    trusted_diff_norm,
)
from qglue.opnum import GUARD, weighted_shift, zero
from qglue.params import PARAM_MIN
from references import dense_op


def test_paramset_validation():
    ParamSet()  # defaults are legal
    for kwargs in [
        {"q": 0.0},
        {"q": 1.0},
        {"p": -0.1},
        {"s": 0.0},
        {"s": 1.1},
        # squares that underflow to 0.0 or to a subnormal float
        {"q": 1e-300},
        {"p": 1e-160},
        {"s": 1e-300},
        {"d": 3},
        {"d": 1024},
        {"w": 0},
        {"tol": 0.0},
    ]:
        with pytest.raises(ValueError):
            ParamSet(**kwargs)
    assert ParamSet(s=1.0).s == 1.0
    # parameters at the floor and just above it are accepted
    assert ParamSet(q=1e-150, p=1e-150).q ** 2 == 1e-300
    assert ParamSet(q=PARAM_MIN, p=PARAM_MIN, s=PARAM_MIN).s ** 2 == sys.float_info.min


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
def test_paramset_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        ParamSet(tol=tol)


def test_truncop_basic_bookkeeping():
    a = dense_op(np.eye(4), 1)
    b = dense_op(np.ones((4, 4)), 2)
    assert (a + b).bandwidth == 2
    assert (a @ b).bandwidth == 3
    assert (2.0 * a).bandwidth == 1
    assert a.adjoint().bandwidth == 1
    assert (a**3).bandwidth == 3
    assert a.trusted_range(0) == (0, 3)
    assert a.trusted_range(1) == (0, 2)
    with pytest.raises(DimensionMismatch):
        a + dense_op(np.eye(5))
    with pytest.raises(DimensionMismatch):
        dense_op(np.ones((2, 3)))
    with pytest.raises(ValueError):
        a ** -1
    assert not a.mat.flags.writeable


def test_z_lattice_needs_odd_window():
    with pytest.raises(DimensionMismatch):
        dense_op(np.eye(6), 0, "Z")
    op = dense_op(np.eye(7), 1, "Z")
    assert op.w == 3
    assert op.trusted_range(0) == (1, 6)
    with pytest.raises(DimensionMismatch):
        op + identity(7)  # N lattice vs Z lattice


@pytest.mark.parametrize("lattice", ["N", "Z"])
def test_the_constructor_rejects_a_diagonal_outside_the_window(lattice):
    d = 5
    # an empty vector at offset +-d holds no entry, and is still refused
    for k, n in [(d, 0), (-d, 0), (-d, 1), (7, 1)]:
        with pytest.raises(DimensionMismatch, match=f"diagonal {k} of shape"):
            TruncOp({k: np.ones(n)}, d, 0, lattice)
    for k, n in [(0, d - 1), (2, d), (-1, d), (1, 0)]:
        with pytest.raises(DimensionMismatch, match=f"window of dimension {d}"):
            TruncOp({k: np.ones(n)}, d, 0, lattice)
    with pytest.raises(DimensionMismatch):
        TruncOp({0: np.ones((d, 1))}, d, 0, lattice)


@pytest.mark.parametrize("lattice", ["N", "Z"])
def test_the_constructor_drops_all_zero_diagonals(lattice):
    diags = {-2: np.zeros(3), 0: np.arange(5.0), 1: np.zeros(4), 4: [0.5j]}
    op = TruncOp(diags, 5, 0, lattice)
    assert list(op._diags) == [0, 4]
    want = np.diag(np.arange(5.0)).astype(np.complex128)
    want[0, 4] = 0.5j
    assert np.array_equal(op.mat, want)
    assert TruncOp({0: np.zeros(5)}, 5, 0, lattice)._diags == {}


@st.composite
def dense_windows(draw):
    """(dense array, lattice) of a random window on either lattice. Adding
    0.0 turns every -0.0 into 0.0: a diagonal of zeros is not stored, and
    its entries read back as 0.0."""
    lattice = draw(st.sampled_from(["N", "Z"]))
    d = draw(st.integers(1, 9)) if lattice == "N" else 2 * draw(st.integers(0, 4)) + 1
    cells = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    values = draw(st.lists(st.one_of(st.just(0j), cells), min_size=d * d, max_size=d * d))
    return np.array(values, dtype=np.complex128).reshape(d, d) + 0.0, lattice


@settings(max_examples=150, deadline=None)
@given(dense_windows(), st.integers(-3, 12))
def test_the_dense_helper_round_trips_through_mat(window, bandwidth):
    dense, lattice = window
    op = dense_op(dense, bandwidth, lattice)
    assert op.mat.dtype == np.complex128
    assert op.mat.tobytes() == dense.tobytes()
    assert (op.d, op.lattice) == (len(dense), lattice)
    assert op.bandwidth == min(max(bandwidth, 0), len(dense))


def test_disc_rep_matches_direct_construction():
    params = ParamSet()
    d = 16
    z = disc_rep("z", replace(params, d=d))
    direct = np.zeros((d, d), dtype=complex)
    for n in range(d - 1):
        direct[n + 1, n] = math.sqrt(1.0 - params.q ** (n + 1))
    assert np.max(np.abs(z.mat - direct)) < 1e-15
    assert z.bandwidth == 1
    y = disc_rep("y", replace(params, d=d))
    assert abs(y.mat[1, 0] - np.sqrt(1.0 - params.p)) < 1e-15
    x = disc_rep("x", replace(params, d=d))
    assert abs(x.mat[1, 0] - np.sqrt(1.0 - params.q**2)) < 1e-15


def test_disc_relation_residual():
    params = ParamSet()
    pres = disc_presentation("q")
    ops = disc_assignment(pres, params)
    z, zs = ops["z"], ops["z*"]
    rel = zs @ z - params.q * (z @ zs) - (1.0 - params.q) * identity(params.d)
    lo, hi = rel.trusted_range()
    assert np.max(np.abs(rel.mat[lo:hi, lo:hi])) < 1e-14


def test_evaluate_matches_hand_product():
    params = ParamSet(d=12)
    pres = disc_presentation("q")
    ops = disc_assignment(pres, params)
    z = pres.gen("z")
    # z z z* is already a normal word, so evaluation is a plain matrix product
    got = evaluate(z * z * z.star(), ops, params)
    hand = ops["z"].mat @ ops["z"].mat @ ops["z*"].mat
    assert np.array_equal(got.mat, hand)
    assert got.bandwidth == 3
    y = evaluate(z + z, ops, params)
    assert np.array_equal(y.mat, 2.0 * ops["z"].mat)


def test_evaluate_takes_one_product_per_letter_after_the_first(monkeypatch):
    product = TruncOp.__matmul__
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(TruncOp, "__matmul__", counting)
    params = ParamSet(d=12)
    pres = disc_presentation("q")
    ops = disc_assignment(pres, params)
    z = pres.gen("z")
    got = evaluate(z * z * z.star(), ops, params)
    assert len(calls) == 2
    assert np.array_equal(got.mat, product(product(ops["z"], ops["z"]), ops["z*"]).mat)
    # the empty word is the identity, with no product at all
    calls.clear()
    got = evaluate(pres.one() * 3, ops, params)
    assert not calls
    assert np.array_equal(got.mat, 3.0 * np.eye(12))


# -- shift pictures -----------------------------------------------------------


def test_pi_plus_frozen_w2():
    u = pi_rep("+", LaurentPoly({1: 1}), ParamSet(w=2))
    expected = np.zeros((5, 5))
    for j in range(4):
        expected[j + 1, j] = 1.0
    assert np.array_equal(u.mat.real, expected)
    assert u.lattice == "Z" and u.w == 2 and u.bandwidth == 1


def test_pi_minus_frozen_w2():
    u = pi_rep("-", LaurentPoly({1: 1}), ParamSet(w=2))
    expected = np.zeros((5, 5))
    expected[1, 0] = 1.0  # -2 -> -1
    expected[3, 1] = 1.0  # -1 -> +1, skipping the removed origin
    expected[4, 3] = 1.0  # +1 -> +2
    assert np.array_equal(u.mat.real, expected)
    unit = pi_rep("-", LaurentPoly({0: 1}), ParamSet(w=2))
    assert np.array_equal(unit.mat.real, np.diag([1.0, 1.0, 0.0, 1.0, 1.0]))
    down = pi_rep("-", LaurentPoly({-1: 1}), ParamSet(w=2))
    assert np.array_equal(down.mat, u.mat.T)


def test_pi_plus_inverse_trajectories():
    w = 4
    params = ParamSet(w=w)
    u = pi_rep("+", LaurentPoly({1: 1}), params)
    ui = pi_rep("+", LaurentPoly({-1: 1}), params)
    assert np.array_equal(ui.mat, u.mat.T)
    # U U* = 1 exactly in the bilateral picture, up to the window corner
    prod = u @ ui
    assert trusted_diff_norm(prod, identity(2 * w + 1, "Z"), guard=0) == 0.0


def _pi_rep_by_site(sign, f, w, params):
    """pi_rep one lattice site at a time, as a dense window: U^n walks each
    site n steps, stepping over the origin (which it annihilates) in the
    "-" picture; monomials accumulate in f.terms order."""
    mat = np.zeros((2 * w + 1, 2 * w + 1), dtype=np.complex128)
    for n, coef in f.terms.items():
        value = complex(coef.evaluate(params.q, params.p, params.s))
        step = 1 if n >= 0 else -1
        for j in range(-w, w + 1):
            if sign == "-" and j == 0:
                continue
            k = j
            for _ in range(abs(n)):
                k += step
                if sign == "-" and k == 0:
                    k += step
            if abs(k) <= w:
                mat[k + w, j + w] += value
    return mat


@st.composite
def circle_elements(draw):
    w = draw(st.integers(min_value=1, max_value=8))
    coefs = st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=6),
        st.sampled_from([Q, P * S, Q - P, 1 - Q * P]),
    )
    exponents = st.integers(min_value=-w, max_value=w)
    terms = draw(st.dictionaries(exponents, coefs, max_size=5))
    return w, LaurentPoly(terms)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from("+-"), circle_elements(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_pi_rep_matches_the_per_site_walk(sign, element, q, p):
    w, f = element
    params = ParamSet(q=q, p=p, s=0.7, w=w)
    got = pi_rep(sign, f, params)
    want = _pi_rep_by_site(sign, f, w, params)
    assert np.array_equal(got.mat, want)
    assert got.bandwidth == max((abs(n) for n in f.terms), default=0)
    nonzero = {k for k in range(-2 * w, 2 * w + 1) if np.diagonal(want, k).any()}
    assert set(got._diags) == nonzero
    assert got.lattice == "Z" and got.w == w


def test_pi_rep_window_overflow():
    with pytest.raises(WindowOverflow):
        pi_rep("+", LaurentPoly({5: 1}), ParamSet(w=4))
    with pytest.raises(ValueError):
        pi_rep("x", LaurentPoly({1: 1}), ParamSet(w=4))


def test_pi_rep_exact_mode_needs_params():
    from qglue import Q

    f = LaurentPoly({1: Q})
    with pytest.raises(ValueError):
        pi_rep("+", f, None)
    with pytest.raises(TypeError):
        pi_rep("+", f)
    got = pi_rep("+", f, ParamSet(w=4))
    assert abs(got.mat[5, 4] - 0.6) < 1e-15


def test_pi_difference_is_local():
    # (pi+ - pi-)(U^N) touches only rows/cols within N+1 of the origin
    w = 8
    params = ParamSet(w=w)
    for N in range(-4, 5):
        f = LaurentPoly({N: 1})
        diff = pi_rep("+", f, params) - pi_rep("-", f, params)
        nz = np.argwhere(np.abs(diff.mat) > 0)
        if nz.size:
            assert np.max(np.abs(nz - w)) <= abs(N) + 1


# -- traces -------------------------------------------------------------------


def test_trace_exactness_semantics():
    d = 10
    op = dense_op(np.diag([1.0, 2.0] + [0.0] * (d - 2)), 0)
    assert trace_finite_rank(op) == (3.0, 0.0)

    leaky = np.zeros((d, d))
    leaky[0, 0] = 1.0
    leaky[d - 1, d - 1] = 1e-12
    value, tail_max = trace_finite_rank(dense_op(leaky, 0))
    assert tail_max == 1e-12
    assert value == pytest.approx(1.0 + 1e-12)

    # a tail of any size is measured, not refused: kpair certifies it
    leaky[d - 1, d - 1] = 1.0
    assert trace_finite_rank(dense_op(leaky, 0)) == (2.0, 1.0)


def test_trace_z_lattice_guard_band():
    # the GUARD band at the two window edges is the tail
    w = 4
    d = 2 * w + 1
    mat = np.zeros((d, d))
    mat[GUARD, GUARD] = 1.0  # the first site past the band
    assert trace_finite_rank(dense_op(mat, 0, "Z")) == (1.0, 0.0)

    mat2 = np.zeros((d, d))
    mat2[GUARD - 1, GUARD - 1] = 1.0  # sits in the guard band at the window edge
    assert trace_finite_rank(dense_op(mat2, 0, "Z")) == (1.0, 1.0)


def test_trace_guard_too_large():
    # bandwidth 2 plus GUARD leaves no trusted block on a window of 4
    op = dense_op(np.eye(4), 2)
    with pytest.raises(DimensionMismatch, match="no trusted block: d=4, bandwidth=2 at guard 2"):
        trace_finite_rank(op)
    # nor does GUARD at each edge of an integer-lattice window of radius 1,
    # whose band the bandwidth does not widen: the message names none
    with pytest.raises(DimensionMismatch, match="no trusted block: d=3 at guard 2"):
        trace_finite_rank(dense_op(np.eye(3), 1, "Z"))


def test_trusted_diff_norm_mixed_sizes():
    a = identity(8)
    b = identity(12)
    assert trusted_diff_norm(a, b) == 0.0
    c = dense_op(np.eye(12) * 2.0)
    assert trusted_diff_norm(a, c) == 1.0
    # two differing diagonals: their largest entries add
    assert trusted_diff_norm(a, c + 0.5 * shift(12)) == 1.5


# -- inverse square root --------------------------------------------------------


def test_inv_sqrt_diag_oracle():
    vals = np.array([4.0, 1.0, 0.25, 9.0])
    op = diag_op(vals)
    got = inv_sqrt_psd(op)
    assert np.allclose(np.diag(got.mat).real, vals**-0.5)
    assert got.bandwidth == op.bandwidth


def test_inv_sqrt_pseudoinverse_at_kernel():
    vals = np.array([1.0, 0.0, 4.0])
    got = inv_sqrt_psd(diag_op(vals))
    assert np.allclose(np.diag(got.mat).real, [1.0, 0.0, 0.5])


def test_inv_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        inv_sqrt_psd(diag_op(np.array([1.0, -0.5])))


def test_inv_sqrt_polar_identity():
    params = ParamSet(d=24)
    z = disc_rep("z", params)
    v = z @ inv_sqrt_psd(z.adjoint() @ z)
    assert trusted_diff_norm(v, shift(24), guard=1) < 1e-12


# -- truncation stability ---------------------------------------------------------


def test_truncation_stability_bitwise():
    params = ParamSet()
    pres = disc_presentation("q")
    z = pres.gen("z")
    x = z * z.star() * z * z + z.star() * z - 3 * z
    small = evaluate(x, disc_assignment(pres, replace(params, d=32)), params)
    big = evaluate(x, disc_assignment(pres, replace(params, d=64)), params)
    keep = 32 - small.bandwidth
    assert np.array_equal(small.mat[:keep, :keep], big.mat[:keep, :keep])


def test_shift_window_defects_sit_at_the_edges():
    s = shift(6)
    # the window clips one rank at each end: S*S loses the last site,
    # S S* the first
    assert np.array_equal((s.adjoint() @ s).mat, np.diag([1.0] * 5 + [0.0]))
    assert np.array_equal((s @ s.adjoint()).mat, np.diag([0.0] + [1.0] * 5))


# -- window primitives ------------------------------------------------------------


def test_max_abs_reads_whole_window_or_guarded_block():
    mat = np.zeros((6, 6))
    mat[5, 4] = -3.0  # outside the top-left 5x5 block trusted at bandwidth 1
    op = dense_op(mat, 1)
    assert op.max_abs() == 3.0
    assert op.max_abs(0) == 0.0
    corner = dense_op(np.diag([0.5, 0, 0, 0, 2.0]), 0, "Z")
    assert corner.max_abs() == 2.0
    assert corner.max_abs(1) == 0.0  # the centered block drops both ends
    with pytest.raises(DimensionMismatch, match="no trusted block: d=6, bandwidth=1 at guard 5"):
        op.max_abs(5)  # an empty guarded block compares nothing


@pytest.mark.parametrize(
    "x",
    [
        2.0 * shift(7) + identity(7),
        pi_rep("+", LaurentPoly({1: 2, -2: Fraction(1, 2)}), ParamSet(w=3)),
    ],
    ids=["N", "Z"],
)
def test_zero_is_the_additive_identity(x):
    # zero builds the natural-lattice zero; the empty store is the zero of
    # either lattice
    z = zero(x.d) if x.lattice == "N" else TruncOp({}, x.d, 0, "Z")
    assert z.bandwidth == 0
    assert (z.lattice, z.w) == (x.lattice, x.w)
    for total in (x + z, z + x):
        assert np.array_equal(total.mat, x.mat)
        assert total.bandwidth == x.bandwidth


def test_weighted_shift_of_ones_is_the_shift():
    for d in (1, 2, 9):
        ws = weighted_shift(np.ones(d - 1))
        s = shift(d)
        assert np.array_equal(ws.mat, s.mat)
        assert ws.bandwidth == s.bandwidth == min(1, d)
    ws = weighted_shift([2.0, 3.0])
    assert np.array_equal(ws.mat, [[0, 0, 0], [2.0, 0, 0], [0, 3.0, 0]])


def test_power_takes_one_product_per_squaring_and_per_set_bit(monkeypatch):
    product = TruncOp.__matmul__
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return product(a, b)

    monkeypatch.setattr(TruncOp, "__matmul__", counting)
    z = disc_rep("z", ParamSet(d=12))
    # results keep binary powering's association: the squares of z for the
    # set bits of n, lowest first
    z2 = product(z, z)
    z4 = product(z2, z2)
    want = [identity(12), z, z2, product(z, z2), z4, product(z, z4)]
    for n, (count, expected) in enumerate(zip([0, 0, 1, 2, 2, 3], want)):
        calls.clear()
        got = z**n
        assert len(calls) == count, n
        assert np.array_equal(got.mat, expected.mat), n
        assert got.bandwidth == min(n, 12)
