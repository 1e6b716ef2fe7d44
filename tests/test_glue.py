"""Fibre pairs over the circle: membership, twists, embeddings, bundles."""

import random
from dataclasses import replace
from functools import reduce
from operator import mul

import numpy as np
import pytest

import qglue.glue
from qglue import (
    DimensionMismatch,
    FibrePair,
    LaurentPoly,
    NCPoly,
    ONE,
    P,
    ParamSet,
    Q,
    S,
    SymbolMismatch,
    UnsupportedSymbol,
    build_en,
    chi,
    diag_op,
    disc_rep,
    en_numeric,
    evaluate,
    fp_matmul,
    identity,
    iota,
    iota_kron_assignment,
    kron_interior,
    normal_form,
    pi_rep,
    podles_generators,
    polar_part,
    psi_inverse,
    psi_iso,
    s2_leg_assignment,
    s3_leg_assignment,
    s3_leg_symbol,
    shift,
    sphere2_presentation,
    sphere3_presentation,
    trusted_diff_norm,
    w_map,
)
from qglue.glue import leg_bilaurent
from qglue.ncpoly import SymMatrix
from qglue.opnum import disc_base, weighted_shift, zero
from qglue.presets import S2_IN_S3
from qglue.report import FAIL
from qglue.suites import run_check

PARAMS = ParamSet(d=24)


def zero_pair(d, twist):
    z = zero(d)
    return FibrePair(z, z, LaurentPoly({}), twist)


# -- membership ---------------------------------------------------------------


def _plant_leg_symbols(monkeypatch, sym0, sym1):
    """iota reads sym0 off leg 0 and sym1 off leg 1, whatever the element."""
    monkeypatch.setattr(qglue.glue, "s3_leg_symbol", lambda x, leg: (sym0, sym1)[leg])


def test_membership_accepts_matching_symbols(monkeypatch):
    # iota checks the two symbols it reads; the pair keeps one and derives
    # the other
    sym = LaurentPoly({0: 1, 2: 3})
    _plant_leg_symbols(monkeypatch, sym, sym)
    (fp,) = iota(sphere3_presentation().one(), replace(PARAMS, d=8)).values()
    assert fp.twist == 0 and fp.d == 8
    assert fp.sym0 == fp.sym1 == sym


def test_membership_names_first_failing_power(monkeypatch):
    pres, small = sphere3_presentation(), replace(PARAMS, d=8)
    sym0 = LaurentPoly({0: 1, 2: 1})
    sym1 = LaurentPoly({0: 1})
    _plant_leg_symbols(monkeypatch, sym0, sym1)
    with pytest.raises(SymbolMismatch, match=r"U\^2"):
        iota(pres.one(), small)
    # b has degree 1
    _plant_leg_symbols(monkeypatch, sym1, sym1)
    with pytest.raises(SymbolMismatch, match=r"twist-1"):
        iota(pres.gen("b"), small)
    # the twisted membership wants sym1 = U^twist sym0
    _plant_leg_symbols(monkeypatch, sym1, LaurentPoly({1: 1}))
    (fp,) = iota(pres.gen("b"), small).values()
    assert fp.twist == 1 and fp.sym1 == LaurentPoly({1: 1})


def test_membership_rejects_numeric_symbols():
    one = identity(8)
    # a leg symbol is a LaurentPoly: a bare number, exact or not, is none
    for scalar in (1.0, 1):
        with pytest.raises(TypeError, match="LaurentPoly"):
            FibrePair(one, one, scalar, 0)
    with pytest.raises(TypeError):
        FibrePair(one, one, LaurentPoly({0: 1.0}), 0)
    sym = LaurentPoly({0: 1})
    with pytest.raises(DimensionMismatch):
        FibrePair(identity(8), identity(9), sym, 0)


def test_twist_join_rules():
    # a sum or a difference needs one twist on both sides, even where one
    # side has zero symbols
    u = chi(0, 8)
    twisted = psi_inverse(chi(0, 8), 1)
    assert (twisted + zero_pair(8, 1)).twist == 1
    assert (u - zero_pair(8, 0)).twist == 0
    for a, b in ((zero_pair(8, 3), u), (u, zero_pair(8, 3)), (twisted, u)):
        with pytest.raises(SymbolMismatch, match="cannot add twist"):
            a + b
        with pytest.raises(SymbolMismatch, match="cannot add twist"):
            a - b


def test_matmul_adds_twists():
    p = psi_inverse(chi(0, 12), 1)
    prod = p @ p
    assert prod.twist == 2
    assert prod.sym1 == LaurentPoly({2: 1})
    # a fibre pair multiplies fibre pairs only, never a bare number
    with pytest.raises(TypeError):
        2 * p


# -- chi and the twist normalization -------------------------------------------


def test_chi_projection_shapes():
    fp = chi(3, 16)
    assert np.array_equal(fp.t0.mat.real, np.diag([0.0] * 3 + [1.0] * 13))
    assert np.array_equal(fp.t1.mat.real, np.eye(16))
    neg = chi(-2, 16)
    assert np.array_equal(neg.t0.mat.real, np.eye(16))
    assert np.array_equal(neg.t1.mat.real, np.diag([0.0] * 2 + [1.0] * 14))
    assert chi(0, 8).twist == 0
    # the unit is chi(0): both legs the identity, both symbols 1
    unit = chi(0, 8)
    assert np.array_equal(unit.t0.mat, np.eye(8)) and np.array_equal(unit.t1.mat, np.eye(8))
    assert unit.sym0 == unit.sym1 == LaurentPoly({0: 1}) and unit.twist == 0
    with pytest.raises(DimensionMismatch):
        chi(8, 8)


@pytest.mark.parametrize("N", [2, -3])
def test_psi_round_trip_on_trusted_block(N):
    p = psi_inverse(chi(0, 16), N)
    assert p.twist == N
    rt = psi_inverse(psi_iso(p), N)
    assert rt.twist == N
    assert trusted_diff_norm(rt.t0, p.t0) == 0.0
    assert trusted_diff_norm(rt.t1, p.t1) == 0.0
    assert rt.sym0 == p.sym0 and rt.sym1 == p.sym1


@pytest.mark.parametrize("N", [1, 3, -2])
def test_psi_iso_lands_on_opposite_chi(N):
    p = psi_inverse(chi(0, 16), N)
    image = psi_iso(p)
    target = chi(-N, 16)
    assert image.twist == 0
    assert np.array_equal(image.t0.mat, target.t0.mat)
    assert np.array_equal(image.t1.mat, target.t1.mat)
    assert image.sym0 == target.sym0 and image.sym1 == target.sym1


def test_psi_inverse_needs_twist_zero():
    p = psi_inverse(chi(0, 8), 1)
    with pytest.raises(SymbolMismatch):
        psi_inverse(p, 1)
    assert psi_iso(chi(0, 8)) is not None  # twist 0 passes through
    assert psi_inverse(chi(0, 8), 0).twist == 0


def test_fibre_pair_rejects_a_non_integer_twist():
    one = identity(8)
    sym = LaurentPoly({0: 1})
    with pytest.raises(TypeError):
        FibrePair(one, one, sym, 0.7)
    assert FibrePair(one, one, sym, np.int64(0)).twist == 0
    # the twist is required: there is no default to fall back on
    with pytest.raises(TypeError):
        FibrePair(one, one, sym)


def test_chi_rejects_a_non_integer_degree():
    with pytest.raises(TypeError):
        chi(1.9, 8)
    assert np.array_equal(chi(np.int64(-2), 8).t1.mat, chi(-2, 8).t1.mat)


def test_psi_inverse_rejects_a_non_integer_degree():
    with pytest.raises(TypeError):
        psi_inverse(chi(0, 8), 1.5)
    assert psi_inverse(chi(0, 8), np.int64(1)).twist == 1


def test_fp_matmul_shape_check():
    u = chi(0, 8)
    with pytest.raises(DimensionMismatch):
        fp_matmul([[u, u]], [[u, u]])
    out = fp_matmul([[u, u]], [[u], [u]])
    assert np.array_equal(out[0][0].t0.mat.real, 2.0 * np.eye(8))


# -- symbol maps ----------------------------------------------------------------


def test_s3_leg_symbols_split_the_letters():
    pres = sphere3_presentation()
    a, bstar = pres.gen("a"), pres.gen("b*")
    x = a * bstar
    assert set(s3_leg_symbol(x, 0).terms) == {1}
    assert set(s3_leg_symbol(x, 1).terms) == {-1}
    # the disc defects have symbol zero on their own leg
    astar = pres.gen("a*")
    defect = pres.one() - a * astar
    assert s3_leg_symbol(defect, 0).is_zero()
    assert s3_leg_symbol(defect, 1).is_zero()


# -- leg assignments -------------------------------------------------------------


def _numeric_residual(ops, q, d, letter):
    a = ops[letter].mat
    astar = ops[letter + "*"].mat
    rel = astar @ a - q * (a @ astar) - (1.0 - q) * np.eye(d)
    return np.max(np.abs(rel[: d - 2, : d - 2]))


def test_s3_leg_relations():
    d = PARAMS.d
    for leg in (0, 1):
        ops = s3_leg_assignment(leg, PARAMS)
        assert _numeric_residual(ops, PARAMS.q, d, "a") < 1e-13
        assert _numeric_residual(ops, PARAMS.p, d, "b") < 1e-13
        swap = ops["a"].mat @ ops["b"].mat - ops["b"].mat @ ops["a"].mat
        assert np.max(np.abs(swap)) == 0.0
    with pytest.raises(ValueError):
        s3_leg_assignment(2, PARAMS)


def test_cached_leg_operators_reject_writes():
    ops = s3_leg_assignment(0, PARAMS)
    assert s3_leg_assignment(0, PARAMS) is ops
    with pytest.raises(TypeError):
        ops["a"] = identity(PARAMS.d)
    for op in ops.values():
        for vec in op._diags.values():
            with pytest.raises(ValueError, match="read-only"):
                vec[0] = 7.0
    assert _numeric_residual(ops, PARAMS.q, PARAMS.d, "a") < 1e-13


def test_s2_leg_relations():
    d = PARAMS.d
    for leg in (0, 1):
        ops = s2_leg_assignment(leg, PARAMS)
        R, Rs = ops["R"].mat, ops["R*"].mat
        A, B = ops["A"].mat, ops["B"].mat
        eye = np.eye(d)
        inner = np.s_[: d - 2, : d - 2]
        assert np.max(np.abs((Rs @ R - eye + PARAMS.q * A + PARAMS.p * B)[inner])) < 1e-13
        assert np.max(np.abs((R @ Rs - eye + A + B)[inner])) < 1e-13
        assert np.max(np.abs(A @ B)) == 0.0


# -- the quotient sphere inside the glued discs -------------------------------------


def _in_s3(x, table=S2_IN_S3):
    """The s2pq element x with each letter replaced by its s3pq image."""
    s3 = sphere3_presentation()
    images = [s3.element(table[letter]) for letter in x.pres.letters]
    total = NCPoly(s3)
    for word, coef in x.terms.items():
        total = total + coef * reduce(mul, (images[i] for i in word), s3.one())
    return total


def _embedding_defects(table):
    """The s2pq rules whose image under table does not reduce to 0 in s3pq,
    then the letters x whose image of x* is not the star of x's image."""
    s2 = sphere2_presentation()
    broken = [
        s2.rule_text(rule)
        for rule in s2.rules
        if not normal_form(_in_s3(s2.rule_element(rule), table)).is_zero()
    ]
    for letter in s2.letters:
        x = s2.gen(letter)
        if normal_form(_in_s3(x.star(), table) - _in_s3(x, table).star()):
            broken.append(f"star of {letter}")
    return broken


def test_s2_in_s3_is_an_exact_star_embedding():
    assert _embedding_defects(S2_IN_S3) == []


def test_a_wrong_image_of_r_breaks_the_embedding():
    # R -> a b* breaks the rules through the p-disc, and the star with it
    assert _embedding_defects({**S2_IN_S3, "R": {"a b*": ONE}}) == [
        "R B -> (p^-1) B R",
        "R* R -> 1 + (-q) A + (-p) B",
        "R R* -> 1 - A - B",
        "star of R",
        "star of R*",
    ]
    # with R* -> b a* the star holds, and the rules still break
    assert _embedding_defects({**S2_IN_S3, "R": {"a b*": ONE}, "R*": {"b a*": ONE}}) == [
        "R B -> (p^-1) B R",
        "R* B -> (p) B R*",
        "R* R -> 1 + (-q) A + (-p) B",
        "R R* -> 1 - A - B",
    ]


# the s2 legs as glue wrote them before they were derived from S2_IN_S3: R is
# the z-disc on leg 0 and the y-disc on leg 1, A and B are diag(base^n) on
# their own leg and 0 on the other
def _closed_form_s2_legs(leg, params, discs=("z", "y")):
    disc = discs[leg]
    r = disc_rep(disc, params)
    defects = [zero(params.d), zero(params.d)]
    defects[leg] = diag_op(disc_base(disc, params) ** np.arange(params.d))
    return {"A": defects[0], "B": defects[1], "R": r, "R*": r.adjoint()}


def _leg_distance(params, discs):
    return max(
        trusted_diff_norm(op, _closed_form_s2_legs(leg, params, discs)[x], guard=2)
        for leg in (0, 1)
        for x, op in s2_leg_assignment(leg, params).items()
    )


@pytest.mark.parametrize(
    "params",
    [ParamSet(q=0.6, p=0.4, d=64), ParamSet(q=0.95, p=0.9, d=64), ParamSet(q=0.99, p=0.98, d=512)],
    ids=["default", "q0.95", "q0.99-d512"],
)
def test_derived_s2_legs_match_the_closed_forms(params):
    assert _leg_distance(params, ("z", "y")) < 1e-15
    # an oracle with q and p swapped is told apart
    assert _leg_distance(params, ("y", "z")) > 1e-3


@pytest.mark.parametrize("N", [1, -1])
def test_line_bundles_over_the_quotient_sphere(N):
    # E_1 = [[pB, R*], [BR, 1 - B]] and E_-1 = [[qA, R*], [AR, 1 - A]]
    s2 = sphere2_presentation()
    proj, base = ("B", P) if N == 1 else ("A", Q)
    rows = [[{proj: base}, {"R*": ONE}], [{f"{proj} R": ONE}, {"": ONE, proj: -ONE}]]
    E = SymMatrix(s2, [[s2.element(entry) for entry in row] for row in rows])
    square, glued = E @ E, build_en(N)[2]
    for i in range(2):
        for j in range(2):
            assert normal_form(square[i, j] - E[i, j]).is_zero()
            assert normal_form(_in_s3(E[i, j])) == normal_form(glued[i, j])


# -- the doubled picture -----------------------------------------------------------


def test_iota_basic_structure():
    pres = sphere3_presentation()
    a = pres.gen("a")
    e = iota(a, replace(PARAMS, d=12))
    assert list(e) == [-1]
    pair = e[-1]
    assert pair.sym0 == LaurentPoly({1: 1})
    assert pair.sym1 == LaurentPoly({0: 1})
    assert pair.t0.bandwidth == 1
    assert np.array_equal(pair.t1.mat.real, np.eye(12))
    assert w_map(leg_bilaurent(e, 0)) == leg_bilaurent(e, 1)


def test_iota_symbol_side_is_multiplicative():
    pres = sphere3_presentation()
    gens = [pres.gen(name) for name in ("a", "a*", "b", "b*")]
    rng = random.Random(7)

    def rand_elem():
        out = pres.one() * 0
        for _ in range(3):
            word = pres.one()
            for _ in range(rng.randrange(1, 4)):
                word = word * gens[rng.randrange(4)]
            out = out + rng.randrange(-2, 3) * word
        return out

    for _ in range(5):
        x, y = rand_elem(), rand_elem()
        small = replace(PARAMS, d=8)
        ex, ey, exy = iota(x, small), iota(y, small), iota(x * y, small)
        for leg in (0, 1):
            assert leg_bilaurent(exy, leg) == leg_bilaurent(ex, leg) * leg_bilaurent(ey, leg)
        assert w_map(leg_bilaurent(exy, 0)) == leg_bilaurent(exy, 1)


def test_iota_degrees_are_fibre_pairs_of_that_twist():
    pres = sphere3_presentation()
    rng = random.Random(11)
    for _ in range(8):
        x = pres.one() * rng.randrange(-2, 3)
        for _ in range(rng.randrange(1, 4)):
            word = pres.one()
            for _ in range(rng.randrange(1, 5)):
                word = word * pres.gen(rng.choice(pres.letters))
            x = x + rng.randrange(-3, 4) * word
        image = iota(x, replace(PARAMS, d=8))
        assert image
        for k, pair in image.items():
            assert isinstance(pair, FibrePair)
            assert pair.twist == k


def _disc_matrix(params, d):
    import math

    mat = np.zeros((d, d), dtype=np.complex128)
    for n in range(d - 1):
        mat[n + 1, n] = math.sqrt(1.0 - params.q ** (n + 1))
    return mat


def test_extract_degree_builds_twisted_pairs():
    pres = sphere3_presentation()
    a = pres.gen("a")
    e = iota(a, replace(PARAMS, d=12))
    fp = e.get(-1)
    assert fp is not None and fp.twist == -1
    assert fp.sym0 == LaurentPoly({1: 1})
    assert e.get(5) is None
    assert np.max(np.abs(fp.t0.mat - _disc_matrix(PARAMS, 12))) < 1e-15


def test_kron_legs_satisfy_relations_on_interior():
    d, w = 20, 6
    for leg in (0, 1):
        ops = iota_kron_assignment(leg, replace(PARAMS, d=d, w=w))
        idx = kron_interior(d, w, 2, 2)
        eye = np.eye(d * (2 * w + 1))

        def interior_max(mat):
            return np.max(np.abs(mat[np.ix_(idx, idx)]))

        a, astar = ops["a"].mat, ops["a*"].mat
        b, bstar = ops["b"].mat, ops["b*"].mat
        assert interior_max(astar @ a - PARAMS.q * (a @ astar) - (1 - PARAMS.q) * eye) < 1e-10
        assert interior_max(bstar @ b - PARAMS.p * (b @ bstar) - (1 - PARAMS.p) * eye) < 1e-10
        assert interior_max(a @ b - b @ a) < 1e-10
        assert interior_max(a @ bstar - bstar @ a) < 1e-10
        sphere = (a @ astar) @ (b @ bstar) - a @ astar - b @ bstar + eye
        assert interior_max(sphere) < 1e-10


def test_gluing_map_agrees_across_its_uses():
    # iota, the leg assignment, the leg symbol and the kron picture all read
    # one gluing map: on each leg a letter is its leg operator (x) U^weight,
    # and that operator's symbol is U to the leg-symbol exponent
    pres = sphere3_presentation()
    d, w = 10, 3
    prm = replace(PARAMS, d=d, w=w)
    for leg in (0, 1):
        ops = s3_leg_assignment(leg, prm)
        kron = iota_kron_assignment(leg, prm)
        for letter, weight in zip(pres.letters, pres.weights):
            gen = pres.gen(letter)
            sym = s3_leg_symbol(gen, leg)
            assert list(sym.terms.values()) == [1]
            image = iota(gen, prm)
            assert list(image) == [weight]
            op = (image[weight].t0, image[weight].t1)[leg]
            image_sym = (image[weight].sym0, image[weight].sym1)[leg]
            assert np.array_equal(op.mat, ops[letter].mat)
            assert op.bandwidth == ops[letter].bandwidth
            assert image_sym == sym
            circle = pi_rep("+", LaurentPoly({weight: 1}), prm).mat
            assert np.array_equal(kron[letter].mat, np.kron(ops[letter].mat, circle))
            # the leg operator is the unit exactly where the symbol is 1
            (exponent,) = sym.terms
            is_unit = np.array_equal(ops[letter].mat, np.eye(d))
            assert is_unit == (exponent == 0)


def test_evaluate_on_kron_operators_matches_word_product():
    pres = sphere3_presentation()
    a, b = pres.gen("a"), pres.gen("b")
    ops = iota_kron_assignment(0, replace(PARAMS, d=6, w=2))
    got = evaluate(a * b, ops, PARAMS)
    assert np.max(np.abs(got.mat - ops["a"].mat @ ops["b"].mat)) < 1e-14


# -- the equatorial family ---------------------------------------------------------


def test_podles_symbols_and_membership():
    pp = podles_generators(replace(PARAMS, d=20))
    assert pp.zeta.symbols_zero()
    assert pp.eta.sym0 == LaurentPoly({1: S})
    assert pp.eta.sym1 == LaurentPoly({1: S})
    assert pp.eta.twist == 0
    # zeta's legs are -s^2 q^2 t and q^2 t over the disc defect t = diag(q^2n)
    t = PARAMS.q ** (2 * np.arange(20.0))
    assert np.max(np.abs(pp.zeta.t1.mat - np.diag(PARAMS.q**2 * t))) < 1e-15
    assert np.max(np.abs(pp.zeta.t0.mat + np.diag(PARAMS.s**2 * PARAMS.q**2 * t))) < 1e-15


def test_podles_spectral_relations():
    d = 20
    pp = podles_generators(replace(PARAMS, d=d))
    s2 = PARAMS.s**2
    qi2 = PARAMS.q**-2
    eye = np.eye(d)
    for zeta, eta in ((pp.zeta.t0.mat, pp.eta.t0.mat), (pp.zeta.t1.mat, pp.eta.t1.mat)):
        inner = np.s_[: d - 2, : d - 2]
        lhs = eta.conj().T @ eta
        rhs = (s2 * eye + zeta) @ (eye - zeta)
        assert np.max(np.abs((lhs - rhs)[inner])) < 1e-12
        lhs2 = eta @ eta.conj().T
        rhs2 = (s2 * eye + qi2 * zeta) @ (eye - qi2 * zeta)
        assert np.max(np.abs(lhs2 - rhs2)) < 1e-12
        comm = zeta @ eta - PARAMS.q**2 * (eta @ zeta)
        assert np.max(np.abs(comm)) < 1e-12


def test_polar_part_of_eta_is_shiftlike():
    pp = podles_generators(replace(PARAMS, d=24))
    polar = polar_part(pp.eta)
    assert polar.sym0 == LaurentPoly({1: 1})
    assert polar.sym1 == LaurentPoly({1: 1})
    assert trusted_diff_norm(polar.t0, shift(24), guard=1) < 1e-10
    assert trusted_diff_norm(polar.t1, shift(24), guard=1) < 1e-10


def test_polar_part_rejects_fat_symbols():
    one = identity(8)
    sym = LaurentPoly({0: 1, 1: 1})
    fp = FibrePair(one, one, sym, 0)
    with pytest.raises(UnsupportedSymbol):
        polar_part(fp)
    # a QGlueError, so a check that meets it is a fail record, not a crash
    record = run_check("podles", "polar part", "w = polar part of 1 + U", lambda: polar_part(fp))
    assert (record.status, record.value) == (
        FAIL,
        "polar phase implemented for monomial symbols only",
    )


def test_polar_part_rejects_a_coefficient_that_is_not_a_positive_term():
    # the phase of -s U is -U, which the symbol ring cannot read off as U^n;
    # neither can it for (1 + s) U, a coefficient of two terms
    t = weighted_shift(-0.5 * np.ones(7))
    for coef in (-S, 1 + S):
        sym = LaurentPoly({1: coef})
        with pytest.raises(UnsupportedSymbol, match="not a positive monomial times U"):
            polar_part(FibrePair(t, t, sym, 0))
    # 2 q s U has the phase U
    sym = LaurentPoly({1: 2 * Q * S})
    assert polar_part(FibrePair(-t, -t, sym, 0)).sym0 == LaurentPoly({1: 1})


# -- numeric line bundles -----------------------------------------------------------


@pytest.mark.parametrize("N", [1, -1, 2])
def test_en_numeric_idempotent_and_symbol_trace(N):
    d = 24
    pairs = en_numeric(N, replace(PARAMS, d=d))
    n1 = abs(N) + 1
    assert len(pairs) == n1
    square = fp_matmul(pairs, pairs)
    for i in range(n1):
        for j in range(n1):
            assert trusted_diff_norm(square[i][j].t0, pairs[i][j].t0, guard=1) < 1e-10
            assert trusted_diff_norm(square[i][j].t1, pairs[i][j].t1, guard=1) < 1e-10
            assert pairs[i][j].twist == 0
    trace_sym = pairs[0][0].sym0
    for k in range(1, n1):
        trace_sym = trace_sym + pairs[k][k].sym0
    assert trace_sym == LaurentPoly({0: 1})


@pytest.mark.parametrize("N", [-2, 0, 3])
def test_en_numeric_squares_through_its_factors(N):
    # X (Y^T X) Y^T is the entrywise square reassociated: exact symbols, the
    # same bandwidths and the same legs up to rounding
    pairs = en_numeric(N, replace(PARAMS, d=24))
    assert [len(pairs.column), len(pairs.row)] == [abs(N) + 1] * 2
    factored, entrywise = pairs.square(), fp_matmul(pairs, pairs)
    for row_f, row_e in zip(factored, entrywise, strict=True):
        for f, e in zip(row_f, row_e, strict=True):
            assert (f.sym0, f.sym1, f.twist) == (e.sym0, e.sym1, e.twist)
            for leg_f, leg_e in ((f.t0, e.t0), (f.t1, e.t1)):
                assert leg_f.bandwidth == leg_e.bandwidth
                assert (leg_f - leg_e).max_abs() <= 1e-14


def _rule_elements(pres):
    for rule in pres.rules:
        element = NCPoly(pres, {rule.redex: 1})
        for word, coef in rule.rhs:
            element = element - NCPoly(pres, {word: coef})
        yield element


def test_leg_symbols_vanish_on_every_s3_rule():
    # so the leg symbols of an element and of its normal form agree
    pres = sphere3_presentation()
    elements = list(_rule_elements(pres))
    assert len(elements) == len(pres.rules) > 0
    for element in elements:
        assert not element.is_zero()
        for leg in (0, 1):
            assert s3_leg_symbol(element, leg).is_zero()


def _build_from(monkeypatch, assignment):
    """Make en_numeric build E_N from the given binomial base assignment."""
    monkeypatch.setattr(qglue.glue, "build_en", lambda N: build_en(N, assignment))


@pytest.mark.parametrize("assignment", ["corrected", "literal"])
def test_en_numeric_symbols_are_those_of_the_normal_forms(assignment, monkeypatch):
    _build_from(monkeypatch, assignment)
    for N in range(-3, 4):
        _, _, E = build_en(N, assignment)
        pairs = en_numeric(N, replace(PARAMS, d=8))
        n1 = abs(N) + 1
        for i in range(n1):
            for j in range(n1):
                entry = normal_form(E[i, j])
                assert pairs[i][j].sym0 == s3_leg_symbol(entry, 0)
                assert pairs[i][j].sym1 == s3_leg_symbol(entry, 1)


@pytest.mark.parametrize("assignment", ["corrected", "literal"])
def test_en_numeric_entries_evaluate_the_unreduced_entries(assignment, monkeypatch):
    # the product of the fibre pairs iota maps X[i] and Y[j] to reassociates
    # E[i, j] = X[i] Y[j]: on each leg
    # it is the evaluation of the unreduced entry, up to rounding relative to
    # the matrix's largest entry (some entries vanish on one leg, where both
    # routes leave only rounding residue)
    _build_from(monkeypatch, assignment)
    d = 24
    for N in range(-3, 4):
        _, _, E = build_en(N, assignment)
        pairs = en_numeric(N, replace(PARAMS, d=d))
        n1 = E.shape[0]
        assert [len(row) for row in pairs] == [n1] * n1
        for leg in (0, 1):
            ops = s3_leg_assignment(leg, replace(PARAMS, d=d))
            want = [[evaluate(E[i, j], ops, PARAMS) for j in range(n1)] for i in range(n1)]
            scale = max(op.max_abs() for row in want for op in row)
            for i in range(n1):
                for j in range(n1):
                    got = (pairs[i][j].t0, pairs[i][j].t1)[leg]
                    assert (got - want[i][j]).max_abs() <= 1e-12 * scale, (N, i, j, leg)


def test_en_numeric_literal_defect_shows_up(monkeypatch):
    # the literal base assignment leaves an order (q - p) failure of E^2 = E
    _build_from(monkeypatch, "literal")
    pairs = en_numeric(1, replace(PARAMS, d=24))
    square = fp_matmul(pairs, pairs)
    defect = max(
        trusted_diff_norm(square[i][j].t1, pairs[i][j].t1, guard=1)
        for i in range(2)
        for j in range(2)
    )
    assert defect > 1e-3
