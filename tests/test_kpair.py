"""Index pairings: the two Fredholm modules against projections and bundles."""

from dataclasses import replace

import numpy as np
import pytest

from qglue import (
    CHI_RESIDUAL_TOL,
    CertificationError,
    EN_RESIDUAL_TOL,
    DimensionMismatch,
    FibrePair,
    FredholmModule,
    LaurentPoly,
    ORIENTATION_SIGN,
    OuterProduct,
    ParamSet,
    SymbolMismatch,
    chi,
    en_numeric,
    expected_pairing,
    pair,
    psi_inverse,
    winding_interpretation,
)
from qglue.idempotents import en_degrees
from qglue.kpair import TAIL_TOL, PairingResult, PairingTable, _checked_idempotent, _trace_pairing
from qglue.opnum import diag_op, zero
from references import dense_op

PARAMS = ParamSet()


def zero_pair(d):
    z = zero(d)
    return FibrePair(z, z, LaurentPoly({}), 0)


def test_module_validation():
    with pytest.raises(ValueError):
        FredholmModule("px")
    with pytest.raises(ValueError, match="params"):
        FredholmModule("pi")  # needs params to evaluate symbols
    FredholmModule("pi", params=replace(PARAMS, w=4))
    FredholmModule("pr")


def test_pi_difference_needs_twist_zero():
    module = FredholmModule("pi", params=replace(PARAMS, w=4))
    twisted = psi_inverse(chi(0, 8), 1)
    with pytest.raises(SymbolMismatch):
        module.difference(twisted)
    with pytest.raises(SymbolMismatch):
        pair(module, twisted)


@pytest.mark.parametrize("N", range(-5, 6))
def test_chi_pairings_are_exact(N):
    d, w = 32, 8
    cN = chi(N, d)
    pr = pair(FredholmModule("pr"), cN)
    assert pr.rounded == N
    assert pr.residual == 0.0
    assert pr.exact
    pi = pair(FredholmModule("pi", params=replace(PARAMS, w=w)), cN)
    assert pi.rounded == 1
    assert pi.residual == 0.0
    assert pi.exact


def test_unit_and_zero_pair_values():
    pr = FredholmModule("pr")
    pi = FredholmModule("pi", params=replace(PARAMS, w=6))
    assert pair(pr, chi(0, 16)).rounded == 0
    assert pair(pi, chi(0, 16)).rounded == 1
    assert pair(pr, zero_pair(16)).rounded == 0
    assert pair(pi, zero_pair(16)).rounded == 0


def test_direct_sum_adds_pairings():
    d = 24
    block = [
        [chi(1, d), zero_pair(d)],
        [zero_pair(d), chi(1, d)],
    ]
    res = pair(FredholmModule("pr"), block)
    assert res.rounded == 2 and res.exact
    res_pi = pair(FredholmModule("pi", params=replace(PARAMS, w=6)), block)
    assert res_pi.rounded == 2
    assert res.meta == {"idem_defect": 0.0, "tail_max": 0.0}


@pytest.mark.parametrize("N", [1, -2])
def test_en_pairings(N):
    pairs = en_numeric(N, PARAMS)
    res = pair(FredholmModule("pr"), pairs)
    assert res.rounded == ORIENTATION_SIGN * N
    assert res.residual < 1e-6
    res_pi = pair(FredholmModule("pi", params=PARAMS), pairs)
    assert res_pi.rounded == 1
    assert res_pi.residual < 1e-6


def test_pair_reads_an_outer_products_defect_off_its_factors():
    # Y[0]'s legs doubled, its symbol kept: the symbol matrix is still an
    # idempotent, so the trusted-block defect of X (Y^T X) Y^T decides
    pairs = en_numeric(1, PARAMS)
    y = pairs.row[0]
    legs_doubled = FibrePair(2 * y.t0, 2 * y.t1, y.sym0, y.twist)
    sloppy = OuterProduct(pairs.column, [legs_doubled, *pairs.row[1:]])
    with pytest.raises(CertificationError, match="defect"):
        pair(FredholmModule("pr"), sloppy)


def test_pair_rejects_sloppy_idempotents():
    half = dense_op(0.5 * np.eye(16))
    one_sym = LaurentPoly({0: 1})
    with pytest.raises(ValueError, match="defect"):
        pair(FredholmModule("pr"), FibrePair(half, half, one_sym, 0))


def test_pair_rejects_non_idempotent_symbols():
    one = dense_op(np.eye(16))
    doubled = FibrePair(one, one, LaurentPoly({0: 2}), 0)
    with pytest.raises(SymbolMismatch):
        pair(FredholmModule("pr"), doubled)


def test_pair_matrix_shape_guards():
    u = chi(0, 8)
    with pytest.raises(DimensionMismatch):
        pair(FredholmModule("pr"), [[u, u]])
    with pytest.raises(TypeError):
        pair(FredholmModule("pr"), [[object()]])


def test_expected_pairing_table():
    assert expected_pairing("pi", "chi", 7) == 1
    assert expected_pairing("pi", "en", -3) == 1
    assert expected_pairing("pr", "chi", 4) == 4
    assert expected_pairing("pr", "en", 4) == ORIENTATION_SIGN * 4
    with pytest.raises(ValueError):
        expected_pairing("pr", "mystery", 1)
    assert winding_interpretation("chi", "pi", 2) == "rank = 1"
    assert "winding = 2" in winding_interpretation("chi", "pr", 2)
    assert "orientation" in winding_interpretation("en", "pr", 2)


def test_index_rows_full_battery():
    # the rows the index suite reports at nmax = 5: chi(N) for |N| <= 5,
    # E_N for the degrees en_degrees(5) keeps
    table = PairingTable(PARAMS)
    chi_rows = [row for N in range(-5, 6) for row in table.rows("chi", N)]
    en_rows = {N: table.rows("en", N) for N in en_degrees(5)}
    assert len(chi_rows) == 22 and list(en_rows) == list(range(-3, 4))
    for row in chi_rows:
        assert row.status == "pass" and row.result.exact
        assert row.result.residual <= CHI_RESIDUAL_TOL
    for N, rows in en_rows.items():
        assert [row.module for row in rows] == ["pr", "pi"]
        for row in rows:
            assert row.status == "pass"
            assert row.result.residual <= EN_RESIDUAL_TOL
            assert row.expected == expected_pairing(row.module, "en", N)


def test_chi_rows_at_a_smaller_window():
    table = PairingTable(replace(PARAMS, d=32, w=6))
    rows = [row for N in range(-2, 3) for row in table.rows("chi", N)]
    assert [row.module for row in rows] == ["pr", "pi"] * 5
    assert all(row.status == "pass" and row.result.exact for row in rows)


# -- the trace-tail certificate ---------------------------------------------------


def _tailed(d, tail):
    """A twist-0 idempotent whose pr difference has one entry, tail, in the
    untrusted corner: the defect is read on the guarded block, so it passes."""
    corner = np.zeros(d)
    corner[-1] = tail
    return FibrePair(zero(d), diag_op(corner), LaurentPoly({}), 0)


def test_a_tail_over_tail_tol_fails_the_pairing_and_keeps_its_numbers():
    d = 16
    P = [[_tailed(d, 1e-8), _tailed(d, 0.0)], [_tailed(d, 0.0), _tailed(d, 1e-6)]]
    result = _trace_pairing(FredholmModule("pr"), *_checked_idempotent(P))
    # the first diagonal trace over TAIL_TOL names the failure, not the largest
    want = "operator is not finite-rank within the window: tail 1.000e-08 exceeds 1.000e-09"
    assert result.failure == want
    assert result.meta["tail_max"] == 1e-6
    assert (result.value, result.rounded, result.exact) == (1e-8 + 1e-6, 0, False)
    assert result.residual == pytest.approx(1e-8 + 1e-6)
    with pytest.raises(CertificationError) as raised:
        pair(FredholmModule("pr"), P)
    assert str(raised.value) == want


def test_a_tail_at_tail_tol_is_certified():
    result = pair(FredholmModule("pr"), _tailed(16, TAIL_TOL))
    assert result.failure is None and not result.exact


def test_a_failed_pairing_has_no_numbers():
    result = PairingResult.failed(DimensionMismatch("window too small"))
    assert (result.value, result.rounded, result.residual) == (None, None, None)
    assert (result.failure, result.exact) == ("window too small", False)


def test_a_row_whose_pairing_has_a_failure_fails():
    # at d = 32 the first E_-1 pr trace has a tail of 3.7e-7: the pairing
    # rounds to its expected value well within EN_RESIDUAL_TOL, and its row
    # fails
    table = PairingTable(replace(PARAMS, d=32))
    [pr_row, pi_row] = table.rows("en", -1)
    assert pr_row.result.failure == (
        "operator is not finite-rank within the window: tail 3.685e-07 exceeds 1.000e-09"
    )
    assert pr_row.result.rounded == pr_row.expected
    assert pr_row.result.residual <= EN_RESIDUAL_TOL
    assert pr_row.status == "fail"
    assert pi_row.status == "pass" and pi_row.result.exact
    assert all(row.status == "pass" for row in table.rows("chi", 2))


def test_a_table_entry_is_kept_per_window():
    table = PairingTable(PARAMS)
    assert table.entry("chi", 3, replace(PARAMS)) is table.entry("chi", 3)
    small = table.entry("chi", 3, replace(PARAMS, d=32))
    assert small is not table.entry("chi", 3)
    narrow = table.entry("chi", 2, replace(PARAMS, w=2)).results["pi"]
    wide = table.entry("chi", 2, replace(PARAMS, w=12)).results["pi"]
    assert narrow.value == wide.value == 1.0
    # at radius 1 the guard leaves no block: that module alone fails
    tiny = table.entry("chi", 2, replace(PARAMS, w=1)).results
    assert tiny["pi"].failure == "no trusted block: d=3 at guard 2"
    assert tiny["pi"].value is None and tiny["pr"].value == 2.0
