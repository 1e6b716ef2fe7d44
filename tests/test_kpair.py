"""Index pairings: the two Fredholm modules against projections and bundles."""

from dataclasses import replace

import numpy as np
import pytest

from qglue import (
    CHI_RESIDUAL_TOL,
    EN_RESIDUAL_TOL,
    DimensionMismatch,
    FibrePair,
    FredholmModule,
    ORIENTATION_SIGN,
    ParamSet,
    SymbolMismatch,
    TruncOp,
    chi,
    en_numeric,
    expected_pairing,
    pair,
    psi_inverse,
    winding_interpretation,
)
from qglue.kpair import PairingTable
from qglue.opnum import zero

PARAMS = ParamSet()


def zero_pair(d):
    z = zero(d)
    return FibrePair(z, z, 0, 0)


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
    assert res.meta["size"] == 2


@pytest.mark.parametrize("N", [1, -2])
def test_en_pairings(N):
    pairs = en_numeric(N, PARAMS)
    res = pair(FredholmModule("pr"), pairs)
    assert res.rounded == ORIENTATION_SIGN * N
    assert res.residual < 1e-6
    res_pi = pair(FredholmModule("pi", params=PARAMS), pairs)
    assert res_pi.rounded == 1
    assert res_pi.residual < 1e-6


def test_pair_rejects_sloppy_idempotents():
    half = TruncOp(0.5 * np.eye(16))
    with pytest.raises(ValueError, match="defect"):
        pair(FredholmModule("pr"), FibrePair(half, half, 1, 1, 0))


def test_pair_rejects_non_idempotent_symbols():
    one = TruncOp(np.eye(16))
    doubled = FibrePair(one, one, 2, 2, 0)
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
    rows = PairingTable(PARAMS).index_rows(5)
    assert len(rows) == 36
    assert all(row.status == "pass" for row in rows)
    chi_rows = [row for row in rows if row.representative == "chi"]
    en_rows = [row for row in rows if row.representative == "en"]
    assert len(chi_rows) == 22 and len(en_rows) == 14
    for row in chi_rows:
        assert row.result.exact
        assert row.result.residual <= CHI_RESIDUAL_TOL
    for row in en_rows:
        assert row.result.residual <= EN_RESIDUAL_TOL
        assert row.expected == expected_pairing(row.module, "en", row.N)
    ns = sorted({row.N for row in en_rows})
    assert ns == list(range(-3, 4))


def test_chi_rows_at_a_smaller_window():
    table = PairingTable(replace(PARAMS, d=32, w=6))
    rows = [row for N in range(-2, 3) for row in table.rows("chi", N)]
    assert len(rows) == 10
    assert {row.representative for row in rows} == {"chi"}
    assert all(row.status == "pass" and row.result.exact for row in rows)
