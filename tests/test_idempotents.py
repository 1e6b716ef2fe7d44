"""Symbolic line-bundle idempotents: exactness of Y^T X = 1 and E^2 = E."""

import pytest

from qglue import (
    P,
    Q,
    build_en,
    degree,
    gaussian_binomial,
    normal_form,
    sphere3_presentation,
    verify_identity,
)
from qglue.idempotents import EN_CAP
from qglue.ncpoly import SymMatrix


def _matrix_identical(a, b):
    # entrywise equality in the quotient, not of the raw free-algebra words
    if a.shape != b.shape:
        return False
    rows, cols = a.shape
    return all(
        verify_identity(a[i, j], b[i, j])[0] for i in range(rows) for j in range(cols)
    )


@pytest.mark.parametrize("N", range(-3, 4))
def test_dual_pairing_is_one(N):
    X, Y, E = build_en(N)
    n = abs(N)
    assert X.shape == (n + 1, 1)
    assert Y.shape == (n + 1, 1)
    assert E.shape == (n + 1, n + 1)
    pairing = normal_form((Y.transpose() @ X)[0, 0])
    assert pairing == X[0, 0].pres.one()


@pytest.mark.parametrize("N", [-8, -6, -5, -4, 4, 5, 6, 8])
def test_dual_pairing_is_one_past_the_reported_degrees(N):
    # no report reaches these degrees while EN_CAP = 3; the reduction of
    # Y^T X grows with |N| and terminates with no bound on its work
    assert abs(N) > EN_CAP
    X, Y, _ = build_en(N)
    assert normal_form((Y.transpose() @ X)[0, 0]) == X[0, 0].pres.one()


@pytest.mark.parametrize("N", range(-3, 4))
def test_idempotent_square(N):
    X, Y, E = build_en(N)
    assert _matrix_identical(E @ E, E)


def _square_verdicts(M):
    # M M against M in the quotient, entry by entry
    sq = M @ M
    rows, cols = M.shape
    return [[verify_identity(sq[i, j], M[i, j])[0] for j in range(cols)] for i in range(rows)]


def _normal_form_verdicts(E):
    # the en-symbolic suite's route: F = NF(E) entrywise, then F F against F
    F = SymMatrix(E.pres, [[normal_form(e) for e in row] for row in E.entries])
    return _square_verdicts(F)


@pytest.mark.parametrize("N", range(-2, 3))
def test_normal_form_route_agrees_with_the_raw_square(N):
    _, _, E = build_en(N)
    verdicts = _normal_form_verdicts(E)
    assert verdicts == _square_verdicts(E)
    assert all(all(row) for row in verdicts)


@pytest.mark.parametrize("N", [-2, -1, 1, 2])
def test_normal_form_route_agrees_on_the_literal_assignment(N):
    # the literal weights break E^2 = E in every entry, on both routes
    _, _, E = build_en(N, assignment="literal")
    verdicts = _normal_form_verdicts(E)
    assert verdicts == _square_verdicts(E)
    assert not any(any(row) for row in verdicts)


@pytest.mark.parametrize("N", range(-3, 4))
def test_entries_sit_in_degree_zero(N):
    X, Y, E = build_en(N)
    rows, cols = E.shape
    for i in range(rows):
        for j in range(cols):
            assert degree(E[i, j]) == 0


def test_literal_assignment_witness_at_degree_one():
    pres = sphere3_presentation()
    b, bstar = pres.gen("b"), pres.gen("b*")
    one = pres.one()
    X, Y, E = build_en(1, assignment="literal")
    defect = normal_form((Y.transpose() @ X)[0, 0] - one)
    assert defect == normal_form((Q - P) * (one - b * bstar))
    assert defect.terms


def test_literal_assignment_negative_degree_witness():
    pres = sphere3_presentation()
    a, astar = pres.gen("a"), pres.gen("a*")
    one = pres.one()
    X, Y, E = build_en(-1, assignment="literal")
    defect = normal_form((Y.transpose() @ X)[0, 0] - one)
    assert defect == normal_form((P - Q) * (one - a * astar))


def test_size_cap():
    # EN_CAP bounds the reported degrees, not what build_en builds
    for N in (EN_CAP + 1, -EN_CAP - 1):
        X, Y, E = build_en(N)
        assert X.shape == Y.shape == (EN_CAP + 2, 1)
        assert E.shape == (EN_CAP + 2, EN_CAP + 2)
    X, Y, E = build_en(EN_CAP)
    assert E.shape == (EN_CAP + 1, EN_CAP + 1)
    with pytest.raises(ValueError):
        build_en(1, assignment="swapped")


def test_degree_zero_bundle_is_the_unit():
    X, Y, E = build_en(0)
    one = X[0, 0].pres.one()
    assert X[0, 0] == one and Y[0, 0] == one and E[0, 0] == one


def test_binomial_weights_in_y():
    # the k-th entry of Y for N = 3 carries binom(3, k)_p p^(3-k)
    X, Y, E = build_en(3)
    lead = Y[1, 0]
    coefs = set(lead.terms.values())
    expected = gaussian_binomial(3, 1, P) * P**2
    assert expected in coefs or -expected in coefs


def test_pairing_state_sum_identity():
    # the scalar identity behind the pairing: sum over k of the weighted
    # ladder words collapses through the sphere relation, leaving 1
    X, Y, _ = build_en(2)
    partial = None
    for k in range(3):
        term = Y[k, 0] * X[k, 0]
        partial = term if partial is None else partial + term
    assert normal_form(partial) == X[0, 0].pres.one()
