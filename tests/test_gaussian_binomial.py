"""Deformed binomials against an independent product-formula oracle."""

import math
from fractions import Fraction

import pytest

from qglue import CoefPoly, ONE, P, Q, gaussian_binomial
from references import exact_value


def product_formula(n: int, k: int, x: Fraction) -> Fraction:
    """binom(n, k)_x = prod_{i=1..k} (1 - x^{n-k+i}) / (1 - x^i).

    Independent of the Pascal recurrence used by the implementation."""
    num = Fraction(1)
    den = Fraction(1)
    for i in range(1, k + 1):
        num *= 1 - x ** (n - k + i)
        den *= 1 - x**i
    return num / den


# rational points with all cyclotomic denominators nonzero
XS = [Fraction(2), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3), Fraction(-1, 4)]


@pytest.mark.parametrize("var", [Q, P], ids=["q", "p"])
def test_matches_product_formula(var):
    for n in range(9):
        for k in range(n + 1):
            poly = gaussian_binomial(n, k, var)
            for x in XS:
                point = (x, Fraction(0)) if var == Q else (Fraction(0), x)
                assert exact_value(poly, *point) == product_formula(n, k, x), (n, k, x)


def test_frozen_value_4_2():
    # [4 2] = 1 + x + 2 x^2 + x^3 + x^4
    expected = CoefPoly(
        {
            (0, 0, 0): Fraction(1),
            (1, 0, 0): Fraction(1),
            (2, 0, 0): Fraction(2),
            (3, 0, 0): Fraction(1),
            (4, 0, 0): Fraction(1),
        }
    )
    assert gaussian_binomial(4, 2, Q) == expected


def test_symmetry():
    for n in range(9):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, Q) == gaussian_binomial(n, n - k, Q)


def test_coefficient_sum_is_binomial():
    one = Fraction(1)
    for n in range(9):
        for k in range(n + 1):
            total = exact_value(gaussian_binomial(n, k, Q), one, one, one)
            assert total == math.comb(n, k)


def test_edges():
    assert gaussian_binomial(5, 0, Q) == ONE
    assert gaussian_binomial(5, 5, P) == ONE
    assert gaussian_binomial(5, -1, Q) == CoefPoly()
    assert gaussian_binomial(5, 6, P) == CoefPoly()
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 0, Q)


def test_pascal_recurrence_holds():
    for x in (Q, P):
        for n in range(1, 8):
            for k in range(n + 1):
                lhs = gaussian_binomial(n, k, x)
                rhs = gaussian_binomial(n - 1, k - 1, x) + x**k * gaussian_binomial(n - 1, k, x)
                assert lhs == rhs
