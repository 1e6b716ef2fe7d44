"""Exact coefficient ring: Laurent in q, p; polynomial in s."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglue import ONE, P, Q, S, ZERO, CoefPoly

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda f: f != 0)


@st.composite
def coefpolys(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        key = (
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
        )
        terms[key] = terms.get(key, Fraction(0)) + draw(fractions)
    return CoefPoly({k: v for k, v in terms.items() if v})


# three exact rational points; evaluation there is an independent ring
# homomorphism, so it separates any two small polynomials we build
POINTS = [
    (Fraction(2), Fraction(3), Fraction(5)),
    (Fraction(1, 2), Fraction(-3, 4), Fraction(2, 7)),
    (Fraction(-5, 3), Fraction(7, 2), Fraction(0)),
]


def ev(x: CoefPoly, pt) -> Fraction:
    return x.evaluate_exact(*pt)


@settings(max_examples=80, deadline=None)
@given(coefpolys(), coefpolys(), coefpolys())
def test_ring_axioms_through_evaluation(x, y, z):
    for pt in POINTS:
        assert ev(x + y, pt) == ev(x, pt) + ev(y, pt)
        assert ev(x - y, pt) == ev(x, pt) - ev(y, pt)
        assert ev(x * y, pt) == ev(x, pt) * ev(y, pt)
        assert ev((x + y) * z, pt) == ev(x * z, pt) + ev(y * z, pt)
    assert (x + y) + z == x + (y + z)
    assert x * (y * z) == (x * y) * z
    assert x * ONE == x
    assert x + ZERO == x
    assert x - x == ZERO


@settings(max_examples=60, deadline=None)
@given(coefpolys())
def test_hash_eq_consistency(x):
    assert x == CoefPoly(dict(x.items()))
    assert hash(x) == hash(CoefPoly(dict(x.items())))


def test_constructors_and_constants():
    assert CoefPoly.scalar(3) == CoefPoly({(0, 0, 0): Fraction(3)})
    assert CoefPoly.scalar(Fraction(1, 2)) * 2 == ONE
    assert Q == CoefPoly.monomial(e_q=1)
    assert P == CoefPoly.monomial(e_p=1)
    assert S == CoefPoly.monomial(e_s=1)
    assert CoefPoly.scalar(0) == ZERO
    assert not ZERO
    assert ONE


def test_zero_terms_are_dropped():
    x = CoefPoly({(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(0)})
    assert x == Q
    assert (Q - Q) == ZERO
    assert dict((Q - Q).items()) == {}


def test_negative_s_exponent_rejected():
    with pytest.raises(ValueError):
        CoefPoly({(0, 0, -1): Fraction(1)})


def test_known_products():
    assert (ONE - Q) * (ONE + Q) == ONE - Q * Q
    assert (Q + P) * (Q + P) == Q * Q + 2 * Q * P + P * P
    assert (ONE - Q) * (ONE - P) == ONE - Q - P + Q * P


def test_powers():
    assert Q**0 == ONE
    assert Q**3 == Q * Q * Q
    assert Q**-2 == Q.inverse_monomial() * Q.inverse_monomial()
    two_q2 = 2 * Q * Q
    assert two_q2**-1 == CoefPoly({(-2, 0, 0): Fraction(1, 2)})
    with pytest.raises(ValueError):
        (ONE + Q) ** -1


def test_inverse_monomial():
    m = CoefPoly({(2, -1, 0): Fraction(3, 2)})
    assert m * m.inverse_monomial() == ONE
    with pytest.raises(ValueError):
        (ONE + Q).inverse_monomial()
    with pytest.raises(ValueError):
        ZERO.inverse_monomial()
    # s never acquires negative exponents
    with pytest.raises(ValueError):
        S.inverse_monomial()


def test_conjugate_is_identity():
    x = Q * P.inverse_monomial() + 2 * S
    assert x.conjugate() == x


def test_evaluate_float_matches_exact():
    x = ONE - Q * Q * P.inverse_monomial() + 3 * S * S
    exact = x.evaluate_exact(Fraction(3, 5), Fraction(1, 4), Fraction(1, 2))
    assert abs(x.evaluate(0.6, 0.25, 0.5) - float(exact)) < 1e-12


def test_as_fraction_and_is_monomial():
    assert CoefPoly.scalar(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        Q.as_fraction()
    assert (2 * Q * S).is_monomial()
    assert not (Q + P).is_monomial()


def test_str_readable():
    assert str(ONE - Q) == "1 - 1 q"
    assert str(ZERO) == "0"
    assert "q^-2" in str(Q**-2)


# -- stored form: int while integral, Fraction once a denominator appears ------


def coefficient_types(x: CoefPoly) -> list:
    return [type(c) for _, c in x.items()]


def test_integral_coefficients_are_ints():
    x = CoefPoly({(1, 0, 0): Fraction(4, 2), (0, 0, 0): 3, (0, 1, 1): Fraction(-1)})
    assert coefficient_types(x) == [int, int, int]
    assert coefficient_types(CoefPoly.scalar(Fraction(6, 3))) == [int]
    inv = (-Q).inverse_monomial()
    assert inv == CoefPoly.monomial(e_q=-1, coef=-1)
    assert coefficient_types(inv) == [int]
    assert coefficient_types(Q**-3) == [int]
    half = CoefPoly.scalar(Fraction(1, 2))
    assert coefficient_types(half + half) == [int]
    assert coefficient_types(half * 4 * Q) == [int]
    assert coefficient_types((2 * Q) ** -1 * 2) == [int]


def test_non_integral_coefficients_are_fractions():
    third = CoefPoly.monomial(e_p=1, coef=Fraction(1, 3))
    assert coefficient_types(third * 2 + Q) == [Fraction, int]
    assert dict((third * 2).items()) == {(0, 1, 0): Fraction(2, 3)}
    assert coefficient_types((3 * Q).inverse_monomial()) == [Fraction]
    assert coefficient_types(CoefPoly.scalar(Fraction(3, 2)) - 1) == [Fraction]


def test_as_fraction_is_always_a_fraction():
    for x, value in [
        (ZERO, 0),
        (ONE, 1),
        (CoefPoly.scalar(-7), -7),
        (CoefPoly.scalar(Fraction(8, 4)), 2),
        (CoefPoly.scalar(Fraction(5, 3)), Fraction(5, 3)),
    ]:
        result = x.as_fraction()
        assert type(result) is Fraction
        assert result == value


def test_integral_scalar_forms_are_equal_and_hash_equally():
    a, b = CoefPoly.scalar(2), CoefPoly.scalar(Fraction(4, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert a == 2 and a == Fraction(2)
    assert CoefPoly.monomial(e_s=2, coef=Fraction(-3, 1)) == -3 * S * S


def test_mixed_sums_that_cancel_drop_the_key():
    x = CoefPoly({(1, 0, 0): 2, (0, 0, 1): Fraction(1, 2)})
    y = CoefPoly({(1, 0, 0): Fraction(-4, 2), (0, 0, 1): Fraction(1, 2)})
    assert dict((x + y).items()) == {(0, 0, 1): 1}
    assert coefficient_types(x + y) == [int]
    assert dict((x - CoefPoly({(0, 0, 1): Fraction(1, 2)})).items()) == {(1, 0, 0): 2}
    assert (2 * Q + Fraction(-2) * Q).is_zero()
    # (1 + q/2)(1 - q/2): the cross terms q/2 - q/2 cancel inside one product
    half_q = Q * Fraction(1, 2)
    product = (ONE + half_q) * (ONE - half_q)
    assert dict(product.items()) == {(0, 0, 0): 1, (2, 0, 0): Fraction(-1, 4)}
    assert coefficient_types(product) == [int, Fraction]


mixed_coefs = st.one_of(st.integers(min_value=-5, max_value=5), fractions).filter(
    lambda c: c != 0
)
rational_points = st.tuples(fractions, fractions, st.fractions(max_denominator=6))


@st.composite
def mixed_coefpolys(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        key = (
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=-3, max_value=3)),
            draw(st.integers(min_value=0, max_value=3)),
        )
        terms[key] = terms.get(key, 0) + draw(mixed_coefs)
    return CoefPoly(terms)


def assert_stored_form(x: CoefPoly):
    for _, c in x.items():
        assert c != 0
        assert type(c) is (int if c.denominator == 1 else Fraction)


@settings(max_examples=80, deadline=None)
@given(
    mixed_coefpolys(), mixed_coefpolys(), st.integers(min_value=0, max_value=3), rational_points
)
def test_mixed_arithmetic_matches_exact_evaluation(x, y, n, pt):
    assert ev(x + y, pt) == ev(x, pt) + ev(y, pt)
    assert ev(x * y, pt) == ev(x, pt) * ev(y, pt)
    assert ev(x**n, pt) == ev(x, pt) ** n
    for z in (x, y, x + y, x - y, x * y, x**n):
        assert_stored_form(z)


def test_exponents_must_be_integers():
    # a float exponent used to be truncated: (1.5, 0, 0) read as q
    with pytest.raises(TypeError):
        CoefPoly({(1.5, 0, 0): 1})
    with pytest.raises(TypeError):
        CoefPoly({(0, 0, 0.7): 2})
    with pytest.raises(TypeError):
        CoefPoly.monomial(e_p=2.0)
    # any integer type is accepted and stored as an int
    import numpy as np

    x = CoefPoly({(np.int64(2), np.int32(-1), 0): 3})
    assert x == 3 * Q * Q * P**-1
    assert all(type(e) is int for expo, _ in x.items() for e in expo)
