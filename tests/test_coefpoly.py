"""Exact coefficient ring: Laurent in q, p; polynomial in s."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglue import ONE, P, Q, S, ZERO, CoefPoly
from references import exact_value

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
    return exact_value(x, *pt)


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


def test_evaluate_float_matches_exact():
    x = ONE - Q * Q * P.inverse_monomial() + 3 * S * S
    exact = exact_value(x, Fraction(3, 5), Fraction(1, 4), Fraction(1, 2))
    assert abs(x.evaluate(0.6, 0.25, 0.5) - float(exact)) < 1e-12


def test_is_monomial():
    assert (2 * Q * S).is_monomial()
    assert not (Q + P).is_monomial()


def test_str_readable():
    assert str(ONE - Q) == "1 - q"
    assert str(Q - P) == "-p + q"
    assert str(-Q) == "-q"
    assert str(CoefPoly.scalar(-1)) == "-1"
    assert str(ZERO) == "0"
    assert "q^-2" in str(Q**-2)


# the coefficients the printer treats apart (+-1) and their neighbours
PRINT_COEFS = [1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3)]
# a coefficient of +-1 printed in front of a monomial or a key: "1 q",
# "-1 p", "(1) a", "(-1) U" (an exponent, as in "p^-1 s", is none)
UNIT_IN_FRONT = re.compile(r"(?:^|[ (])-?1 [A-Za-z]|\(-?1\) ")


def printed_value(text: str, q, p, s) -> Fraction:
    """The value of a CoefPoly's text at (q, p, s), read back as arithmetic:
    juxtaposition is a product and ^ a power."""
    expr = re.sub(r"(?<=[\w)]) (?=[\w(])", "*", text.replace("^", "**"))
    expr = re.sub(r"\d+", lambda m: f"Fraction({m.group()})", expr)
    return eval(expr, {"Fraction": Fraction, "q": q, "p": p, "s": s})


@st.composite
def signed_terms(draw):
    """A few distinct monomials with coefficients from PRINT_COEFS."""
    monomials = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2))
    expos = draw(st.lists(monomials, max_size=4, unique=True))
    return [(expo, draw(st.sampled_from(PRINT_COEFS))) for expo in expos]


@settings(max_examples=150, deadline=None)
@given(signed_terms(), st.one_of(st.none(), signed_terms()), st.randoms(use_true_random=False))
def test_str_prints_a_unit_coefficient_as_its_sign(terms, other, rng):
    # other None subtracts the element from itself, so zero is drawn too
    x = CoefPoly(dict(terms)) - CoefPoly(dict(terms if other is None else other))
    text = str(x)
    assert not UNIT_IN_FRONT.search(text), text
    assert (text == "0") == x.is_zero()
    for pt in POINTS:
        assert printed_value(text, *pt) == ev(x, pt), text
    shuffled = list(terms)
    rng.shuffle(shuffled)
    assert str(CoefPoly(dict(shuffled))) == str(CoefPoly(dict(terms)))


# -- stored form: int while integral, Fraction once a denominator appears ------


def coefficient_types(x: CoefPoly) -> list:
    return [type(c) for _, c in x.items()]


def test_integral_coefficients_are_ints():
    x = CoefPoly({(1, 0, 0): Fraction(4, 2), (0, 0, 0): 3, (0, 1, 1): Fraction(-1)})
    assert coefficient_types(x) == [int, int, int]
    assert coefficient_types(CoefPoly.scalar(Fraction(6, 3))) == [int]
    inv = (-Q).inverse_monomial()
    assert inv == -1 * CoefPoly.monomial(e_q=-1)
    assert coefficient_types(inv) == [int]
    assert coefficient_types(Q**-3) == [int]
    half = CoefPoly.scalar(Fraction(1, 2))
    assert coefficient_types(half + half) == [int]
    assert coefficient_types(half * 4 * Q) == [int]
    assert coefficient_types((2 * Q) ** -1 * 2) == [int]


def test_non_integral_coefficients_are_fractions():
    third = Fraction(1, 3) * CoefPoly.monomial(e_p=1)
    assert coefficient_types(third * 2 + Q) == [Fraction, int]
    assert dict((third * 2).items()) == {(0, 1, 0): Fraction(2, 3)}
    assert coefficient_types((3 * Q).inverse_monomial()) == [Fraction]
    assert coefficient_types(CoefPoly.scalar(Fraction(3, 2)) - 1) == [Fraction]


def test_integral_scalar_forms_are_equal_and_hash_equally():
    a, b = CoefPoly.scalar(2), CoefPoly.scalar(Fraction(4, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert a == 2 and a == Fraction(2)
    assert Fraction(-3, 1) * CoefPoly.monomial(e_s=2) == -3 * S * S


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


# -- one-term fast paths against the general loops ------------------------------


def stored(coef):
    return int(coef) if coef.denominator == 1 else coef


def general_product(x: CoefPoly, y: CoefPoly) -> dict:
    """The convolution loop over every pair of terms, x's terms outer,
    accumulated in that order and then brought to stored form."""
    terms = {}
    for (aq, ap, as_), ac in x._terms.items():
        for (bq, bp, bs), bc in y._terms.items():
            key = (aq + bq, ap + bp, as_ + bs)
            acc = terms.get(key)
            acc = ac * bc if acc is None else acc + ac * bc
            if acc:
                terms[key] = acc
            else:
                del terms[key]
    return {key: stored(coef) for key, coef in terms.items()}


def general_sum(x: CoefPoly, y: CoefPoly) -> dict:
    terms = dict(x._terms)
    for key, coef in y._terms.items():
        acc = terms.get(key, 0) + coef
        if acc:
            terms[key] = acc
        else:
            del terms[key]
    return {key: stored(coef) for key, coef in terms.items()}


def stored_terms(terms: dict) -> list:
    """The terms in stored order, each coefficient with its type."""
    return [(key, coef, type(coef)) for key, coef in terms.items()]


exponents = st.integers(min_value=-3, max_value=3)
one_terms = st.one_of(
    st.just(ONE),
    st.builds(
        lambda eq, ep, es, coef: CoefPoly({(eq, ep, es): coef}),
        exponents,
        exponents,
        st.integers(min_value=0, max_value=3),
        st.one_of(st.sampled_from([1, -1]), mixed_coefs),
    ),
)


@settings(max_examples=150, deadline=None)
@given(mixed_coefpolys(), one_terms, st.booleans())
def test_one_term_products_match_the_general_loop(x, m, m_first):
    a, b = (m, x) if m_first else (x, m)
    product = a * b
    assert stored_terms(product._terms) == stored_terms(general_product(a, b))
    if m == ONE:
        # the other operand itself, no copy (either one when both are units)
        assert product is x or (product is m and x == ONE)


@settings(max_examples=150, deadline=None)
@given(mixed_coefpolys(), mixed_coefpolys())
def test_sums_match_the_general_loop(x, y):
    assert stored_terms((x + y)._terms) == stored_terms(general_sum(x, y))
    assert stored_terms((x * y)._terms) == stored_terms(general_product(x, y))


def test_a_sum_that_comes_out_integral_stores_an_int():
    x = CoefPoly({(1, 0, 0): Fraction(1, 3), (0, -1, 0): Fraction(5, 2)})
    y = CoefPoly({(0, -1, 0): Fraction(-1, 2), (2, 0, 0): 1})
    total = x + y
    assert stored_terms(total._terms) == [
        ((1, 0, 0), Fraction(1, 3), Fraction),
        ((0, -1, 0), 2, int),
        ((2, 0, 0), 1, int),
    ]


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
