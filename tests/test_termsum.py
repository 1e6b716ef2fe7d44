"""The shared sparse term algebra (coefficients.TermSum) under its three
users: NCPoly over words, LaurentPoly over powers of U and BiLaurent over
pairs of powers on the torus."""

import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglue import ONE, BiLaurent, CoefPoly, LaurentPoly, NCPoly, Q, all_presentations
from qglue.coefficients import TermSum
from test_coefpoly import PRINT_COEFS, UNIT_IN_FRONT

PRES = all_presentations()["s3pq"]

# name -> (constructor from a {key: coefficient} dict, key strategy, unit
# key, a key other than the unit)
KINDS = {
    "NCPoly": (
        lambda terms: NCPoly(PRES, terms),
        st.lists(st.integers(0, len(PRES.letters) - 1), max_size=3).map(tuple),
        (),
        (0,),
    ),
    "LaurentPoly": (LaurentPoly, st.integers(-4, 4), 0, 1),
    "BiLaurent": (BiLaurent, st.tuples(st.integers(-3, 3), st.integers(-3, 3)), (0, 0), (1, 0)),
}

coefs = st.builds(
    lambda c, k: c * Q**k,
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.integers(-1, 1),
)


def elements(kind):
    make, keys, _, _ = KINDS[kind]
    return st.dictionaries(keys, coefs, max_size=3).map(make)


def assert_same(a, b):
    assert a == b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_laws(kind, data):
    make, _, unit, _ = KINDS[kind]
    x, y, z = (data.draw(elements(kind)) for _ in range(3))
    n = data.draw(st.integers(0, 4))
    assert_same(x * (y + z), x * y + x * z)
    assert_same((x + y) * z, x * z + y * z)
    assert_same((x * y) * z, x * (y * z))
    assert_same((x + y) - y, x)
    assert_same(-x + x, make({}))
    assert_same(x**n, reduce(operator.mul, [x] * n, make({unit: 1})))
    assert_same(make(x.terms), x)


@pytest.mark.parametrize("kind", KINDS)
def test_scalars_sit_at_the_unit_key(kind):
    make, _, unit, key = KINDS[kind]
    x = make({key: 1})
    assert x + 2 == make({key: 1, unit: 2})
    assert 2 + x == x + 2
    assert x - Fraction(1, 2) == make({key: 1, unit: Fraction(-1, 2)})
    assert 3 - x == make({key: -1, unit: 3})
    assert x * Q == Q * x == make({key: Q})
    assert x * 0 == make({}) == 0
    assert make({unit: 2}) == 2 and make({unit: Q}) == Q
    assert x**0 == 1
    assert x != 1


@pytest.mark.parametrize(
    "scalar", [0.5, 1.0, 1 + 2j, 0j], ids=["float", "integral-float", "complex", "zero-complex"]
)
@pytest.mark.parametrize("kind", KINDS)
def test_float_or_complex_scalars_raise(kind, scalar):
    make, _, _, key = KINDS[kind]
    x = make({key: 1})
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, scalar)
        with pytest.raises(TypeError):
            op(scalar, x)
    with pytest.raises(TypeError):
        make({key: scalar})


# name -> (the class whose __mul__ powering calls, the base)
POWER_BASES = {
    "CoefPoly": (CoefPoly, ONE + 2 * Q),
    "NCPoly": (TermSum, PRES.gen("a") + 2 * PRES.gen("b")),
}


@pytest.mark.parametrize("name", POWER_BASES)
def test_power_takes_one_product_per_squaring_and_per_set_bit(monkeypatch, name):
    owner, x = POWER_BASES[name]
    product = owner.__mul__
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return product(a, b)

    # results keep binary powering's association: the squares of x for the
    # set bits of n, lowest first
    x2 = product(x, x)
    x4 = product(x2, x2)
    want = [1, x, x2, product(x, x2), x4, product(x, x4)]
    monkeypatch.setattr(owner, "__mul__", counting)
    for n, (count, expected) in enumerate(zip([0, 0, 1, 2, 2, 3], want)):
        calls.clear()
        got = x**n
        assert len(calls) == count, n
        assert got == expected, n
        if isinstance(expected, TermSum):
            assert list(got.terms.items()) == list(expected.terms.items()), n


# -- text: one printer for every term sum ----------------------------------------

print_coefs = st.lists(
    st.tuples(st.sampled_from(PRINT_COEFS), st.integers(-2, 2)), min_size=1, max_size=2
).map(lambda terms: sum((c * Q**k for c, k in terms), CoefPoly())).filter(bool)


@pytest.mark.parametrize("kind", ["NCPoly", "LaurentPoly"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_str_prints_a_unit_coefficient_as_its_sign(kind, data):
    make, keys, _, _ = KINDS[kind]
    terms = data.draw(st.lists(st.tuples(keys, print_coefs), max_size=4, unique_by=lambda t: t[0]))
    x = make(dict(terms))
    text = str(x)
    assert not UNIT_IN_FRONT.search(text), text
    assert (text == "0") == x.is_zero()
    assert str(x - x) == "0"
    shuffled = data.draw(st.permutations(terms))
    assert str(make(dict(shuffled))) == text
    assert repr(x).endswith(f"({text})")


def test_str_of_each_term_sum():
    a, a_star = PRES.gen("a"), PRES.gen("a*")
    assert str(a_star * a - (1 - Q) - Q * a * a_star) == "(-1 + q) + (-q) a a* + a* a"
    assert str(2 - a) == "2 - a"
    assert str(NCPoly(PRES, {(): Q})) == "q"
    assert str(LaurentPoly({-2: Q, 0: 1, 1: -1, 3: 1 - Q})) == "(q) U^-2 + 1 - U + (1 - q) U^3"
    assert repr(BiLaurent({(0, 0): 2, (1, 0): -1, (2, -1): Q})) == (
        "BiLaurent(2 - U^1 x U^0 + (q) U^2 x U^-1)"
    )
    assert repr(LaurentPoly({})) == "LaurentPoly(0)"
