"""Circle algebra: Laurent arithmetic, Hopf structure, the gluing map W."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglue import (
    BiLaurent,
    CoefPoly,
    LaurentPoly,
    Q,
    hopf_antipode,
    hopf_coproduct,
    hopf_counit,
    pointwise_product,
    w_inverse,
    w_map,
)

coefs = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def laurents(draw, span=10):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        k = draw(st.integers(min_value=-span, max_value=span))
        terms[k] = terms.get(k, Fraction(0)) + draw(coefs)
    return LaurentPoly({k: c for k, c in terms.items() if c})


@st.composite
def bilaurents(draw, span=6):
    n = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n):
        key = (
            draw(st.integers(min_value=-span, max_value=span)),
            draw(st.integers(min_value=-span, max_value=span)),
        )
        terms[key] = terms.get(key, Fraction(0)) + draw(coefs)
    return BiLaurent({k: c for k, c in terms.items() if c})


# -- arithmetic ---------------------------------------------------------------


def test_exact_arithmetic():
    f = LaurentPoly({1: Fraction(1, 2), -2: 1})
    g = LaurentPoly({2: 1})
    assert f * g == LaurentPoly({3: Fraction(1, 2), 0: 1})
    assert f + f == LaurentPoly({1: 1, -2: 2})
    assert (f - f).is_zero()
    assert f.shift(2) == f * g


def test_star_reverses_and_conjugates():
    # the coefficient ring is real, so conjugation fixes every coefficient
    f = LaurentPoly({1: 1 + 2 * Q, -3: Fraction(1, 2)})
    fs = f.star()
    assert fs.terms[-1] == 1 + 2 * Q
    assert fs.terms[3] == Fraction(1, 2)
    g = LaurentPoly({2: Q})
    assert g.star() == LaurentPoly({-2: Q})


def test_coercion_rules():
    assert LaurentPoly({0: Q}).terms == {0: Q}
    assert LaurentPoly({0: Fraction(1, 2)}).terms == {0: CoefPoly.scalar(Fraction(1, 2))}
    assert LaurentPoly({0: 3}).terms == {0: CoefPoly.scalar(3)}
    assert LaurentPoly({0: 0}).is_zero()
    assert LaurentPoly({0: 2}) * 0 == LaurentPoly({})
    assert not hasattr(LaurentPoly({0: 1}), "mode")
    assert not hasattr(BiLaurent({(0, 0): 1}), "mode")


@pytest.mark.parametrize(
    "coef", [0.5, 1.0, 1 + 2j, 0j], ids=["float", "integral-float", "complex", "zero-complex"]
)
def test_float_or_complex_coefficients_raise(coef):
    with pytest.raises(TypeError):
        LaurentPoly({0: coef})
    with pytest.raises(TypeError):
        BiLaurent({(0, 0): coef})
    with pytest.raises(TypeError):
        LaurentPoly({1: 1}) * coef
    with pytest.raises(TypeError):
        coef * BiLaurent({(1, 0): 1})


# -- Hopf axioms ---------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(laurents())
def test_counit_axiom(f):
    cf = hopf_coproduct(f)
    assert cf.collapse(0) == f
    assert cf.collapse(1) == f


@settings(max_examples=100, deadline=None)
@given(laurents())
def test_coassociativity(f):
    # both iterates land on the full diagonal {(n, n, n)}, so equality
    # reduces to the coproduct support lying on the diagonal
    cf = hopf_coproduct(f)
    left = {(m, m, n): c for (m, n), c in cf.terms.items()}
    right = {(m, n, n): c for (m, n), c in cf.terms.items()}
    assert left == right


@settings(max_examples=100, deadline=None)
@given(laurents())
def test_antipode_axiom(f):
    cf = hopf_coproduct(f)
    eps = hopf_counit(f)
    unit = LaurentPoly({0: eps})
    left = pointwise_product(cf.map_keys(lambda k: (-k[0], k[1])))
    right = pointwise_product(cf.map_keys(lambda k: (k[0], -k[1])))
    assert left == unit
    assert right == unit


@settings(max_examples=60, deadline=None)
@given(laurents(), laurents())
def test_hopf_maps_are_morphisms(f, g):
    assert hopf_coproduct(f * g) == hopf_coproduct(f) * hopf_coproduct(g)
    assert hopf_counit(f * g) == hopf_counit(f) * hopf_counit(g)
    assert hopf_antipode(f * g) == hopf_antipode(f) * hopf_antipode(g)
    assert hopf_antipode(hopf_antipode(f)) == f


def test_antipode_frozen():
    f = LaurentPoly({3: 1, -1: Fraction(1, 2)})
    assert hopf_antipode(f) == LaurentPoly({-3: 1, 1: Fraction(1, 2)})
    assert hopf_counit(f) == Fraction(3, 2)
    assert hopf_coproduct(f).terms == {(3, 3): Fraction(1), (-1, -1): Fraction(1, 2)}


# -- the gluing map W -----------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(bilaurents())
def test_w_bijective(F):
    assert w_inverse(w_map(F)) == F
    assert w_map(w_inverse(F)) == F


def test_w_action_frozen():
    F = BiLaurent({(2, 3): 1, (-1, 4): Fraction(1, 2)})
    assert w_map(F).terms == {(5, 3): Fraction(1), (3, 4): Fraction(1, 2)}
    assert w_inverse(F).terms == {(-1, 3): Fraction(1), (-5, 4): Fraction(1, 2)}


def test_w_bijectivity_bulk():
    rng = random.Random("w-bulk")
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            key = (rng.randint(-8, 8), rng.randint(-8, 8))
            terms[key] = terms.get(key, 0) + Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
        F = BiLaurent({k: c for k, c in terms.items() if c})
        assert w_inverse(w_map(F)) == F


def test_collapse_and_pointwise():
    F = BiLaurent({(1, 2): 1, (0, 2): Fraction(2)})
    assert F.collapse(0) == LaurentPoly({2: 3})
    assert F.collapse(1) == LaurentPoly({1: 1, 0: 2})
    assert pointwise_product(F) == LaurentPoly({3: 1, 2: 2})
