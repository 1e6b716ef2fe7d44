"""Rewriting engine: frozen normal forms, homomorphism properties, guards."""

import random
from fractions import Fraction

import numpy as np
import pytest

from qglue import (
    CoefPoly,
    NCPoly,
    ONE,
    P,
    ParamSet,
    Presentation,
    PresentationError,
    Q,
    RewriteLimitExceeded,
    all_presentations,
    disc_assignment,
    disc_presentation,
    evaluate,
    normal_form,
    sphere3_presentation,
    su2_presentation,
    verify_identity,
)

QI = Q.inverse_monomial()


def random_word(pres, rng, max_len=6):
    return tuple(rng.randrange(len(pres.letters)) for _ in range(rng.randint(1, max_len)))


def random_element(pres, rng, n_words=2, max_len=5):
    terms = {}
    for _ in range(n_words):
        coef = CoefPoly.scalar(Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)))
        w = random_word(pres, rng, max_len)
        terms[w] = terms.get(w, CoefPoly()) + coef
    return NCPoly(pres, {w: c for w, c in terms.items() if c})


# -- frozen normal forms -------------------------------------------------------


def test_disc_basic_rule():
    pres = disc_presentation("q")
    z = pres.gen("z")
    nf = normal_form(z.star() * z)
    assert nf == pres.element({"z z*": Q, "1": ONE - Q})


def test_disc_nested_word():
    # z z* z* z reduces in two stages to q^2 z^2 z*^2 + (1 - q^2) z z*
    pres = disc_presentation("q")
    z = pres.gen("z")
    nf = normal_form(z * z.star() * z.star() * z)
    expected = pres.element({"z z z* z*": Q * Q, "z z*": ONE - Q * Q})
    assert nf == expected


def test_su2_sorting_rules():
    pres = su2_presentation()
    a, d, b, c = (pres.gen(x) for x in ("a", "d", "b", "c"))
    assert normal_form(a * d) == pres.element({"1": ONE, "b c": Q})
    assert normal_form(d * a) == pres.element({"1": ONE, "b c": QI})
    assert normal_form(b * a) == pres.element({"a b": QI})
    # already-normal monomials stay put
    w = a * a * b * c
    assert normal_form(w) == w


def test_s3_pbw_descent():
    # the joint defect rule must fire through an a* cofactor:
    # a a*^2 b b* = a* b b* + a a* a* - a*
    pres = sphere3_presentation()
    a, b = pres.gen("a"), pres.gen("b")
    word = a * a.star() * a.star() * b * b.star()
    expected = pres.element({"a* b b*": ONE, "a a* a*": ONE, "a*": -ONE})
    assert normal_form(word) == expected


def test_s3_defect_relation_idempotent_products():
    # (1 - a a*)(1 - b b*) = 0 and both factors are normal
    pres = sphere3_presentation()
    a, b = pres.gen("a"), pres.gen("b")
    A = pres.one() - a * a.star()
    B = pres.one() - b * b.star()
    holds, witness = verify_identity(A * B)
    assert holds, str(witness)
    holds, _ = verify_identity(B * A)
    assert holds


# -- homomorphism properties ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(all_presentations()))
def test_nf_is_idempotent_and_multiplicative(name):
    pres = all_presentations()[name]
    rng = random.Random(f"nf:{name}")
    for _ in range(15):
        x = random_element(pres, rng)
        y = random_element(pres, rng)
        nf_xy = normal_form(x * y)
        assert normal_form(normal_form(x) * normal_form(y)) == nf_xy
        assert normal_form(nf_xy) == nf_xy


@pytest.mark.parametrize("name", sorted(all_presentations()))
def test_nf_commutes_with_star(name):
    pres = all_presentations()[name]
    rng = random.Random(f"star:{name}")
    for _ in range(15):
        x = random_element(pres, rng)
        assert normal_form(x.star()) == normal_form(normal_form(x).star())


@pytest.mark.parametrize("name", sorted(all_presentations()))
def test_nf_preserves_grading(name):
    pres = all_presentations()[name]
    rng = random.Random(f"deg:{name}")
    for _ in range(15):
        w = random_word(pres, rng)
        deg = pres.word_degree(w)
        nf = normal_form(NCPoly(pres, {w: ONE}))
        for word in nf.terms():
            assert pres.word_degree(word) == deg


def test_nf_agrees_with_faithful_numeric_evaluation():
    # evaluation never rewrites, so it cross-checks the rewrite path
    pres = disc_presentation("q")
    params = ParamSet(d=48)
    ops = disc_assignment(pres, params)
    rng = random.Random("disc-numeric")
    for _ in range(10):
        x = random_element(pres, rng, n_words=3, max_len=6)
        before = evaluate(x, ops, params)
        after = evaluate(normal_form(x), ops, params)
        diff = before - after
        lo, hi = diff.trusted_range()
        assert np.max(np.abs(diff.mat[lo:hi, lo:hi])) < 1e-12


def test_randomized_reduction_matches_deterministic():
    rng = random.Random("confluence-unit")
    for pres in all_presentations().values():
        for _ in range(25):
            x = NCPoly(pres, {random_word(pres, rng, 7): ONE})
            assert normal_form(x) == normal_form(x, rng=rng)


# -- guards ----------------------------------------------------------------------


def _loop_presentation():
    return Presentation(
        name="loop",
        letters=("u", "v"),
        weights=(1, -1),
        star={"u": "v"},
        rules=[
            ("u v", {"v u": ONE}),
            ("v u", {"u v": ONE}),
        ],
        check_order=False,
    )


def test_cyclic_rules_detected():
    pres = _loop_presentation()
    x = pres.gen("u") * pres.gen("v")
    with pytest.raises(RewriteLimitExceeded):
        normal_form(x)


def test_budget_exhaustion():
    pres = disc_presentation("q")
    z = pres.gen("z")
    deep = (z.star() * z) ** 5
    with pytest.raises(RewriteLimitExceeded):
        normal_form(deep, max_steps=3)
    assert isinstance(RewriteLimitExceeded("x"), RuntimeError)


@pytest.mark.parametrize("warm_first", [False, True], ids=["cold-first", "warm-first"])
def test_budget_outcome_does_not_depend_on_history(warm_first):
    # z*^3 z^3 takes more than 5 rewrite steps from scratch; a budgeted call
    # must run out whether or not an unbudgeted call has reduced it before
    pres = disc_presentation("q")
    z = pres.gen("z")
    x = z.star() ** 3 * z**3

    def budgeted():
        with pytest.raises(RewriteLimitExceeded):
            normal_form(x, max_steps=5)

    calls = [budgeted, lambda: normal_form(x)]
    for call in reversed(calls) if warm_first else calls:
        call()
    assert normal_form(x, max_steps=100) == normal_form(x)


def test_budget_applies_to_randomized_strategy():
    pres = _loop_presentation()
    x = pres.gen("u") * pres.gen("v")
    with pytest.raises(RewriteLimitExceeded):
        normal_form(x, rng=random.Random(0), max_steps=50)


def test_order_check_rejects_increasing_rule():
    with pytest.raises(PresentationError):
        Presentation(
            name="bad",
            letters=("z", "z*"),
            weights=(1, -1),
            star={"z": "z*"},
            rules=[("z z*", {"z* z": ONE})],
        )


def test_pbw_redex_must_be_sorted():
    with pytest.raises(PresentationError):
        Presentation(
            name="bad-pbw",
            letters=("a", "a*"),
            weights=(1, -1),
            star={"a": "a*"},
            rules=[("a* a", {"a a*": Q, "1": ONE - Q}, "pbw")],
        )


def test_unknown_letter_rejected():
    pres = disc_presentation("q")
    with pytest.raises(PresentationError):
        pres.word("z w")
    assert pres.word("1") == ()


def test_star_table_involution_enforced():
    with pytest.raises(PresentationError):
        Presentation(
            name="bad-star",
            letters=("a", "b", "c"),
            weights=(1, -1, 0),
            star={"a": "b", "b": "c", "c": "a"},
            rules=[],
        )
