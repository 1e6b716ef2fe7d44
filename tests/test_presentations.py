"""Shipped presentations and the grading/identity helpers."""

import operator

import pytest

from qglue import (
    GradingError,
    NCPoly,
    ONE,
    Presentation,
    PresentationError,
    Q,
    S,
    all_presentations,
    degree,
    disc_presentation,
    normal_form,
    podles_zeta_eta,
    su2_presentation,
    verify_identity,
)


def test_registry_names_pinned():
    assert sorted(all_presentations()) == ["circle", "disc-q", "s2pq", "s3pq", "suq2"]


@pytest.mark.parametrize("name", sorted(all_presentations()))
def test_presets_validate(name):
    all_presentations()[name].validate()


def test_validate_rejects_inhomogeneous_rule():
    pres = Presentation(
        name="inhom",
        letters=("u", "u*"),
        weights=(1, -1),
        star={"u": "u*"},
        rules=[("u* u", {"u": ONE})],
    )
    with pytest.raises(GradingError):
        pres.validate()


def test_validate_rejects_star_open_rules():
    # b a -> a b alone is not star-closed: its adjoint a* b* - b* a*
    # has no rule to reduce it
    pres = Presentation(
        name="open",
        letters=("a", "a*", "b", "b*"),
        weights=(1, -1, 1, -1),
        star={"a": "a*", "b": "b*"},
        rules=[("b a", {"a b": ONE})],
    )
    with pytest.raises(PresentationError):
        pres.validate()


def test_measure_is_graded_lexicographic():
    pres = su2_presentation()
    ad = pres.word("a d")
    bc = pres.word("b c")
    assert pres.measure(ad) > pres.measure(bc)  # order weight dominates
    assert pres.measure(pres.word("b c")) > pres.measure(pres.word("1"))


def test_degree_and_components():
    pres = su2_presentation()
    a, b = pres.gen("a"), pres.gen("b")
    assert degree(a) == 1
    assert degree(b) == -1
    zeta, eta = podles_zeta_eta()
    assert degree(zeta) == 0
    assert degree(eta) == -2
    mixed = a + b
    with pytest.raises(GradingError):
        degree(mixed)


def test_verify_identity_witness():
    pres = su2_presentation()
    a, d = pres.gen("a"), pres.gen("d")
    holds, witness = verify_identity(a * d, d * a)
    assert not holds
    assert witness == normal_form((Q - Q**-1) * pres.gen("b") * pres.gen("c"))


def test_zeta_eta_construction_is_pinned():
    zeta, eta = podles_zeta_eta()
    pres = zeta.pres
    a, d, b, c = (pres.gen(x) for x in ("a", "d", "b", "c"))
    assert zeta == pres.one() - (a - (Q * S) * c) * (d + S * b)
    assert eta == (d + (Q**-1 * S) * b) * (b - S * d)


def test_presentation_identity_guard():
    p1 = all_presentations()["disc-q"]
    p2 = su2_presentation()
    with pytest.raises((PresentationError, ValueError)):
        p1.gen("z") + p2.gen("a")
    for combine in (operator.sub, operator.mul):
        with pytest.raises(ValueError):
            combine(p1.gen("z"), p2.gen("a"))
    assert p1.one() != p2.one()


def test_element_builder_and_word_roundtrip():
    pres = all_presentations()["s3pq"]
    x = pres.element({"a a* b": Q, "1": ONE})
    words = set(x.terms)
    assert pres.word("a a* b") in words and () in words
    assert NCPoly.scalar(pres, 1) == pres.one()


def test_rule_text_renders_the_empty_word_as_nothing():
    (rule,) = disc_presentation("q").rules
    assert disc_presentation("q").rule_text(rule) == "z* z -> (q) z z* + (1 - 1 q)"
    (rule,) = disc_presentation("q2").rules
    assert disc_presentation("q2").rule_text(rule) == "x* x -> (q^2) x x* + (1 - 1 q^2)"
    zero_rule = all_presentations()["s2pq"].rules[0]
    assert all_presentations()["s2pq"].rule_text(zero_rule) == "A B -> 0"
