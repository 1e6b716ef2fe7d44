"""Text format: parsing, dumping, and the round trip through both."""

import random
from fractions import Fraction

import pytest

from qglue import (
    CoefPoly,
    NCPoly,
    ONE,
    P,
    PresentationError,
    Q,
    S,
    all_presentations,
    disc_presentation,
    dump_presentation,
    load_presentation,
    normal_form,
)
from qglue.textformat import parse_poly_text

DISC_TEXT = """
# a one-letter quantum disc
presentation disc-demo
generator z  weight 1
generator z* weight -1 star z
rule z* z -> q z z* + (1 - q)
"""


def test_load_basic():
    pres = load_presentation(DISC_TEXT)
    assert pres.name == "disc-demo"
    assert pres.letters == ("z", "z*")
    assert pres.weights == (1, -1)
    z = pres.gen("z")
    nf = normal_form(z.star() * z)
    assert nf == pres.element({"z z*": Q, "1": ONE - Q})


def test_load_pbw_and_scale():
    text = """
presentation fancy
generator a weight 1 order 2 star d scale (-1 q)
generator d weight -1 order 2
generator b weight -1 star c
generator c weight 1
rule b a -> (q^-1) a b
pbwrule a a -> (1/2) + (3/2 q^2 s) b c
"""
    pres = load_presentation(text, check_order=False)
    assert pres.order_weights == (2, 2, 0, 0)
    i, scale = pres.star_table[0]
    assert pres.letters[i] == "d"
    assert scale == -Q
    rule = pres.rules[-1]
    assert rule.pbw
    assert dict(rule.rhs)[()] == CoefPoly.scalar(Fraction(1, 2))


@pytest.mark.parametrize("name", sorted(all_presentations()))
def test_round_trip(name):
    pres = all_presentations()[name]
    back = load_presentation(dump_presentation(pres))
    assert back.name == pres.name
    assert back.letters == pres.letters
    assert back.weights == pres.weights
    assert back.order_weights == pres.order_weights
    assert back.star_table == pres.star_table
    assert len(back.rules) == len(pres.rules)
    for r1, r2 in zip(back.rules, pres.rules):
        assert r1.redex == r2.redex
        assert r1.pbw == r2.pbw
        assert dict(r1.rhs) == dict(r2.rhs)
    rng = random.Random(f"roundtrip:{name}")
    for _ in range(10):
        w = tuple(rng.randrange(len(pres.letters)) for _ in range(rng.randint(1, 5)))
        assert normal_form(NCPoly(pres, {w: ONE})).terms == normal_form(
            NCPoly(back, {w: ONE})
        ).terms


def test_poly_parser_exact_values():
    letters = {"z", "z*"}
    terms = parse_poly_text("1/2 q^-2 s^3 z z* - 2 + (1 - q) z", letters)
    zz = ("z", "z*")
    assert terms[zz] == CoefPoly({(-2, 0, 3): Fraction(1, 2)})
    assert terms[()] == CoefPoly.scalar(-2)
    assert terms[("z",)] == ONE - Q
    assert parse_poly_text("0", letters) == {}


def test_poly_parser_reads_the_ring_generators():
    terms = parse_poly_text("q^-2 p s z", {"z"})
    assert terms == {("z",): Q.inverse_monomial() ** 2 * P * S}


def test_poly_parser_merges_repeated_words():
    terms = parse_poly_text("q z + z - z", {"z"})
    assert terms == {("z",): Q}


@pytest.mark.parametrize(
    "bad",
    [
        "rule z -> @",  # untokenizable
        "presentation p\ngenerator z weight 1 star z\nrule z z -> (z)",  # letter in parens
        "presentation p\ngenerator z weight 1 star z\nrule z z -> q +",  # dangling sign
        "presentation p\ngenerator z weight 1 star z\nrule w -> q",  # unknown letter
        "presentation p\ngenerator z weight 1 star z\nrule z z",  # missing arrow
        "presentation p\ngenerator z weight 1 star z\nfrobnicate z",  # unknown directive
        "generator z weight 1 star z",  # missing presentation line
        "presentation p\ngenerator q weight 1 star q",  # collides with coefficient q
        "presentation p\ngenerator z weight 1",  # no star information
    ],
)
def test_malformed_inputs_rejected(bad):
    with pytest.raises(PresentationError):
        load_presentation(bad, check_order=False)


def test_letters_take_no_exponents():
    with pytest.raises(PresentationError):
        parse_poly_text("z^2", {"z"})


def test_trailing_tokens_rejected():
    with pytest.raises(PresentationError):
        parse_poly_text("q )", {"z"})


@pytest.mark.parametrize("name", sorted(all_presentations()))
def test_dump_writes_each_rule_as_its_rule_text(name):
    pres = all_presentations()[name]
    lines = dump_presentation(pres).splitlines()
    rule_lines = [line for line in lines if line.split()[0] in ("rule", "pbwrule")]
    assert rule_lines == [
        ("pbwrule" if rule.pbw else "rule") + " " + pres.rule_text(rule)
        for rule in pres.rules
    ]


def test_rule_text_renders_the_empty_word_as_nothing():
    (rule,) = disc_presentation("q").rules
    assert disc_presentation("q").rule_text(rule) == "z* z -> (q) z z* + (1 - 1 q)"
    (rule,) = disc_presentation("q2").rules
    assert disc_presentation("q2").rule_text(rule) == "x* x -> (q^2) x x* + (1 - 1 q^2)"
    zero_rule = all_presentations()["s2pq"].rules[0]
    assert all_presentations()["s2pq"].rule_text(zero_rule) == "A B -> 0"
