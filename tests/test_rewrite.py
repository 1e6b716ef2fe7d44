"""Rewriting engine: frozen normal forms, homomorphism properties, guards."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qglue import (
    CoefPoly,
    NCPoly,
    ONE,
    ParamSet,
    Presentation,
    PresentationError,
    Q,
    RewriteLimitExceeded,
    all_presentations,
    build_en,
    disc_assignment,
    disc_presentation,
    evaluate,
    normal_form,
    sphere3_presentation,
    su2_presentation,
    verify_identity,
)
from qglue import idempotents, presentations
from qglue.presentations import DEFAULT_MAX_STEPS, TABLE_SIZE, _apply_subword
from reference_reducer import reference_normal_form, reference_random_reduce

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
        for word in nf.terms:
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


# -- the reducer against the recursive reference and its table -------------------


def _reduced_afresh(x):
    """x's normal form from a reduction that runs: the presentation's table of
    remembered reductions is emptied first."""
    x.pres._nf_cache.clear()
    return normal_form(x)


@pytest.mark.parametrize("name", sorted(all_presentations()))
def test_nf_matches_recursive_reference(name):
    pres = all_presentations()[name]
    rng = random.Random(f"ref:{name}")
    for _ in range(20):
        x = random_element(pres, rng, n_words=3, max_len=7)
        expected = reference_normal_form(x)
        assert _reduced_afresh(x) == expected
        assert normal_form(x) == expected  # now from the table
        assert normal_form(x, max_steps=DEFAULT_MAX_STEPS) == expected


@pytest.mark.parametrize("N", [-2, -1, 0, 1, 2])
def test_nf_matches_recursive_reference_on_idempotents(N):
    _, _, E = build_en(N)
    for matrix in (E, E @ E):
        for row in matrix.entries:
            for entry in row:
                expected = reference_normal_form(entry)
                assert _reduced_afresh(entry) == expected
                assert normal_form(entry, max_steps=DEFAULT_MAX_STEPS) == expected


def test_one_table_drops_the_oldest_entry_and_charges_every_hit(monkeypatch):
    pres = sphere3_presentation.__wrapped__()
    table = pres._nf_cache
    a, b = pres.gen("a"), pres.gen("b")
    y = a * a.star() * a.star() * b * b.star()  # one pbw step, two cofactor steps

    # a call that runs out keeps no whole-call entry
    with pytest.raises(RewriteLimitExceeded):
        normal_form(y, max_steps=2)
    assert not table

    # the pbw step goes in first, then the whole call that took it
    normal_form(y)
    pbw_key, whole_key = table
    assert pbw_key == (pres.word("a a* a* b b*"), pres._pbw_rules[0])
    assert whole_key == frozenset(y.terms.items())
    assert table[pbw_key][0] == 2 and table[whole_key][0] == 3

    # a budgeted call after an unbudgeted one is a hit, charged the stored steps
    reduce_terms = presentations._reduce_terms
    reduced = []

    def counting(pres, terms, budget, use_pbw):
        reduced.append(terms)
        return reduce_terms(pres, terms, budget, use_pbw)

    monkeypatch.setattr(presentations, "_reduce_terms", counting)
    assert normal_form(y, max_steps=3) == normal_form(y)
    with pytest.raises(RewriteLimitExceeded):
        normal_form(y, max_steps=2)
    assert reduced == []

    # at TABLE_SIZE the oldest entry goes, whichever kind it is
    inputs = [a * k for k in range(1, TABLE_SIZE + 1)]
    for x in inputs[: TABLE_SIZE - 2]:
        normal_form(x)
    assert len(table) == TABLE_SIZE
    normal_form(inputs[-2])
    assert pbw_key not in table and whole_key in table
    normal_form(inputs[-1])
    assert whole_key not in table
    assert len(table) == TABLE_SIZE


def test_cold_idempotency_sweep_keeps_no_per_word_normal_forms(monkeypatch):
    # the raw E^2 = E sweep at N = 2 (the route of acceptance criterion 3), on
    # a presentation no other call has reduced on; normal forms cached per
    # intermediate word took about 6.4 MB here, the largest-word-first
    # reducer about 0.5 MB
    fresh = sphere3_presentation.__wrapped__()
    monkeypatch.setattr(idempotents, "sphere3_presentation", lambda: fresh)
    _, _, E = build_en(2)
    assert E.pres is fresh
    sq = E @ E
    tracemalloc.start()
    try:
        for i in range(E.shape[0]):
            for j in range(E.shape[1]):
                assert verify_identity(sq[i, j], E[i, j])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _subword_ambiguities(pres):
    """Every overlap and inclusion ambiguity between two subword redexes, as
    (word, one-step result, other one-step result)."""
    rules = [rule for rule in pres.rules if not rule.pbw]
    for first, second in itertools.product(rules, repeat=2):
        r1, r2 = first.redex, second.redex
        # overlap: a proper suffix of r1 is a proper prefix of r2
        for k in range(1, min(len(r1), len(r2))):
            if r1[-k:] == r2[:k]:
                word = r1 + r2[k:]
                yield (
                    word,
                    _apply_subword(word, first, 0),
                    _apply_subword(word, second, len(r1) - k),
                )
        # inclusion: r2 inside r1, other than r1 itself by the same rule
        if first is not second:
            for pos in range(len(r1) - len(r2) + 1):
                if r1[pos : pos + len(r2)] == r2:
                    yield r1, _apply_subword(r1, first, 0), _apply_subword(r1, second, pos)


@pytest.mark.parametrize(
    "name, count", [("s2pq", 12), ("suq2", 8), ("s3pq", 4), ("circle", 2), ("disc-q", 0)]
)
def test_subword_critical_pairs_resolve(name, count):
    """Every ambiguity between two subword rules resolves: its two one-step
    results have one normal form. The pbw rule of s3pq is not covered here;
    the confluence suite still samples it with random reduction orders."""
    pres = all_presentations()[name]
    ambiguities = list(_subword_ambiguities(pres))
    assert len(ambiguities) == count
    for word, left, right in ambiguities:
        assert normal_form(NCPoly(pres, dict(left))) == normal_form(
            NCPoly(pres, dict(right))
        ), pres._word_str(word)


def test_randomized_reduction_matches_deterministic():
    rng = random.Random("confluence-unit")
    for pres in all_presentations().values():
        for _ in range(25):
            x = NCPoly(pres, {random_word(pres, rng, 7): ONE})
            assert normal_form(x) == normal_form(x, rng=rng)


@pytest.mark.parametrize("name", sorted(all_presentations()))
def test_random_probe_draws_as_the_rescanning_reference(name, monkeypatch):
    # the probe finds each word's options once; the reference lists them all
    # again before every step. The same draws give the same terms and leave
    # the generator in the same state.
    pbw_steps = []
    apply_pbw = presentations._apply_pbw

    def counted(*args):
        pbw_steps.append(args[1])
        return apply_pbw(*args)

    monkeypatch.setattr(presentations, "_apply_pbw", counted)
    pres = all_presentations()[name]
    rng = random.Random(f"probe:{name}")
    for seed in range(120):
        x = random_element(pres, rng, n_words=3, max_len=7)
        ours, theirs = random.Random(seed), random.Random(seed)
        got = presentations._random_reduce(
            pres, x.terms, ours, presentations._Budget(DEFAULT_MAX_STEPS)
        )
        want = reference_random_reduce(pres, x.terms, theirs)
        assert list(got.items()) == list(want.items())
        assert ours.getstate() == theirs.getstate()
    # s3pq is the one preset with a pbw rule, and the sample reaches it
    assert bool(pbw_steps) == (name == "s3pq")


# -- guards ----------------------------------------------------------------------


def _loop_presentation(rules):
    return Presentation(
        name="loop",
        letters=("u", "v"),
        weights=(1, -1),
        star={"u": "v"},
        rules=rules,
    )


def test_cyclic_rules_detected():
    # u v -> v u and v u -> u v would rewrite u v forever; whichever way the
    # measure orders the two words, one of the rules does not lower it
    with pytest.raises(PresentationError, match="does not decrease the term order"):
        _loop_presentation([("u v", {"v u": ONE}), ("v u", {"u v": ONE})])


def test_cyclic_rules_are_named_before_the_budget_runs_out():
    # the loop is refused when the rules enter, before any reduction can spend
    # a step budget on it, and the refusal names the rule that does not descend
    # (u v lies below v u) and the word it would rise to, in either rule order
    rules = [("u v", {"v u": ONE}), ("v u", {"u v": ONE})]
    for order in (rules, rules[::-1]):
        with pytest.raises(PresentationError) as refused:
            _loop_presentation(order)
        assert not isinstance(refused.value, RewriteLimitExceeded)
        assert str(refused.value) == (
            "loop: rule u v -> ... does not decrease the term order at v u"
        )
    # the descending rule alone is accepted and reduces v u to u v
    pres = _loop_presentation(rules[1:])
    u, v = pres.gen("u"), pres.gen("v")
    assert normal_form(v * u, max_steps=1) == u * v


def test_negative_order_weight_refused():
    # with a weight below zero, z* z* z* ... would descend in the measure forever
    with pytest.raises(PresentationError, match="negative order weight"):
        Presentation(
            name="negative",
            letters=("z", "z*"),
            weights=(1, -1),
            star={"z": "z*"},
            rules=[],
            order_weights=(1, -1),
        )


def test_pbw_step_that_raises_the_order_is_refused():
    # both rules lower the order as written, but the pbw step on the sorted
    # word a b c goes through the cofactor b: b (a c) = b a c reduces to
    # a b c + a c b, so it would replace a b c by -(a c b), which lies above it
    pres = Presentation(
        name="rising-pbw",
        letters=("a", "b", "c"),
        weights=(0, 0, 0),
        star={"a": "a", "b": "b", "c": "c"},
        rules=[("b a c", {"a b c": ONE, "a c b": ONE}), ("a c", {}, "pbw")],
    )
    x = pres.element({"a b c": ONE})
    for rng in (None, random.Random(0)):
        with pytest.raises(PresentationError, match="does not decrease the term order"):
            normal_form(x, rng=rng)
    assert not pres._nf_cache


@pytest.mark.parametrize("name", sorted(all_presentations()))
@settings(max_examples=40, deadline=None)
@given(letters=st.lists(st.integers(0, 63), min_size=1, max_size=8), sort=st.booleans())
def test_every_rewrite_lowers_the_measure(name, letters, sort):
    # the invariant the reducers rely on to terminate: every subword option's
    # children and every pbw replacement word lie below the word they replace
    pres = all_presentations()[name]
    word = tuple(i % len(pres.letters) for i in letters)
    word = tuple(sorted(word)) if sort else word
    top = pres.measure(word)
    for rule, pos in presentations._subword_options(pres, word):
        for child, _ in _apply_subword(word, rule, pos):
            assert pres.measure(child) < top
    budget = presentations._Budget(DEFAULT_MAX_STEPS)
    for rule in presentations._pbw_options(pres, word):
        for child, _ in presentations._apply_pbw(pres, word, rule, budget):
            assert pres.measure(child) < top


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
    # must run out whether or not an unbudgeted call has reduced it before,
    # so a remembered whole call charges the steps it took
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

    # a pbw step reuses its replacement once computed and charges the steps
    # its cofactor reduction took: the smallest budget that suffices is the
    # same with the table of reductions cold and warm. The sorted word
    # a a*^2 b b* takes one pbw step, whose cofactor a* (a a* b b* - ...)
    # takes two subword steps: three in all, as when every cofactor was
    # reduced afresh on the caller's budget
    s3 = sphere3_presentation()
    a, b = s3.gen("a"), s3.gen("b")
    y = a * a.star() * a.star() * b * b.star()
    table = s3._nf_cache

    def suffices(max_steps, cold):
        if cold:
            table.clear()
        try:
            normal_form(y, max_steps=max_steps)
        except RewriteLimitExceeded:
            return False
        return True

    def fewest(cold):
        return next(n for n in itertools.count() if suffices(n, cold))

    table.clear()
    assert normal_form(y) == normal_form(y, max_steps=DEFAULT_MAX_STEPS)
    assert table  # the word takes a pbw step
    first = fewest(cold=not warm_first)
    assert first == 3
    assert fewest(cold=warm_first) == first
    for cold in (True, False):
        assert suffices(first, cold)
        assert not suffices(first - 1, cold)


def test_a_cofactor_reduction_runs_on_the_callers_budget():
    # a cold pbw step reduces its cofactor on the caller's budget: a budget
    # that runs out inside that reduction raises there and stores nothing,
    # and the replacement is kept only once a budget has sufficed
    s3 = sphere3_presentation()
    a, b = s3.gen("a"), s3.gen("b")
    y = a * a.star() * a.star() * b * b.star()  # one pbw step, two cofactor steps
    table = s3._nf_cache
    table.clear()
    for max_steps in (1, 2):
        with pytest.raises(RewriteLimitExceeded):
            normal_form(y, max_steps=max_steps)
        assert not table
    normal_form(y, max_steps=3)
    (pbw_key,) = (key for key in table if isinstance(key, tuple))
    assert pbw_key == (s3.word("a a* a* b b*"), s3._pbw_rules[0])
    assert table[pbw_key][0] == 2
    # the whole call's entry holds the pbw step and its two cofactor steps
    assert table[frozenset(y.terms.items())][0] == 3


def test_budget_applies_to_randomized_strategy():
    # (z* z)^5 holds five z* z redexes, so no order of steps reduces it in three
    pres = disc_presentation("q")
    z = pres.gen("z")
    deep = (z.star() * z) ** 5
    with pytest.raises(RewriteLimitExceeded):
        normal_form(deep, rng=random.Random(0), max_steps=3)
    assert normal_form(deep, rng=random.Random(0)) == normal_form(deep)


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
