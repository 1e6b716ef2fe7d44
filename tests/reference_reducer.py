"""Reference reducer for the rewriting tests: the earlier recursive engine.

Each word's full normal form is computed depth first from its children's
normal forms and kept in a cache of its own for the duration of one call
(one cache for pbw reduction, one for the subword-only reduction of pbw
cofactors). It shares only the single-step helpers with
qglue.presentations, so a test can compare the largest-word-first reducer
against an independent composition of the same rewrite steps.

reference_random_reduce is the earlier randomized probe, which lists every
option of every word afresh before each step; a test pins the probe's draw
order to it.
"""

from qglue import ONE, NCPoly, PresentationError
from qglue.coefficients import _accumulate
from qglue.presentations import _apply_subword, _pbw_options, _subword_options
from qglue.presentations import _apply_pbw as _apply_pbw_reducing


def reference_normal_form(x: NCPoly) -> NCPoly:
    pres = x.pres
    caches = {True: {}, False: {}}
    return NCPoly(pres, _reduce_terms(pres, x.terms, caches, use_pbw=True))


def _reduce_terms(pres, terms, caches, use_pbw):
    acc = {}
    for word, coef in terms.items():
        for w2, c2 in _word_nf(pres, word, caches, use_pbw).items():
            _accumulate(acc, w2, coef * c2)
    return acc


def _word_nf(pres, start, caches, use_pbw):
    cache = caches[use_pbw]
    expansions = {}
    stack = [(start, 0)]
    while stack:
        word, phase = stack.pop()
        if phase == 0:
            if word in cache or word in expansions:
                continue
            expansion = _expand_once(pres, word, caches, use_pbw)
            if expansion is None:
                cache[word] = {word: ONE}
                continue
            expansions[word] = expansion
            stack.append((word, 1))
            for child, _ in expansion:
                if child not in cache and child not in expansions:
                    stack.append((child, 0))
        else:
            acc = {}
            for child, coef in expansions.pop(word):
                for w2, c2 in cache[child].items():
                    _accumulate(acc, w2, coef * c2)
            cache[word] = acc
    return cache[start]


def _expand_once(pres, word, caches, use_pbw):
    for rule, pos in _subword_options(pres, word):
        return _apply_subword(word, rule, pos)
    if use_pbw:
        for rule in _pbw_options(pres, word):
            return _apply_pbw(pres, word, rule, caches)
    return None


def _apply_pbw(pres, word, rule, caches):
    counts = pres._counts(word)
    cword = pres.sorted_word_from_counts(
        tuple(c - b for c, b in zip(counts, rule.redex_counts))
    )
    terms = {cword + rule.redex: ONE}
    for mid, coef in rule.rhs:
        _accumulate(terms, cword + mid, -coef)
    full = _reduce_terms(pres, terms, caches, use_pbw=False)
    lam = full.pop(word, None)
    if lam is None or not lam.is_monomial():
        raise PresentationError(f"{pres.name}: no invertible leading coefficient")
    lam_inv = lam.inverse_monomial()
    return [(w2, -(lam_inv * c2)) for w2, c2 in full.items()]


def reference_random_reduce(pres, terms, rng):
    """Randomized reduction that sorts the sum and finds every word's
    options again before each step, then draws one uniformly."""
    acc = dict(terms)
    while True:
        options = []
        for word in sorted(acc):
            subs = list(_subword_options(pres, word))
            for rule, pos in subs:
                options.append((word, rule, pos))
            if not subs:
                for rule in _pbw_options(pres, word):
                    options.append((word, rule, None))
        if not options:
            return acc
        word, rule, pos = options[rng.randrange(len(options))]
        if pos is None:
            expansion = _apply_pbw_reducing(pres, word, rule)
        else:
            expansion = _apply_subword(word, rule, pos)
        coef = acc.pop(word)
        for w2, c2 in expansion:
            _accumulate(acc, w2, coef * c2)
