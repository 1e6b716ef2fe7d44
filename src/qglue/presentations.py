"""Finite *-algebra presentations and the rewriting engine.

A presentation fixes an alphabet, a grading, a star structure and a list of
reduction rules. Rules come in two modes:

* ``subword``: the redex is replaced wherever it occurs as a contiguous
  subword.
* ``pbw``: the rule fires on a sorted, subword-irreducible word whose letter
  counts dominate the redex counts. The replacement is computed from the
  left cofactor so the leading term cancels; this is one-generator left
  Groebner reduction and is valid when the rule element quasi-commutes with
  every generator (true for the shipped presets).

Words are compared by the measure (sum of per-letter order weights, length,
letter sequence). The order weights must be nonnegative, so the measure is a
semigroup order on words with no infinite descent. Construction checks that
every rule's rhs words lie below its redex, and a pbw replacement is checked
the first time it is computed, so every rewrite lowers the measure and every
reduction, deterministic or randomized, terminates.

The deterministic reducer takes the largest pending word first, so each word
is expanded once per call. Between calls each presentation keeps one table of
remembered results (see _remembered): whole deterministic normal_form calls
and pbw replacements. The randomized probe finds each word's rewrite options
once per call and, before each draw, lists them over the sum's words in
sorted order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from operator import neg
from typing import Iterable, Mapping, Sequence

from .coefficients import CoefPoly, ONE, _accumulate
from .errors import GradingError, PresentationError
from .ncpoly import NCPoly, Word

# results remembered per presentation; a default verify pass leaves 156 on s3pq
# (123 whole calls, 33 pbw replacements), so every call of a repeated pass is a hit
TABLE_SIZE = 1024


@dataclass(frozen=True)
class Rule:
    redex: Word
    rhs: tuple[tuple[Word, CoefPoly], ...]
    pbw: bool = False
    redex_counts: tuple[int, ...] = field(default=(), compare=False)


class Presentation:
    """Alphabet, grading, star structure and rules of one algebra."""

    def __init__(
        self,
        name: str,
        letters: Sequence[str],
        weights: Sequence[int],
        star: Mapping[str, object],
        rules: Iterable[tuple],
        order_weights: Sequence[int] | None = None,
    ):
        self.name = str(name)
        self.letters = tuple(letters)
        if len(set(self.letters)) != len(self.letters):
            raise PresentationError(f"{name}: duplicate letter names")
        for letter in self.letters:
            if not letter or any(ch.isspace() for ch in letter):
                raise PresentationError(f"{name}: bad letter name {letter!r}")
        self._index = {letter: i for i, letter in enumerate(self.letters)}

        if len(weights) != len(self.letters):
            raise PresentationError(f"{name}: need one grading weight per letter")
        self.weights = tuple(int(w) for w in weights)

        if order_weights is None:
            order_weights = (0,) * len(self.letters)
        if len(order_weights) != len(self.letters):
            raise PresentationError(f"{name}: need one order weight per letter")
        self.order_weights = tuple(int(w) for w in order_weights)
        negative = [x for x, w in zip(self.letters, self.order_weights) if w < 0]
        if negative:
            # a negative weight admits an infinite descent of the measure
            raise PresentationError(f"{name}: negative order weight on {negative}")

        self.star_table = self._build_star_table(star)
        self.rules = tuple(self._build_rule(spec) for spec in rules)
        subword_rules = [r for r in self.rules if not r.pbw]
        # subword rules by the first letter of their redex, in rule order
        self._subword_rules_by_first = tuple(
            tuple(r for r in subword_rules if r.redex[0] == i) for i in range(len(self.letters))
        )
        self._pbw_rules = tuple(r for r in self.rules if r.pbw)

        # remembered results, oldest first; see _remembered
        self._nf_cache: dict[object, object] = {}

    # -- construction helpers ------------------------------------------------

    def _build_star_table(self, star: Mapping[str, object]) -> dict[int, tuple[int, CoefPoly]]:
        table: dict[int, tuple[int, CoefPoly]] = {}
        for src, spec in star.items():
            if isinstance(spec, str):
                partner, scale = spec, ONE
            else:
                partner, scale = spec
                scale = CoefPoly.coerce(scale)
            i, j = self._index[src], self._index[partner]
            table[i] = (j, scale)
            if j not in table or j == i:
                # star is an involution, so the partner's image is forced
                table.setdefault(j, (i, scale.inverse_monomial()))
        missing = [self.letters[i] for i in range(len(self.letters)) if i not in table]
        if missing:
            raise PresentationError(f"{self.name}: star table misses {missing}")
        for i, (j, scale) in table.items():
            k, back = table[j]
            if k != i or back * scale != ONE:
                raise PresentationError(
                    f"{self.name}: star table is not involutive at {self.letters[i]}"
                )
        return table

    def _build_rule(self, spec: tuple) -> Rule:
        if len(spec) == 2:
            redex_spec, rhs_spec = spec
            pbw = False
        else:
            redex_spec, rhs_spec, mode = spec
            if mode not in ("subword", "pbw"):
                raise PresentationError(f"{self.name}: unknown rule mode {mode!r}")
            pbw = mode == "pbw"
        redex = self.word(redex_spec)
        if not redex:
            raise PresentationError(f"{self.name}: empty redex")
        rhs = tuple(
            (self.word(w), CoefPoly.coerce(c))
            for w, c in rhs_spec.items()
            if CoefPoly.coerce(c)
        )
        for word, _ in rhs:
            if self.measure(word) >= self.measure(redex):
                raise PresentationError(
                    f"{self.name}: rule {self._word_str(redex)} -> ... does "
                    f"not decrease the term order at {self._word_str(word)}"
                )
        counts = self._counts(redex) if pbw else ()
        if pbw and tuple(sorted(redex)) != redex:
            raise PresentationError(f"{self.name}: pbw redex must be sorted")
        return Rule(redex=redex, rhs=rhs, pbw=pbw, redex_counts=counts)

    # -- word helpers ---------------------------------------------------------

    def word(self, text) -> Word:
        """Parse 'z* z' (whitespace-separated letter names) into a word."""
        if isinstance(text, tuple):
            return text
        tokens = text.split()
        if tokens == ["1"]:
            return ()
        try:
            return tuple(self._index[t] for t in tokens)
        except KeyError as exc:
            raise PresentationError(f"{self.name}: unknown letter {exc.args[0]!r}") from None

    def gen(self, name: str) -> NCPoly:
        return NCPoly.letter(self, self._index[name])

    def one(self) -> NCPoly:
        return NCPoly.scalar(self, 1)

    def element(self, terms: Mapping[str, object]) -> NCPoly:
        return NCPoly(self, {self.word(w): CoefPoly.coerce(c) for w, c in terms.items()})

    def measure(self, word: Word):
        return (sum(self.order_weights[i] for i in word), len(word), word)

    def word_degree(self, word: Word) -> int:
        return sum(self.weights[i] for i in word)

    def _counts(self, word: Word) -> tuple[int, ...]:
        counts = [0] * len(self.letters)
        for i in word:
            counts[i] += 1
        return tuple(counts)

    def sorted_word_from_counts(self, counts: Sequence[int]) -> Word:
        return tuple(
            itertools.chain.from_iterable((i,) * c for i, c in enumerate(counts))
        )

    def _word_str(self, word: Word) -> str:
        return " ".join(self.letters[i] for i in word) if word else "1"

    def rule_element(self, rule: Rule) -> NCPoly:
        """The relation a rule asserts, as the element redex - rhs."""
        terms = {rule.redex: ONE}
        for word, coef in rule.rhs:
            _accumulate(terms, word, -coef)
        return NCPoly(self, terms)

    def rule_text(self, rule: Rule) -> str:
        """The rule as 'redex -> rhs', the rhs printed as an NCPoly."""
        return f"{self._word_str(rule.redex)} -> {NCPoly(self, dict(rule.rhs))}"

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Check rule homogeneity for the grading and adjoint closure of the
        relation ideal; raises on failure."""
        for rule in self.rules:
            deg = self.word_degree(rule.redex)
            for word, _ in rule.rhs:
                if self.word_degree(word) != deg:
                    raise GradingError(
                        f"{self.name}: rule {self._word_str(rule.redex)} -> ... is "
                        f"inhomogeneous at {self._word_str(word)}"
                    )
        for rule in self.rules:
            if not normal_form(self.rule_element(rule).star()).is_zero():
                raise PresentationError(
                    f"{self.name}: adjoint of rule {self._word_str(rule.redex)} -> ... "
                    "does not reduce to zero"
                )

    def __repr__(self) -> str:
        return f"Presentation({self.name!r}, letters={self.letters})"


# -- reduction engine ------------------------------------------------------


def _is_sorted(word: Word) -> bool:
    return all(a <= b for a, b in zip(word, word[1:]))


def _dominates(counts: Sequence[int], base: Sequence[int]) -> bool:
    return all(c >= b for c, b in zip(counts, base))


def _subword_options(pres: Presentation, word: Word):
    """The (rule, position) pairs where a subword rule applies, leftmost
    position first, in rule order at each position."""
    by_first = pres._subword_rules_by_first
    for pos, letter in enumerate(word):
        for rule in by_first[letter]:
            if word[pos : pos + len(rule.redex)] == rule.redex:
                yield rule, pos

def _pbw_options(pres: Presentation, word: Word):
    if not pres._pbw_rules or not _is_sorted(word):
        return []
    counts = pres._counts(word)
    return [rule for rule in pres._pbw_rules if _dominates(counts, rule.redex_counts)]


def _apply_subword(word: Word, rule: Rule, pos: int):
    head, tail = word[:pos], word[pos + len(rule.redex) :]
    return [(head + mid + tail, coef) for mid, coef in rule.rhs]


def _apply_pbw(pres: Presentation, word: Word, rule: Rule):
    """Reduce a sorted word by a pbw rule via its left cofactor.

    With C the sorted word of the count difference, C * (redex - rhs) is zero
    in the algebra and its subword normal form contains the target word with
    an invertible monomial coefficient lam; solving for the target gives the
    replacement -lam^{-1} * (rest), whose words must lie below the target in
    the measure or PresentationError is raised. The replacement is
    remembered under (word, rule) (see _remembered).
    """

    def replacement():
        counts = pres._counts(word)
        cof = tuple(c - b for c, b in zip(counts, rule.redex_counts))
        cword = pres.sorted_word_from_counts(cof)
        terms: dict[Word, CoefPoly] = {cword + rule.redex: ONE}
        for mid, coef in rule.rhs:
            _accumulate(terms, cword + mid, -coef)
        full = _reduce_terms(pres, terms, use_pbw=False)
        lam = full.pop(word, None)
        if lam is None or not lam.is_monomial():
            raise PresentationError(
                f"{pres.name}: pbw rule failed to produce an invertible leading "
                f"coefficient on {pres._word_str(word)}"
            )
        top = pres.measure(word)
        for w2 in full:
            if pres.measure(w2) >= top:
                raise PresentationError(
                    f"{pres.name}: pbw rule {pres.rule_text(rule)} does not decrease "
                    f"the term order on {pres._word_str(word)} at {pres._word_str(w2)}"
                )
        lam_inv = lam.inverse_monomial()
        return tuple((w2, -(lam_inv * c2)) for w2, c2 in full.items())

    return _remembered(pres, (word, rule), replacement)


def _remembered(pres: Presentation, key, compute):
    """compute(), remembered in the presentation's one table of results: a
    hit returns the kept result, a miss keeps what compute() returns; past
    TABLE_SIZE entries the oldest goes."""
    table = pres._nf_cache
    result = table.get(key)
    if result is not None:
        return result
    result = compute()
    if len(table) >= TABLE_SIZE:
        del table[next(iter(table))]  # the oldest
    table[key] = result
    return result


def _reduce_terms(pres, terms: Mapping[Word, CoefPoly], use_pbw: bool):
    """Reduce a sum of terms, largest word first.

    The pending terms sit in a max-heap by the measure. Every rewrite lowers
    the measure, so the distinct words leave the heap in strictly decreasing
    order, and when a word is the largest one pending, every coefficient it
    will get has been merged into it: it is expanded once, by the first rule
    at the leftmost position where a subword rule applies or else by the
    first pbw rule, and its children, all below it, are merged back into the
    pending terms."""
    weight = pres.order_weights.__getitem__

    def entry(word):
        return (-sum(map(weight, word)), -len(word), tuple(map(neg, word)), word)

    by_first = pres._subword_rules_by_first
    pending = dict(terms)
    heap = [entry(word) for word in pending]
    heapq.heapify(heap)
    out: dict[Word, CoefPoly] = {}
    while heap:
        word = heapq.heappop(heap)[-1]
        coef = pending.pop(word, None)
        if coef is None:  # cancelled, or a second heap entry of a merged word
            continue
        # the children are head + mid + tail for each (mid, c) in rhs
        rhs = None
        for pos, letter in enumerate(word):
            for rule in by_first[letter]:
                redex = rule.redex
                end = pos + len(redex)
                if word[pos:end] == redex:
                    head, rhs, tail = word[:pos], rule.rhs, word[end:]
                    break
            if rhs is not None:
                break
        if rhs is None:
            pbw_rules = _pbw_options(pres, word) if use_pbw else ()
            if not pbw_rules:
                _accumulate(out, word, coef)
                continue
            head, rhs, tail = (), _apply_pbw(pres, word, pbw_rules[0]), ()
        for mid, c in rhs:
            child = head + mid + tail
            if child not in pending:
                heapq.heappush(heap, entry(child))
            _accumulate(pending, child, coef * c)
    return out


def _random_reduce(pres, terms: Mapping[Word, CoefPoly], rng):
    """Fully randomized reduction: at each step pick uniformly among every
    applicable (word, rule, position) option (a pbw step still reduces its
    cofactor with the deterministic subword-only reducer); used to probe
    confluence against the deterministic reducer.

    Before each draw the options are listed word by word over the sum's
    words in sorted order: a word's subword options, or if it has none its
    pbw rules. Each word's options are found once per call."""
    acc = dict(terms)
    options: dict[Word, list] = {}

    def options_of(word):
        if word not in options:
            found = list(_subword_options(pres, word))
            options[word] = found or [(rule, None) for rule in _pbw_options(pres, word)]
        return options[word]

    while True:
        listed = [(word, *option) for word in sorted(acc) for option in options_of(word)]
        if not listed:
            return acc
        word, rule, pos = listed[rng.randrange(len(listed))]
        if pos is None:
            expansion = _apply_pbw(pres, word, rule)
        else:
            expansion = _apply_subword(word, rule, pos)
        coef = acc.pop(word)
        for w2, c2 in expansion:
            _accumulate(acc, w2, coef * c2)


def normal_form(x: NCPoly, *, rng=None) -> NCPoly:
    """Reduce an element to its normal form.

    Deterministic by default (largest word first, leftmost-position
    first-rule); passing an rng switches to the randomized strategy, which
    must agree with the deterministic one exactly when the rule system is
    confluent.

    Every rewrite lowers the measure (see Presentation), so the reduction
    terminates. A deterministic call is remembered in the presentation's
    table under its input terms (see _remembered); only an rng skips that
    table.
    """
    pres, terms = x.pres, x.terms
    if rng is not None:
        return x._like(_random_reduce(pres, terms, rng))
    key = frozenset(terms.items())
    return x._like(_remembered(pres, key, lambda: _reduce_terms(pres, terms, use_pbw=True)))


# -- grading helpers ----------------------------------------------------------


def degree(x: NCPoly) -> int:
    """Grading degree of a homogeneous element (0 for the zero element)."""
    degrees = {x.pres.word_degree(w) for w in x.terms}
    if not degrees:
        return 0
    if len(degrees) > 1:
        raise GradingError(f"element is not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop()


def verify_identity(lhs: NCPoly, rhs=None):
    """Check lhs = rhs in the algebra; returns (holds, witness) where the
    witness is the normal form of the difference."""
    diff = lhs if rhs is None else lhs - rhs
    witness = normal_form(diff)
    return witness.is_zero(), witness
