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
letter sequence). Every rule must strictly decrease it, which makes the
deterministic reducer terminate; the check can be disabled to build
deliberately looping systems for guard tests.

The deterministic reducer takes the largest pending word first, so each word
is expanded once per call, and keeps nothing between calls except a bounded
memo of whole normal_form calls on each presentation (see normal_form). The
randomized probe finds each word's rewrite options once, when the word enters
the sum, and draws among them in sorted word order.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from operator import neg
from typing import Iterable, Mapping, Sequence

from .coefficients import CoefPoly, ONE, _accumulate
from .errors import GradingError, PresentationError, RewriteLimitExceeded
from .ncpoly import NCPoly, Word

DEFAULT_MAX_STEPS = 1_000_000
# whole normal_form calls remembered per presentation; a default verify pass
# makes 790 of them, at most 257 (238 distinct) on one presentation (s3pq), so
# every call of a repeated pass is a hit
NF_CACHE_SIZE = 1024


@dataclass(frozen=True)
class Rule:
    redex: Word
    rhs: tuple[tuple[Word, CoefPoly], ...]
    pbw: bool = False
    redex_counts: tuple[int, ...] = field(default=(), compare=False)


class _Budget:
    """The rewrite steps one normal_form call has left."""

    __slots__ = ("left",)

    def __init__(self, max_steps: int):
        self.left = int(max_steps)

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise RewriteLimitExceeded(
                "rewrite step budget exhausted; the rule system may not terminate"
            )


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
        check_order: bool = True,
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

        self.star_table = self._build_star_table(star)
        self.rules = tuple(self._build_rule(spec) for spec in rules)
        subword_rules = [r for r in self.rules if not r.pbw]
        # subword rules by the first letter of their redex, in rule order
        self._subword_rules_by_first = tuple(
            tuple(r for r in subword_rules if r.redex[0] == i) for i in range(len(self.letters))
        )
        self._pbw_rules = tuple(r for r in self.rules if r.pbw)

        if check_order:
            for rule in self.rules:
                m = self.measure(rule.redex)
                for word, _ in rule.rhs:
                    if self.measure(word) >= m:
                        raise PresentationError(
                            f"{name}: rule {self._word_str(rule.redex)} -> ... does "
                            f"not decrease the term order at {self._word_str(word)}"
                        )

        # input terms -> reduced terms of a whole default normal_form call,
        # least recently used first
        self._nf_cache: OrderedDict[frozenset, dict[Word, CoefPoly]] = OrderedDict()

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
        """The rule as 'lhs -> (coef) word + ...', in the syntax of the text
        format; the empty word renders as nothing, an empty rhs as 0."""
        rhs = " + ".join(
            f"({coef}) {' '.join(self.letters[i] for i in word)}".strip()
            for word, coef in rule.rhs
        )
        return f"{' '.join(self.letters[i] for i in rule.redex)} -> {rhs or '0'}"

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


def _apply_pbw(pres: Presentation, word: Word, rule: Rule, budget: _Budget):
    """Reduce a sorted word by a pbw rule via its left cofactor.

    With C the sorted word of the count difference, C * (redex - rhs) is zero
    in the algebra and its subword normal form contains the target word with
    an invertible monomial coefficient lam; solving for the target gives the
    replacement -lam^{-1} * (rest).
    """
    counts = pres._counts(word)
    cof = tuple(c - b for c, b in zip(counts, rule.redex_counts))
    cword = pres.sorted_word_from_counts(cof)
    terms: dict[Word, CoefPoly] = {cword + rule.redex: ONE}
    for mid, coef in rule.rhs:
        _accumulate(terms, cword + mid, -coef)
    full = _reduce_terms(pres, terms, budget, use_pbw=False)
    lam = full.pop(word, None)
    if lam is None or not lam.is_monomial():
        raise PresentationError(
            f"{pres.name}: pbw rule failed to produce an invertible leading "
            f"coefficient on {pres._word_str(word)}"
        )
    lam_inv = lam.inverse_monomial()
    return [(w2, -(lam_inv * c2)) for w2, c2 in full.items()]


def _expand_once(pres: Presentation, word: Word, budget: _Budget, use_pbw: bool):
    """One deterministic reduction step (leftmost position, first rule), or
    None if the word is irreducible."""
    for rule, pos in _subword_options(pres, word):
        budget.tick()
        return _apply_subword(word, rule, pos)
    if use_pbw:
        for rule in _pbw_options(pres, word):
            budget.tick()
            return _apply_pbw(pres, word, rule, budget)
    return None


def _reduce_terms(pres, terms: Mapping[Word, CoefPoly], budget: _Budget, use_pbw: bool):
    """Reduce a sum of terms, largest word first.

    The pending terms sit in a max-heap by the measure. Every rule lowers the
    measure, so when a word is the largest one pending, every coefficient it
    will get has been merged into it: it is expanded once, and its children
    are merged back into the pending terms. A child that was already expanded
    in this call can only come from a rule system that does not lower the
    measure, and raises instead of looping until the budget runs out."""
    weight = pres.order_weights.__getitem__

    def entry(word):
        return (-sum(map(weight, word)), -len(word), tuple(map(neg, word)), word)

    pending = dict(terms)
    heap = [entry(word) for word in pending]
    heapq.heapify(heap)
    expanded: set[Word] = set()
    out: dict[Word, CoefPoly] = {}
    while heap:
        word = heapq.heappop(heap)[-1]
        coef = pending.pop(word, None)
        if coef is None:  # cancelled, or a second heap entry of a merged word
            continue
        expansion = _expand_once(pres, word, budget, use_pbw)
        if expansion is None:
            _accumulate(out, word, coef)
            continue
        expanded.add(word)
        for child, c in expansion:
            if child in expanded:
                raise RewriteLimitExceeded(
                    f"{pres.name}: cyclic reduction detected at {pres._word_str(child)}"
                )
            if child not in pending:
                heapq.heappush(heap, entry(child))
            _accumulate(pending, child, coef * c)
    return out


def _random_reduce(pres, terms: Mapping[Word, CoefPoly], rng, budget: _Budget):
    """Fully randomized reduction: at each step pick uniformly among every
    applicable (word, rule, position) option (a pbw step still reduces its
    cofactor with the deterministic subword-only reducer); used to probe
    confluence against the deterministic reducer.

    The options are listed word by word in sorted word order. Each word's
    options are found once, when it enters the sum; the reducible words are
    kept sorted, and the draw rng.randrange(total) is located by walking
    their option counts."""
    acc = dict(terms)
    options = {}
    reducible: list[Word] = []

    def enter(word):
        # the subword options, or if there are none the pbw rules
        found = list(_subword_options(pres, word))
        found = found or [(rule, None) for rule in _pbw_options(pres, word)]
        if found:
            options[word] = found
            bisect.insort(reducible, word)

    def leave(word):
        if options.pop(word, None) is not None:
            del reducible[bisect.bisect_left(reducible, word)]

    for word in acc:
        enter(word)
    while reducible:
        pick = rng.randrange(sum(map(len, options.values())))
        for word in reducible:
            if pick < len(options[word]):
                break
            pick -= len(options[word])
        rule, pos = options[word][pick]
        budget.tick()
        if pos is None:
            expansion = _apply_pbw(pres, word, rule, budget)
        else:
            expansion = _apply_subword(word, rule, pos)
        coef = acc.pop(word)
        leave(word)
        for w2, c2 in expansion:
            present = w2 in acc
            _accumulate(acc, w2, coef * c2)
            if present and w2 not in acc:
                leave(w2)
            elif w2 in acc and not present:
                enter(w2)
    return acc


def normal_form(
    x: NCPoly,
    *,
    max_steps: int | None = None,
    rng=None,
) -> NCPoly:
    """Reduce an element to its normal form.

    Deterministic by default (largest word first, leftmost-position
    first-rule); passing an rng switches to the randomized strategy, which
    must agree with the deterministic one exactly when the rule system is
    confluent.

    max_steps bounds the rewrite steps (single rule applications) this call
    performs; past it the call raises RewriteLimitExceeded. Without it the
    bound is DEFAULT_MAX_STEPS, a guard against rule systems that do not
    terminate, and a deterministic call looks its input up in the
    presentation's memo of the last NF_CACHE_SIZE such calls. With it, or
    with an rng, the call always reduces from scratch, so whether the budget
    suffices does not depend on what ran before.
    """
    pres, terms = x.pres, x.terms
    budget = _Budget(DEFAULT_MAX_STEPS if max_steps is None else max_steps)
    if rng is not None:
        return x._like(_random_reduce(pres, terms, rng, budget))
    if max_steps is not None:
        return x._like(_reduce_terms(pres, terms, budget, use_pbw=True))
    memo = pres._nf_cache
    key = frozenset(terms.items())
    reduced = memo.get(key)
    if reduced is None:
        reduced = _reduce_terms(pres, terms, budget, use_pbw=True)
        memo[key] = reduced
        if len(memo) > NF_CACHE_SIZE:
            memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    return x._like(reduced)


# -- grading helpers ----------------------------------------------------------


def degree(x: NCPoly) -> int:
    """Grading degree of a homogeneous element (0 for the zero element)."""
    degrees = {x.pres.word_degree(w) for w in x.terms}
    if not degrees:
        return 0
    if len(degrees) > 1:
        raise GradingError(f"element is not homogeneous: degrees {sorted(degrees)}")
    return degrees.pop()


def verify_identity(lhs: NCPoly, rhs=None, *, max_steps: int | None = None):
    """Check lhs = rhs in the algebra; returns (holds, witness) where the
    witness is the normal form of the difference."""
    diff = lhs if rhs is None else lhs - rhs
    witness = normal_form(diff, max_steps=max_steps)
    return witness.is_zero(), witness
