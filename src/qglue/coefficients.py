"""Exact coefficient ring: rational Laurent polynomials in q, p and a
polynomial variable s.

Every symbolic computation in the package keeps its coefficients in this
ring, so identities are decided by exact arithmetic and only the final
operator-theoretic checks involve floats. A rational coefficient is stored
as an int while it is integral and as a Fraction only once a denominator
appears; every shipped rule has integer coefficients, and int arithmetic
is many times cheaper than Fraction arithmetic.

TermSum is the arithmetic of a sparse sum with coefficients in this ring,
shared by the free-algebra elements (ncpoly) and the circle and torus
elements (circle). _power and _matrix_product are the package's one
binary-powering loop and one entry-matrix loop, given the product they use,
and _sum_text the one text form of the ring's elements and of every TermSum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from numbers import Rational
from operator import add, index, mul
from typing import Callable, Iterator, Mapping, Tuple, Union

from .errors import DimensionMismatch

Expo = Tuple[int, int, int]
ScalarLike = Union[int, Fraction, "CoefPoly"]


def _coef(value) -> int | Fraction:
    """The stored form of a rational coefficient: an int when it is
    integral, else a Fraction."""
    if type(value) is int:
        return value
    if not isinstance(value, Rational):
        raise TypeError(f"expected a rational coefficient, got {type(value).__name__}")
    if value.denominator == 1:
        return int(value.numerator)
    return value if type(value) is Fraction else Fraction(value)


def _settle(terms: dict) -> dict:
    """Bring the values of terms to their stored form, in place. Sums and
    products of stored coefficients are rational, so only a Fraction that
    came out integral changes."""
    for key, coef in terms.items():
        if type(coef) is not int:
            terms[key] = _coef(coef)
    return terms


def _accumulate(terms: dict, key, coef) -> None:
    """Add coef to terms[key], dropping the key when the sum cancels."""
    acc = terms.get(key)
    acc = coef if acc is None else acc + coef
    if acc:
        terms[key] = acc
    else:
        terms.pop(key, None)


def _power(base, n: int, product: Callable):
    """base ** n for n >= 1 by binary powering with product (mul, or matmul
    for operator windows): the squares of base for the set bits of n, lowest
    first, one product per squaring and per set bit after the first."""
    result = None
    while True:
        if n & 1:
            result = base if result is None else product(result, base)
        n >>= 1
        if not n:
            return result
        base = product(base, base)


def _matrix_product(A, B, product: Callable) -> list[list]:
    """The matrix product of two nested sequences of entries, each entry
    summed left to right from product(A[i][t], B[t][j])."""
    if len(A[0]) != len(B):
        raise DimensionMismatch(f"shape mismatch: {len(A)}x{len(A[0])} @ {len(B)}x{len(B[0])}")
    columns = list(zip(*B))
    return [[reduce(add, map(product, row, col)) for col in columns] for row in A]


def _sum_text(terms: list[tuple[object, str, str]]) -> str:
    """The one text form of a sum, from its (coefficient, coefficient text,
    key text) terms in print order: an empty key text (the unit) prints the
    coefficient text alone, a coefficient of +-1 on any other key prints as
    its sign, and any other term as 'coefficient key'. An empty sum is 0."""
    parts = []
    for coef, coef_text, key_text in terms:
        if not key_text:
            parts.append(coef_text)
        elif coef == 1:
            parts.append(key_text)
        elif coef == -1:
            parts.append(f"-{key_text}")
        else:
            parts.append(f"{coef_text} {key_text}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


_UNIT_TERMS = {(0, 0, 0): 1}


class CoefPoly:
    """Element of Q[q^{+-1}, p^{+-1}, s].

    Terms are stored sparsely as {(e_q, e_p, e_s): coefficient} with no zero
    coefficients; e_q, e_p range over all integers, e_s >= 0. A coefficient
    is an int when it is integral and a Fraction otherwise (see _coef).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Expo, Rational] | None = None):
        clean: dict[Expo, int | Fraction] = {}
        if terms:
            for expo, coef in terms.items():
                # index() takes any integer type and raises on a float
                eq, ep, es = (index(e) for e in expo)
                if es < 0:
                    raise ValueError("s exponent must be nonnegative")
                _accumulate(clean, (eq, ep, es), _coef(coef))
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(value) -> "CoefPoly":
        return CoefPoly({(0, 0, 0): value})

    @staticmethod
    def monomial(e_q: int = 0, e_p: int = 0, e_s: int = 0) -> "CoefPoly":
        return CoefPoly({(e_q, e_p, e_s): 1})

    @staticmethod
    def coerce(value: ScalarLike) -> "CoefPoly":
        if isinstance(value, CoefPoly):
            return value
        return CoefPoly.scalar(value)

    # -- basic queries -----------------------------------------------------

    def items(self) -> Iterator[tuple[Expo, int | Fraction]]:
        return iter(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == _UNIT_TERMS

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, CoefPoly):
            return self._terms == other._terms
        if isinstance(other, Rational):
            return self._terms == CoefPoly.scalar(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    # Operands are tested against CoefPoly before the Rational ABC, whose
    # isinstance check is slow: nearly every operand is a CoefPoly.

    def __add__(self, other) -> "CoefPoly":
        if not isinstance(other, CoefPoly):
            if not isinstance(other, Rational):
                return NotImplemented
            other = CoefPoly.scalar(other)
        terms = dict(self._terms)
        for expo, coef in other._terms.items():
            acc = terms.get(expo)
            acc = coef if acc is None else acc + coef
            if acc:
                terms[expo] = acc
            else:
                del terms[expo]
        out = CoefPoly.__new__(CoefPoly)
        out._terms = _settle(terms)
        return out

    __radd__ = __add__

    def __neg__(self) -> "CoefPoly":
        out = CoefPoly.__new__(CoefPoly)
        out._terms = {expo: -coef for expo, coef in self._terms.items()}
        return out

    def __sub__(self, other) -> "CoefPoly":
        if not isinstance(other, CoefPoly):
            if not isinstance(other, Rational):
                return NotImplemented
            other = CoefPoly.scalar(other)
        return self + (-other)

    def __rsub__(self, other) -> "CoefPoly":
        if isinstance(other, Rational):
            return CoefPoly.scalar(other) - self
        return NotImplemented

    def __mul__(self, other) -> "CoefPoly":
        if not isinstance(other, CoefPoly):
            if not isinstance(other, Rational):
                return NotImplemented
            other = CoefPoly.scalar(other)
        # a unit factor gives the other operand, which is immutable; any other
        # one-term factor shifts the other factor's keys and scales its
        # coefficients: the key map is injective, so nothing accumulates or
        # cancels, and the terms keep the order the general loop gives them
        if other._terms == _UNIT_TERMS:
            return self
        if self._terms == _UNIT_TERMS:
            return other
        if len(other._terms) == 1 or len(self._terms) == 1:
            many, one = (self, other) if len(other._terms) == 1 else (other, self)
            ((sq, sp, ss), scale), = one._terms.items()
            items = many._terms.items()
            out = CoefPoly.__new__(CoefPoly)
            out._terms = _settle(
                {(eq + sq, ep + sp, es + ss): coef * scale for (eq, ep, es), coef in items}
            )
            return out
        terms: dict[Expo, int | Fraction] = {}
        for (aq, ap, as_), ac in self._terms.items():
            for (bq, bp, bs), bc in other._terms.items():
                key = (aq + bq, ap + bp, as_ + bs)
                acc = terms.get(key)
                acc = ac * bc if acc is None else acc + ac * bc
                if acc:
                    terms[key] = acc
                else:
                    del terms[key]
        out = CoefPoly.__new__(CoefPoly)
        out._terms = _settle(terms)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CoefPoly":
        if not isinstance(n, int) or n < 0:
            if isinstance(n, int) and self.is_monomial():
                return self.inverse_monomial() ** (-n)
            raise ValueError("only nonnegative integer powers (or monomial inverses)")
        return _power(self, n, mul) if n else ONE

    def inverse_monomial(self) -> "CoefPoly":
        """Inverse of a single-term element with no s factor."""
        if len(self._terms) != 1:
            raise ValueError("only monomials are invertible in this ring")
        (eq, ep, es), coef = next(iter(self._terms.items()))
        if es:
            raise ValueError("s is not invertible")
        return CoefPoly({(-eq, -ep, 0): Fraction(1, coef)})

    # -- evaluation --------------------------------------------------------

    def evaluate(self, q: float, p: float, s: float = 0.0) -> float:
        total = 0.0
        for (eq, ep, es), coef in self._terms.items():
            total += float(coef) * q**eq * p**ep * s**es
        return total

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"CoefPoly({self})"

    def __str__(self) -> str:
        terms = []
        for expo, coef in sorted(self._terms.items()):
            powers = (x if e == 1 else f"{x}^{e}" for x, e in zip("qps", expo) if e)
            terms.append((coef, str(coef), " ".join(powers)))
        return _sum_text(terms)


class TermSum:
    """A sparse sum {key: CoefPoly} over a monoid of keys, with no zero
    coefficient: the one arithmetic of NCPoly (words), LaurentPoly (powers
    of U) and BiLaurent (pairs of powers on the torus).

    A subclass gives its key normaliser _norm_key, its key product _join
    (ka + kb unless it says otherwise), its unit key _unit, the text of a
    key _key_text, and the sort key of its print order _order (the key
    itself unless it says otherwise). A rational or CoefPoly scalar sits at
    the unit key, so x + 1 and x == 1 read it there; a float or complex
    scalar is no operand. terms is the stored dict: callers read it and
    never mutate it.
    """

    __slots__ = ("terms",)

    _norm_key: Callable
    _join: Callable = staticmethod(add)
    _unit: object
    _key_text: Callable
    _order: Callable = staticmethod(lambda key: key)

    def __init__(self, terms: Mapping | None = None):
        clean: dict = {}
        if terms:
            norm = self._norm_key
            for key, coef in terms.items():
                _accumulate(clean, norm(key), CoefPoly.coerce(coef))
        self.terms = clean

    def _like(self, terms: dict) -> "TermSum":
        """An element of self's algebra holding terms as they are."""
        cls = type(self)
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def _same_algebra(self, other: "TermSum") -> bool:
        """Whether other, of self's type, lies in the same algebra."""
        return True

    def _operand(self, other) -> "TermSum | None":
        """other as an element of self's algebra (a scalar at the unit key),
        or None when it is not one; elements of another algebra of the same
        type raise ValueError."""
        if isinstance(other, type(self)):
            if not self._same_algebra(other):
                raise ValueError("operands belong to different algebras")
            return other
        if isinstance(other, (CoefPoly, Rational)):
            value = CoefPoly.coerce(other)
            return self._like({self._unit: value} if value else {})
        return None

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)) and not self._same_algebra(other):
            return False
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, coef in other.terms.items():
            _accumulate(terms, key, coef)
        return self._like(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        join, accumulate = self._join, _accumulate
        terms: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                accumulate(terms, join(ka, kb), ca * cb)
        return self._like(terms)

    # only a scalar, which commutes with every element, reaches a reflected
    # product
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        return _power(self, n, mul) if n else self._like({self._unit: ONE})

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for key in sorted(self.terms, key=self._order):
            coef = self.terms[key]
            if key == self._unit:
                parts.append((coef, str(coef) if coef.is_monomial() else f"({coef})", ""))
            else:
                parts.append((coef, f"({coef})", self._key_text(key)))
        return _sum_text(parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def map_keys(self, fn: Callable):
        """Relabel keys through fn, merging collisions."""
        norm = self._norm_key
        terms: dict = {}
        for key, coef in self.terms.items():
            _accumulate(terms, norm(fn(key)), coef)
        return self._like(terms)


ZERO = CoefPoly()
ONE = CoefPoly.scalar(1)
Q = CoefPoly.monomial(e_q=1)
P = CoefPoly.monomial(e_p=1)
S = CoefPoly.monomial(e_s=1)
