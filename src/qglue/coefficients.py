"""Exact coefficient ring: rational Laurent polynomials in q, p and a
polynomial variable s.

Every symbolic computation in the package keeps its coefficients in this
ring, so identities are decided by exact arithmetic and only the final
operator-theoretic checks involve floats. A rational coefficient is stored
as an int while it is integral and as a Fraction only once a denominator
appears; every shipped rule has integer coefficients, and int arithmetic
is many times cheaper than Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from operator import index
from typing import Iterator, Mapping, Tuple, Union

Expo = Tuple[int, int, int]
ScalarLike = Union[int, Fraction, "CoefPoly"]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"expected a rational coefficient, got {type(value).__name__}")


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
    def monomial(e_q: int = 0, e_p: int = 0, e_s: int = 0, coef=1) -> "CoefPoly":
        return CoefPoly({(e_q, e_p, e_s): coef})

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
        return self._terms == {(0, 0, 0): 1}

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def as_fraction(self) -> Fraction:
        """The value of a constant element, always as a Fraction; raises if
        q, p or s appear."""
        if not self._terms:
            return Fraction(0)
        if set(self._terms) != {(0, 0, 0)}:
            raise ValueError("element is not constant")
        return _as_fraction(self._terms[(0, 0, 0)])

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
        result = CoefPoly.scalar(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse_monomial(self) -> "CoefPoly":
        """Inverse of a single-term element with no s factor."""
        if len(self._terms) != 1:
            raise ValueError("only monomials are invertible in this ring")
        (eq, ep, es), coef = next(iter(self._terms.items()))
        if es:
            raise ValueError("s is not invertible")
        return CoefPoly({(-eq, -ep, 0): Fraction(1, coef)})

    def conjugate(self) -> "CoefPoly":
        """Coefficientwise *-conjugation; the ring is real, so identity."""
        return self

    # -- evaluation --------------------------------------------------------

    def evaluate(self, q: float, p: float, s: float = 0.0) -> float:
        total = 0.0
        for (eq, ep, es), coef in self._terms.items():
            total += float(coef) * q**eq * p**ep * s**es
        return total

    def evaluate_exact(self, q: Fraction, p: Fraction, s: Fraction = Fraction(0)) -> Fraction:
        q = _as_fraction(q)
        p = _as_fraction(p)
        s = _as_fraction(s)
        total = Fraction(0)
        for (eq, ep, es), coef in self._terms.items():
            total += coef * q**eq * p**ep * s**es
        return total

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"CoefPoly({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (eq, ep, es), coef in sorted(self._terms.items()):
            factors = []
            if coef != 1 or (eq, ep, es) == (0, 0, 0):
                factors.append(str(coef))
            if eq:
                factors.append("q" if eq == 1 else f"q^{eq}")
            if ep:
                factors.append("p" if ep == 1 else f"p^{ep}")
            if es:
                factors.append("s" if es == 1 else f"s^{es}")
            parts.append(" ".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


ZERO = CoefPoly()
ONE = CoefPoly.scalar(1)
Q = CoefPoly.monomial(e_q=1)
P = CoefPoly.monomial(e_p=1)
S = CoefPoly.monomial(e_s=1)
