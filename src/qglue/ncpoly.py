"""Free *-algebra elements over the exact coefficient ring.

Words are tuples of letter indices into a presentation's alphabet; an
element is a sparse dict {word: CoefPoly}. Arithmetic is free-algebra
arithmetic; reduction modulo the presentation's relations is a separate,
explicit step (see presentations.normal_form).
"""

from __future__ import annotations

from numbers import Rational
from typing import Iterator, Mapping, Sequence, Tuple

from .coefficients import CoefPoly, _accumulate

Word = Tuple[int, ...]


class NCPoly:
    """Noncommutative polynomial attached to a presentation."""

    __slots__ = ("pres", "_terms")

    def __init__(self, pres, terms: Mapping[Word, CoefPoly] | None = None):
        clean: dict[Word, CoefPoly] = {}
        if terms:
            for word, coef in terms.items():
                _accumulate(clean, tuple(word), CoefPoly.coerce(coef))
        self.pres = pres
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(pres, value) -> "NCPoly":
        return NCPoly(pres, {(): CoefPoly.coerce(value)})

    @staticmethod
    def letter(pres, index: int) -> "NCPoly":
        return NCPoly(pres, {(index,): CoefPoly.scalar(1)})

    # -- queries -----------------------------------------------------------

    def items(self) -> Iterator[tuple[Word, CoefPoly]]:
        return iter(sorted(self._terms.items()))

    def terms(self) -> dict[Word, CoefPoly]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, NCPoly):
            return self.pres is other.pres and self._terms == other._terms
        if isinstance(other, (Rational, CoefPoly)):
            return self._terms == NCPoly.scalar(self.pres, other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.pres), frozenset(self._terms.items())))

    def _check_pres(self, other: "NCPoly") -> None:
        if self.pres is not other.pres:
            raise ValueError("operands belong to different presentations")

    # -- algebra -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NCPoly):
            self._check_pres(other)
            return other
        if isinstance(other, (Rational, CoefPoly)):
            return NCPoly.scalar(self.pres, other)
        return None

    def __add__(self, other) -> "NCPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for word, coef in other._terms.items():
            _accumulate(terms, word, coef)
        out = NCPoly.__new__(NCPoly)
        out.pres = self.pres
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self) -> "NCPoly":
        out = NCPoly.__new__(NCPoly)
        out.pres = self.pres
        out._terms = {w: -c for w, c in self._terms.items()}
        return out

    def __sub__(self, other) -> "NCPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "NCPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, (Rational, CoefPoly)):
            coef = CoefPoly.coerce(other)
            out = NCPoly.__new__(NCPoly)
            out.pres = self.pres
            out._terms = {}
            if coef:
                for word, c in self._terms.items():
                    acc = c * coef
                    if acc:
                        out._terms[word] = acc
            return out
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._check_pres(other)
        terms: dict[Word, CoefPoly] = {}
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                _accumulate(terms, wa + wb, ca * cb)
        out = NCPoly.__new__(NCPoly)
        out.pres = self.pres
        out._terms = terms
        return out

    def __rmul__(self, other) -> "NCPoly":
        if isinstance(other, (Rational, CoefPoly)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "NCPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = NCPoly.scalar(self.pres, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def star(self) -> "NCPoly":
        """Adjoint: reverses words, sends each letter through the star table,
        conjugates coefficients (identity on this real coefficient ring)."""
        table = self.pres.star_table
        terms: dict[Word, CoefPoly] = {}
        for word, coef in self._terms.items():
            out_word = []
            out_coef = coef.conjugate()
            for letter in reversed(word):
                partner, scale = table[letter]
                out_word.append(partner)
                out_coef = out_coef * scale
            _accumulate(terms, tuple(out_word), out_coef)
        out = NCPoly.__new__(NCPoly)
        out.pres = self.pres
        out._terms = terms
        return out

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for word, coef in sorted(self._terms.items(), key=lambda t: (len(t[0]), t[0])):
            cs = str(coef)
            ws = self.pres._word_str(word)
            if ws == "1":
                parts.append(f"({cs})" if " " in cs else cs)
            elif coef.is_one():
                parts.append(ws)
            else:
                parts.append(f"({cs}) {ws}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"NCPoly<{self.pres.name}>({self})"


class SymMatrix:
    """Dense matrix of NCPoly entries; just enough for idempotent algebra."""

    __slots__ = ("pres", "entries")

    def __init__(self, pres, entries: Sequence[Sequence[NCPoly]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for entry in row:
                if entry.pres is not pres:
                    raise ValueError("entry from a different presentation")
        self.pres = pres
        self.entries = rows

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.entries), len(self.entries[0]))

    def __getitem__(self, idx: tuple[int, int]) -> NCPoly:
        i, j = idx
        return self.entries[i][j]

    def transpose(self) -> "SymMatrix":
        rows, cols = self.shape
        return SymMatrix(
            self.pres,
            [[self.entries[i][j] for i in range(rows)] for j in range(cols)],
        )

    def __matmul__(self, other: "SymMatrix") -> "SymMatrix":
        if not isinstance(other, SymMatrix):
            return NotImplemented
        if self.pres is not other.pres:
            raise ValueError("operands belong to different presentations")
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = NCPoly(self.pres)
                for t in range(k):
                    acc = acc + self.entries[i][t] * other.entries[t][j]
                row.append(acc)
            out.append(row)
        return SymMatrix(self.pres, out)

    def __repr__(self) -> str:
        rows, cols = self.shape
        return f"SymMatrix<{self.pres.name}>({rows}x{cols})"
