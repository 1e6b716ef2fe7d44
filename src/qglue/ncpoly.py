"""Free *-algebra elements over the exact coefficient ring.

Words are tuples of letter indices into a presentation's alphabet; an
element is a coefficients.TermSum over words, a sparse dict
{word: CoefPoly} whose key product is concatenation and whose unit is the
empty word. Each element carries its presentation, and elements of two
presentations neither combine (ValueError) nor compare equal. Arithmetic is
free-algebra arithmetic; reduction modulo the presentation's relations is a
separate, explicit step (see presentations.normal_form).
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, Sequence, Tuple

from .coefficients import CoefPoly, TermSum, _accumulate, _matrix_product

Word = Tuple[int, ...]


class NCPoly(TermSum):
    """Noncommutative polynomial attached to a presentation."""

    __slots__ = ("pres",)

    _norm_key = staticmethod(tuple)
    _unit = ()

    def __init__(self, pres, terms: Mapping[Word, CoefPoly] | None = None):
        super().__init__(terms)
        self.pres = pres

    def _like(self, terms: dict) -> "NCPoly":
        out = super()._like(terms)
        out.pres = self.pres
        return out

    def _same_algebra(self, other: "NCPoly") -> bool:
        return self.pres is other.pres

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(pres, value) -> "NCPoly":
        return NCPoly(pres, {(): CoefPoly.coerce(value)})

    @staticmethod
    def letter(pres, index: int) -> "NCPoly":
        return NCPoly(pres, {(index,): CoefPoly.scalar(1)})

    def star(self) -> "NCPoly":
        """Adjoint: reverses words and sends each letter through the star
        table; the coefficient ring is real, so coefficients stay."""
        table = self.pres.star_table
        terms: dict[Word, CoefPoly] = {}
        for word, coef in self.terms.items():
            out_word = []
            out_coef = coef
            for letter in reversed(word):
                partner, scale = table[letter]
                out_word.append(partner)
                if not scale.is_one():
                    out_coef = out_coef * scale
            _accumulate(terms, tuple(out_word), out_coef)
        return self._like(terms)

    # -- display -----------------------------------------------------------

    _order = staticmethod(lambda word: (len(word), word))

    def _key_text(self, word: Word) -> str:
        return self.pres._word_str(word)

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
        return SymMatrix(self.pres, _matrix_product(self.entries, other.entries, mul))

    def __repr__(self) -> str:
        rows, cols = self.shape
        return f"SymMatrix<{self.pres.name}>({rows}x{cols})"
