"""Laurent-polynomial model of the circle algebra and of the two-torus.

LaurentPoly and BiLaurent are coefficients.TermSum sums over the powers of
U (int keys, unit 0) and over pairs of powers (m, n) on the torus (added
elementwise, unit (0, 0)); the torus twist maps w_map / w_inverse act on
BiLaurent. Coefficients are exact: they lie in the rational ring CoefPoly,
ints and Fractions are coerced into it, and a float or complex coefficient
raises TypeError. Floats enter only when an element is evaluated on a
truncated window at a parameter point (q, p, s), by opnum.pi_rep.
"""

from __future__ import annotations

from .coefficients import CoefPoly, TermSum, _accumulate


class LaurentPoly(TermSum):
    """Laurent polynomial in the unitary circle letter U."""

    __slots__ = ()

    _norm_key = staticmethod(int)
    _unit = 0

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by U^n."""
        return self._like({k + n: c for k, c in self.terms.items()})

    def star(self) -> "LaurentPoly":
        return self._like({-k: c.conjugate() for k, c in self.terms.items()})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for n in sorted(self.terms):
            coef = self.terms[n]
            head = "" if n else "1"
            if n == 1:
                head = "U"
            elif n:
                head = f"U^{n}"
            parts.append(f"({coef}) {head}".strip() if head != "1" else f"({coef})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


class BiLaurent(TermSum):
    """Laurent polynomial on the two-torus, exponents (m, n)."""

    __slots__ = ()

    _unit = (0, 0)

    @staticmethod
    def _norm_key(key):
        m, n = key
        return (int(m), int(n))

    @staticmethod
    def _join(ka, kb):
        return (ka[0] + kb[0], ka[1] + kb[1])

    def star(self) -> "BiLaurent":
        return self._like({(-m, -n): c.conjugate() for (m, n), c in self.terms.items()})

    def collapse(self, which: int) -> LaurentPoly:
        """Apply the counit to one tensor leg (0 = left, 1 = right)."""
        if which not in (0, 1):
            raise ValueError("which must be 0 or 1")
        terms = {}
        for (m, n), coef in self.terms.items():
            _accumulate(terms, n if which == 0 else m, coef)
        return LaurentPoly(terms)

    def __repr__(self) -> str:
        body = " + ".join(
            f"({self.terms[k]}) U^{k[0]} x U^{k[1]}" for k in sorted(self.terms)
        )
        return f"BiLaurent({body or '0'})"


# -- Hopf structure -----------------------------------------------------------


def hopf_coproduct(f: LaurentPoly) -> BiLaurent:
    """Coproduct of the circle Hopf algebra: U^N -> U^N x U^N."""
    return BiLaurent({(n, n): c for n, c in f.terms.items()})


def hopf_counit(f: LaurentPoly) -> CoefPoly:
    """Counit: U^N -> 1, i.e. the sum of coefficients."""
    return sum(f.terms.values(), CoefPoly())


def hopf_antipode(f: LaurentPoly) -> LaurentPoly:
    """Antipode: U^N -> U^{-N} (the inverse, forced by the Hopf axioms)."""
    return f.map_keys(lambda n: -n)


def pointwise_product(F: BiLaurent) -> LaurentPoly:
    """Multiply the two tensor legs together: U^m x U^n -> U^{m+n}."""
    terms = {}
    for (m, n), coef in F.terms.items():
        _accumulate(terms, m + n, coef)
    return LaurentPoly(terms)


# -- torus twist maps ---------------------------------------------------------


def w_map(F: BiLaurent) -> BiLaurent:
    """Torus twist U^m x U^n -> U^{m+n} x U^n; a linear bijection."""
    return F.map_keys(lambda k: (k[0] + k[1], k[1]))


def w_inverse(F: BiLaurent) -> BiLaurent:
    """Inverse twist U^m x U^n -> U^{m-n} x U^n."""
    return F.map_keys(lambda k: (k[0] - k[1], k[1]))

