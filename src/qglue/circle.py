"""Laurent-polynomial model of the circle algebra and of the two-torus.

Elements carry one of two coefficient modes and the modes never mix:

* exact: coefficients in the rational ring (CoefPoly), used for symbol
  bookkeeping and the Hopf-structure checks;
* numeric: complex coefficients, used on the operator side.

BiLaurent is the two-variable version (the torus); the torus twist maps
w_map / w_inverse / phi_map act on it.
"""

from __future__ import annotations

from numbers import Complex, Rational
from typing import Callable, Mapping

from .coefficients import CoefPoly, _accumulate
from .errors import ModeMismatch

EXACT = "exact"
NUMERIC = "numeric"


def _classify(coef):
    """Return (mode, normalized coefficient) or (None, None) for zero."""
    if isinstance(coef, CoefPoly):
        return (EXACT, coef) if coef else (None, None)
    if isinstance(coef, Rational):
        value = CoefPoly.scalar(coef)
        return (EXACT, value) if value else (None, None)
    if isinstance(coef, Complex):
        value = complex(coef)
        return (NUMERIC, value) if value != 0 else (None, None)
    raise TypeError(f"bad coefficient of type {type(coef).__name__}")


def _conj(coef):
    if isinstance(coef, CoefPoly):
        return coef.conjugate()
    return coef.conjugate() if isinstance(coef, complex) else complex(coef).conjugate()


class _Laurent:
    """Shared machinery for the one- and two-variable cases."""

    __slots__ = ("terms", "mode")

    def __init__(self, terms: Mapping | None = None, mode: str | None = None):
        if mode not in (None, EXACT, NUMERIC):
            raise ValueError(f"unknown mode {mode!r}")
        clean = {}
        seen = mode
        if terms:
            for key, coef in terms.items():
                kmode, value = _classify(coef)
                if kmode is None:
                    continue
                if seen is None:
                    seen = kmode
                elif seen != kmode:
                    raise ModeMismatch(
                        f"cannot mix {seen} and {kmode} coefficients in one element"
                    )
                _accumulate(clean, self._norm_key(key), value)
        self.terms = clean
        # the zero element belongs to both modes, so it never pins one
        self.mode = seen if clean else None

    @staticmethod
    def _norm_key(key):
        raise NotImplementedError

    @classmethod
    def exact(cls, terms: Mapping):
        return cls(terms, mode=EXACT)

    @classmethod
    def numeric(cls, terms: Mapping):
        clean = {}
        for key, coef in terms.items():
            value = complex(coef)
            if value:
                clean[cls._norm_key(key)] = value
        return cls._new(clean, NUMERIC)

    def _join_mode(self, other) -> str | None:
        if self.mode is None:
            return other.mode
        if other.mode is None or other.mode == self.mode:
            return self.mode
        raise ModeMismatch(f"cannot combine {self.mode} with {other.mode} element")

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    @classmethod
    def _new(cls, terms, mode):
        out = cls.__new__(cls)
        out.terms = terms
        out.mode = mode if terms else None
        return out

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        mode = self._join_mode(other)
        terms = dict(self.terms)
        for key, coef in other.terms.items():
            _accumulate(terms, key, coef)
        return self._new(terms, mode)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()}, self.mode)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            mode = self._join_mode(other)
            terms = {}
            for ka, ca in self.terms.items():
                for kb, cb in other.terms.items():
                    _accumulate(terms, self._add_keys(ka, kb), ca * cb)
            return self._new(terms, mode)
        kmode, value = _classify(other)
        if kmode is None:
            return self._new({}, self.mode)
        if self.mode is not None and kmode != self.mode:
            raise ModeMismatch(f"cannot scale {self.mode} element by {kmode} scalar")
        return self._new({k: c * value for k, c in self.terms.items()}, kmode)

    __rmul__ = __mul__

    @staticmethod
    def _add_keys(ka, kb):
        raise NotImplementedError

    def map_exponents(self, fn: Callable) -> "_Laurent":
        """Relabel exponents through fn, merging collisions."""
        terms = {}
        for key, coef in self.terms.items():
            _accumulate(terms, self._norm_key(fn(key)), coef)
        return self._new(terms, self.mode)


class LaurentPoly(_Laurent):
    """Laurent polynomial in the unitary circle letter U."""

    @staticmethod
    def _norm_key(key):
        return int(key)

    @staticmethod
    def _add_keys(ka, kb):
        return ka + kb

    def shift(self, n: int) -> "LaurentPoly":
        """Multiply by U^n."""
        return self._new({k + n: c for k, c in self.terms.items()}, self.mode)

    def star(self) -> "LaurentPoly":
        return self._new({-k: _conj(c) for k, c in self.terms.items()}, self.mode)

    def support(self) -> list[int]:
        return sorted(self.terms)

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
        return f"LaurentPoly[{self.mode or 'empty'}]({self})"


class BiLaurent(_Laurent):
    """Laurent polynomial on the two-torus, exponents (m, n)."""

    @staticmethod
    def _norm_key(key):
        m, n = key
        return (int(m), int(n))

    @staticmethod
    def _add_keys(ka, kb):
        return (ka[0] + kb[0], ka[1] + kb[1])

    def star(self) -> "BiLaurent":
        return self._new(
            {(-m, -n): _conj(c) for (m, n), c in self.terms.items()}, self.mode
        )

    def collapse(self, which: int) -> LaurentPoly:
        """Apply the counit to one tensor leg (0 = left, 1 = right)."""
        if which not in (0, 1):
            raise ValueError("which must be 0 or 1")
        terms = {}
        for (m, n), coef in self.terms.items():
            _accumulate(terms, n if which == 0 else m, coef)
        return LaurentPoly._new(terms, self.mode)

    def __repr__(self) -> str:
        body = " + ".join(
            f"({self.terms[k]}) U^{k[0]} x U^{k[1]}" for k in sorted(self.terms)
        )
        return f"BiLaurent[{self.mode or 'empty'}]({body or '0'})"


# -- Hopf structure -----------------------------------------------------------


def hopf_coproduct(f: LaurentPoly) -> BiLaurent:
    """Coproduct of the circle Hopf algebra: U^N -> U^N x U^N."""
    return BiLaurent._new({(n, n): c for n, c in f.terms.items()}, f.mode)


def hopf_counit(f: LaurentPoly):
    """Counit: U^N -> 1, i.e. the sum of coefficients."""
    if f.mode == NUMERIC:
        return sum(f.terms.values(), 0j)
    total = CoefPoly()
    for coef in f.terms.values():
        total = total + coef
    return total


def hopf_antipode(f: LaurentPoly) -> LaurentPoly:
    """Antipode: U^N -> U^{-N} (the inverse, forced by the Hopf axioms)."""
    return f.map_exponents(lambda n: -n)


def pointwise_product(F: BiLaurent) -> LaurentPoly:
    """Multiply the two tensor legs together: U^m x U^n -> U^{m+n}."""
    terms = {}
    for (m, n), coef in F.terms.items():
        _accumulate(terms, m + n, coef)
    return LaurentPoly._new(terms, F.mode)


# -- torus twist maps ---------------------------------------------------------


def w_map(F: BiLaurent) -> BiLaurent:
    """Torus twist U^m x U^n -> U^{m+n} x U^n; a linear bijection."""
    return F.map_exponents(lambda k: (k[0] + k[1], k[1]))


def w_inverse(F: BiLaurent) -> BiLaurent:
    """Inverse twist U^m x U^n -> U^{m-n} x U^n."""
    return F.map_exponents(lambda k: (k[0] - k[1], k[1]))


# The gluing algebra map. It acts on monomials exactly as w_map does, but
# plays a different role: phi_map transports one gluing chart to the other,
# while w_map is the comparison bijection used by compatibility checks.
phi_map = w_map


# -- evaluation ---------------------------------------------------------------


def _params_qps(params) -> tuple[float, float, float]:
    if params is None:
        raise ValueError("exact coefficients need params (q, p, s) to evaluate")
    if isinstance(params, Mapping):
        return float(params["q"]), float(params["p"]), float(params.get("s", 0.0))
    return float(params.q), float(params.p), float(getattr(params, "s", 0.0))


def eval_point(f: LaurentPoly, u: complex, params=None) -> complex:
    """Evaluate at a point u of the unit circle (|u| checked to 1e-12)."""
    u = complex(u)
    if abs(abs(u) - 1.0) > 1e-12:
        raise ValueError(f"evaluation point must lie on the unit circle, got |u|={abs(u)}")
    if f.mode == EXACT:
        q, p, s = _params_qps(params)
        return sum(c.evaluate(q, p, s) * u**n for n, c in f.terms.items())
    return sum(c * u**n for n, c in f.terms.items()) if f.terms else 0j
