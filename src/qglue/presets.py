"""Curated presentations shipped with the package.

Every rule set below is oriented by the term order declared with it. Its
confluence is probed, not certified: the `confluence` suite reduces random
words in random rule order and compares the results with the deterministic
normal form. The test suite resolves every critical pair between two subword
rules (the report certifies none; the pbw rule of s3pq is only probed) and
proves exact the embedding S2_IN_S3 of s2pq as the degree-zero part of s3pq.
"""

from __future__ import annotations

from functools import lru_cache

from .coefficients import ONE, P, Q, S
from .ncpoly import NCPoly
from .presentations import Presentation

_QINV = Q.inverse_monomial()
_PINV = P.inverse_monomial()

# The quantum-disc flavours: flavour name -> (letter, exact deformation base).
DISC_FLAVOURS = {"q": ("z", Q), "p": ("y", P), "q2": ("x", Q * Q)}


@lru_cache(maxsize=None)
def disc_presentation(which: str = "q") -> Presentation:
    """Quantum disc: one normal letter with z* z = base zz* + (1 - base).

    which selects the letter name and the deformation base from
    DISC_FLAVOURS: "q" -> z with base q, "p" -> y with base p, "q2" -> x
    with base q^2.
    """
    if which not in DISC_FLAVOURS:
        raise ValueError(f"unknown disc flavour {which!r}")
    letter, base = DISC_FLAVOURS[which]
    star = letter + "*"
    return Presentation(
        name=f"disc-{which}",
        letters=(letter, star),
        weights=(1, -1),
        star={letter: star},
        rules=[
            (f"{star} {letter}", {f"{letter} {star}": base, "": ONE - base}),
        ],
    )


@lru_cache(maxsize=None)
def sphere3_presentation() -> Presentation:
    """Glued pair of quantum discs: two commuting disc copies with the joint
    defect relation (1-aa*)(1-bb*) = 0, shipped as a pbw rule."""
    return Presentation(
        name="s3pq",
        letters=("a", "a*", "b", "b*"),
        weights=(-1, 1, 1, -1),
        star={"a": "a*", "b": "b*"},
        rules=[
            ("a* a", {"a a*": Q, "": ONE - Q}),
            ("b* b", {"b b*": P, "": ONE - P}),
            ("b a", {"a b": ONE}),
            ("b a*", {"a* b": ONE}),
            ("b* a", {"a b*": ONE}),
            ("b* a*", {"a* b*": ONE}),
            ("a a* b b*", {"a a*": ONE, "b b*": ONE, "": -ONE}, "pbw"),
        ],
    )


# How s2pq sits in s3pq as its degree-zero part, stated once: each s2pq letter
# as an s3pq element, in the rules' term specs. glue reads the s2 legs off it.
S2_IN_S3 = {
    "A": {"": ONE, "a a*": -ONE},
    "B": {"": ONE, "b b*": -ONE},
    "R": {"a b": ONE},
    "R*": {"b* a*": ONE},
}


@lru_cache(maxsize=None)
def sphere2_presentation() -> Presentation:
    """Quotient sphere, embedded in s3pq by S2_IN_S3: projections A, B with
    AB = 0 and a normal letter R with RR* = 1 - A - B, R*R = 1 - qA - pB."""
    return Presentation(
        name="s2pq",
        letters=("A", "B", "R", "R*"),
        weights=(0, 0, 0, 0),
        star={"A": "A", "B": "B", "R": "R*"},
        rules=[
            ("A B", {}),
            ("B A", {}),
            ("R A", {"A R": _QINV}),
            ("R B", {"B R": _PINV}),
            ("R* A", {"A R*": Q}),
            ("R* B", {"B R*": P}),
            ("R* R", {"": ONE, "A": -Q, "B": -P}),
            ("R R*", {"": ONE, "A": -ONE, "B": -ONE}),
        ],
    )


@lru_cache(maxsize=None)
def su2_presentation() -> Presentation:
    """Quantum SU(2) coordinate algebra with normal monomials a^i b^j c^k
    and d^l b^j c^k. The letters a, d carry order weight so the sorting
    rules a d -> 1 + q bc and d a -> 1 + q^{-1} bc decrease the measure."""
    return Presentation(
        name="suq2",
        letters=("a", "d", "b", "c"),
        weights=(1, -1, -1, 1),
        order_weights=(1, 1, 0, 0),
        star={"a": "d", "b": ("c", -Q)},
        rules=[
            ("b a", {"a b": _QINV}),
            ("c a", {"a c": _QINV}),
            ("b d", {"d b": Q}),
            ("c d", {"d c": Q}),
            ("c b", {"b c": ONE}),
            ("a d", {"": ONE, "b c": Q}),
            ("d a", {"": ONE, "b c": _QINV}),
        ],
    )


@lru_cache(maxsize=None)
def circle_presentation() -> Presentation:
    """Laurent circle algebra: unitary letter U."""
    return Presentation(
        name="circle",
        letters=("U", "U*"),
        weights=(1, -1),
        star={"U": "U*"},
        rules=[
            ("U U*", {"": ONE}),
            ("U* U", {"": ONE}),
        ],
    )


def all_presentations() -> dict[str, Presentation]:
    """The five shipped presentations, keyed by name."""
    presets = (
        disc_presentation("q"),
        sphere3_presentation(),
        sphere2_presentation(),
        su2_presentation(),
        circle_presentation(),
    )
    return {pres.name: pres for pres in presets}


def podles_zeta_eta() -> tuple[NCPoly, NCPoly]:
    """Spectral generators of the equatorial family inside quantum SU(2):

        zeta = 1 - (a - q s c)(d + s b)
        eta  = (d + q^{-1} s b)(b - s d)

    with s the family parameter carried symbolically in the coefficients.
    zeta is degree 0 and self-adjoint; eta is degree -2.
    """
    pres = su2_presentation()
    a, d, b, c = (pres.gen(n) for n in ("a", "d", "b", "c"))
    zeta = pres.one() - (a - (Q * S) * c) * (d + S * b)
    eta = (d + (_QINV * S) * b) * (b - S * d)
    return zeta, eta
