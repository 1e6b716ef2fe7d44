"""The trust bookkeeping against a larger window.

A word in the letters of an operator picture is evaluated on a window of
dimension d = 32 and on one of D = 96. A finite section of a banded
operator agrees with the operator away from the window's edge (Böttcher &
Silbermann, Introduction to Large Truncated Toeplitz Matrices, 1999), so
the two windows must agree on the small window's trusted block at every
guard; a bandwidth that overstates that block shows as a mismatch. On the
natural lattice the block is the top-left corner of both windows. On the
integer lattice (radius 16 against 48) it is centred, so on the larger
window it sits 32 rows and columns further in.
"""

from functools import cache, reduce
from operator import matmul

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qglue import (
    LaurentPoly,
    ParamSet,
    disc_assignment,
    disc_presentation,
    pi_rep,
    s2_leg_assignment,
    s3_leg_assignment,
)

SMALL, LARGE = 32, 96
POINTS = ((0.6, 0.4), (0.95, 0.9))
PICTURES = ("s3 leg 0", "s3 leg 1", "s2 leg 0", "s2 leg 1", "disc q", "pi +", "pi -")


@cache
def letters(picture: str, point: tuple[float, float], d: int) -> dict:
    """Letter -> operator of a picture at (q, p), on the natural-lattice
    window of dimension d or the integer-lattice window of radius d / 2."""
    q, p = point
    params = ParamSet(q=q, p=p, d=d, w=d // 2)
    kind, _, which = picture.rpartition(" ")
    if kind == "s3 leg":
        return dict(s3_leg_assignment(int(which), params))
    if kind == "s2 leg":
        return s2_leg_assignment(int(which), params)
    if kind == "disc":
        return disc_assignment(disc_presentation(which), params)
    return {
        "U": pi_rep(which, LaurentPoly({1: 1}), params),
        "U*": pi_rep(which, LaurentPoly({-1: 1}), params),
    }


@st.composite
def words(draw):
    picture = draw(st.sampled_from(PICTURES))
    point = draw(st.sampled_from(POINTS))
    names = sorted(letters(picture, point, SMALL))
    return picture, point, draw(st.lists(st.sampled_from(names), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(words())
def test_a_word_agrees_with_a_larger_window_on_its_trusted_block(case):
    picture, point, word = case
    small, large = (
        reduce(matmul, [letters(picture, point, d)[name] for name in word])
        for d in (SMALL, LARGE)
    )
    shift = (large.d - small.d) // 2 if small.lattice == "Z" else 0
    for guard in (0, 1, 2):
        lo, hi = small.trusted_range(guard)
        inside = np.s_[lo:hi, lo:hi]
        moved = np.s_[lo + shift : hi + shift, lo + shift : hi + shift]
        assert np.array_equal(small.mat[inside], large.mat[moved]), (guard, small.bandwidth)
