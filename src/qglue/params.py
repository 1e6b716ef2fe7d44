"""The run's parameters and the suite names, with no numeric import.

ParamSet and its bounds live here, not in opnum, and the suite names here,
not in suites, so that the command line front (qglue.entry) can check an
invocation without importing numpy: a bad one exits before any numeric
module loads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# the largest window dimension d and radius w a ParamSet accepts
WINDOW_MAX = 512

# the smallest q, p and s a ParamSet accepts: their squares are still normal
# floats, so q**2 and the like neither underflow to 0.0 nor lose precision
PARAM_MIN = math.sqrt(sys.float_info.min)

# the verification suites in registry order; suites.SUITES registers one
# suite under each name
SUITE_NAMES = (
    "disc",
    "s3",
    "s2",
    "su2",
    "podles",
    "hopf",
    "en-symbolic",
    "en-numeric",
    "chi",
    "index",
    "convergence",
    "confluence",
)


@dataclass(frozen=True)
class ParamSet:
    """Deformation parameters and window sizes used on the numeric side.

    This is the one source of window sizes: every function that takes a
    ParamSet builds its windows at dimension d (natural lattice) and radius w
    (integer lattice, dimension 2w + 1), and takes no size of its own. A
    caller that needs another window passes dataclasses.replace(params, d=...,
    w=...), which goes through the same checks."""

    q: float = 0.6
    p: float = 0.4
    s: float = 0.8
    d: int = 64
    w: int = 8
    tol: float = 1e-10

    def __post_init__(self):
        if not (PARAM_MIN <= self.q < 1.0):
            raise ValueError(f"q must lie in [{PARAM_MIN:.3g}, 1), got {self.q}")
        if not (PARAM_MIN <= self.p < 1.0):
            raise ValueError(f"p must lie in [{PARAM_MIN:.3g}, 1), got {self.p}")
        if not (PARAM_MIN <= self.s <= 1.0):
            raise ValueError(f"s must lie in [{PARAM_MIN:.3g}, 1], got {self.s}")
        if not (4 <= self.d <= WINDOW_MAX):
            raise ValueError(f"d must lie in [4, {WINDOW_MAX}], got {self.d}")
        if not (1 <= self.w <= WINDOW_MAX):
            raise ValueError(f"w must lie in [1, {WINDOW_MAX}], got {self.w}")
        if not (0.0 < self.tol < math.inf):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
