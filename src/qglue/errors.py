"""Exception types shared across the package.

A QGlueError means a computation could not be carried out at the given
parameters: a window too small, a certificate over its tolerance, a
malformed presentation, ... A check that raises one becomes a fail record
(suites.run_check), a pairing that raises one a failed result
(kpair.PairingTable). Any other exception that escapes a run is a bug.
"""


class QGlueError(Exception):
    """Base class for all package-specific errors."""


class PresentationError(QGlueError, ValueError):
    """A presentation is malformed (bad letters, non-decreasing rule, ...)."""


class GradingError(QGlueError, ValueError):
    """An element or rule is not homogeneous for the presentation grading."""


class DimensionMismatch(QGlueError, ValueError):
    """Operator shapes or lattice windows are incompatible."""


class WindowOverflow(QGlueError, ValueError):
    """A requested power or degree does not fit in the truncation window."""


class SymbolMismatch(QGlueError, ValueError):
    """Fibre-product membership U^N sigma(t0) = sigma(t1) failed."""


class UnsupportedSymbol(QGlueError, ValueError):
    """A construction is not implemented for this boundary symbol (the
    polar phase of a symbol with more than one monomial)."""


class CertificationError(QGlueError, ValueError):
    """A numeric certificate is over its tolerance: a trace tail, an
    idempotent defect, or a self-adjointness or positivity defect."""


def attempt(compute):
    """(compute(), None), or (None, exc) when compute raises a QGlueError."""
    try:
        return compute(), None
    except QGlueError as exc:
        return None, exc
