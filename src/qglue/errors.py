"""Exception types shared across the package."""


class QGlueError(Exception):
    """Base class for all package-specific errors."""


class RewriteLimitExceeded(QGlueError, RuntimeError):
    """Normal-form computation exceeded its rewrite-step budget."""


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


class SizeCapExceeded(QGlueError, ValueError):
    """A symbolic construction exceeded its safety cap."""
