"""Exception hierarchy shared across the package.

Every error raised by this package derives from TriclusterError. The
pipeline tags exceptions with the stage they came from via the ``stage``
attribute so batch callers can report where a run died.
"""


class TriclusterError(Exception):
    """Base class; ``stage`` is set by the pipeline when it re-raises."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stage = None

    def __str__(self):
        base = super().__str__()
        if self.stage:
            return f"[{self.stage}] {base}"
        return base


class ParseError(TriclusterError):
    """Malformed input file (bad row, inconsistent column count, bad token)."""


class NonFiniteError(TriclusterError):
    """NaN or Inf encountered where finite values are required."""


class EmptyError(TriclusterError):
    """Empty input where at least one element is required."""


class IoError(TriclusterError):
    """Filesystem-level read/write failure."""


class ShapeMismatchError(TriclusterError):
    """Row/column counts of two related inputs disagree."""


class DegenerateError(TriclusterError):
    """Input too degenerate for the requested operation (e.g. n < 3 for PCA)."""


class TooFewPointsError(TriclusterError):
    """Fewer than 3 distinct points supplied to the triangulator."""


class CollinearError(TriclusterError):
    """All input points lie on one line; no triangulation exists."""


class NumericalError(TriclusterError):
    """A numerical routine failed on the input, e.g. a covariance that
    overflows float64 at extreme scales."""


class ConfigError(TriclusterError, ValueError):
    """Invalid parameter, generator or benchmark configuration."""


class LengthMismatchError(TriclusterError):
    """Label vectors of different lengths passed to a metric."""
