"""Exception hierarchy for latcurve.

Every error raised on a documented failure path derives from
:class:`LatcurveError`; the CLI maps the subclasses to exit codes.
An error text echoes an outside value (a descriptor field, an option
value, a path) through ``cut``, so its line does not grow with it.
"""

ECHO_CHARS = 60  # the most of an outside value that an error line echoes


def cut(text: str, limit: int = ECHO_CHARS) -> str:
    """``text`` whole if it has at most ``limit`` characters, else its
    first ``limit`` characters and "..."."""
    return text if len(text) <= limit else text[:limit] + "..."


class LatcurveError(Exception):
    """Base class for all latcurve errors."""


class DescriptorError(LatcurveError):
    """A germ descriptor file or builtin spec could not be parsed."""


class UnknownGerm(DescriptorError):
    """Requested catalog entry does not exist."""


class BadParams(DescriptorError):
    """Catalog entry parameters outside the documented range."""


class MarginTooSmall(LatcurveError):
    """A computation needs lattice points beyond the current grid bound."""


class TruncationUnsound(MarginTooSmall):
    """A series truncation cannot be certified on the current grid."""


class GridTooLarge(LatcurveError):
    """A grid would hold more points than ``lattice.MAX_GRID_POINTS``."""


class InconsistentSemigroup(LatcurveError):
    """Semigroup table fails a structural invariant or round-trip check."""


class PathInconsistency(InconsistentSemigroup):
    """Two monotone lattice paths disagree on a Hilbert value."""


class InvalidSeries(LatcurveError):
    """Poincare series input produced an invalid Hilbert grid."""


class InconsistentInput(LatcurveError):
    """Input data contradicts itself (failed round trip or support law)."""


class TorsionFound(LatcurveError):
    """An E1 entry has integer torsion, which is impossible for valid input."""


class UndefinedWeight(LatcurveError):
    """Minimal-spectral-cycle query outside the defined weight lattice."""


class EulerMismatch(LatcurveError):
    """Euler characteristic of the homology table disagrees with delta."""


class RouteDisagreement(LatcurveError):
    """The independent classification routes returned different verdicts."""
