"""Typed errors shared across the package."""


class LltLabError(Exception):
    """Base class for all package errors."""


class PreconditionError(LltLabError):
    """An operation precondition failed; the message names the inequality."""


class DegenerateLawError(PreconditionError):
    """Operation is undefined for a single-point (zero-variance) law."""


class NoBernoulliComponentError(LltLabError):
    """Raised when a pmf has no pair of adjacent lattice atoms (theta = 0)."""


class ResourceLimitError(LltLabError):
    """A dense support window would exceed the configured memory budget."""


class UnsupportedParameterError(LltLabError):
    """Parameter outside the implemented branch (e.g. stable index alpha = 1)."""
