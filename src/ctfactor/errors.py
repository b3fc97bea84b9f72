"""Exception types shared across the package."""


class CtFactorError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CtFactorError):
    """Array shapes are inconsistent with each other or with the operation."""


class DomainError(CtFactorError, ValueError):
    """A scalar argument lies outside its documented domain."""


class NotPositiveDefinite(CtFactorError):
    """A matrix required to be positive definite is not (within tolerance)."""


class EmptyCliqueSet(CtFactorError):
    """A structure was requested from a clique set with no cliques."""


class MissingTruth(CtFactorError):
    """Oracle selection was requested without a ground-truth structure."""


class ParseError(CtFactorError):
    """Malformed input file (CSV cell, row length, or JSON layout)."""


class ConstantColumn(CtFactorError):
    """A data column has zero variance, so correlations are undefined."""


class GenerationFailure(CtFactorError):
    """A randomized generator exhausted its redraw budget."""


class InvalidSpec(CtFactorError, ValueError):
    """A simulation spec contains out-of-range settings."""


class NonPDSampleWarning(UserWarning):
    """The sample matrix handed to a fit is not positive definite."""
