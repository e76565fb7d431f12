"""Error taxonomy shared by the whole package.

Exit-code mapping used by the CLI: usage problems (bad arguments,
unsupported requests) exit 2, numerical preconditions (cutoff too small,
degenerate covariance, a non-finite result) exit 3, resource limits exit 4.
"""


class WignerMomentsError(Exception):
    """Base class for all package errors."""

    category = "error"
    exit_code = 1


class InvalidArgumentError(WignerMomentsError):
    """An argument is outside its documented domain."""

    category = "invalid-argument"
    exit_code = 2


class UnsupportedOperationError(WignerMomentsError):
    """The request is well formed but not supported (e.g. mode count)."""

    category = "unsupported"
    exit_code = 2


class CutoffTooSmallError(WignerMomentsError):
    """A Fock-space truncation would discard too much weight."""

    category = "cutoff-too-small"
    exit_code = 3


class DegenerateCovarianceError(WignerMomentsError):
    """A covariance matrix is singular or violates the uncertainty bound."""

    category = "degenerate-covariance"
    exit_code = 3


class NonFiniteResultError(WignerMomentsError):
    """A moment or its error estimate came out NaN or infinite (overflow)."""

    category = "non-finite-result"
    exit_code = 3


class SizeLimitError(WignerMomentsError):
    """A computation would exceed the configured size/memory budget."""

    category = "size-limit"
    exit_code = 4


class TruncationWarning(UserWarning):
    """A truncation (grid box, Fock cutoff) may be biting at the tolerance."""

    category = "truncation-warning"
