"""Error taxonomy shared by the whole package, and its argument checks.

Exit-code mapping used by the CLI: usage problems (bad arguments,
unsupported requests) exit 2, numerical preconditions (cutoff too small,
degenerate covariance, a non-finite result) exit 3, resource limits exit 4.

Every count, order, cutoff, photon number, parity, seed or positive float
that a public entry point takes passes one of two checks, which raise
InvalidArgumentError: check_int (an int, np.integer included, in [low,
high]; a bool or a float such as 2.0 is refused) and check_positive (a
finite real number > 0, not a bool). The module imports no numpy, so the
CLI can run them before numpy loads.
"""

import math
from numbers import Integral, Real


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


def check_int(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Refuse `value` unless it is an int in [low, high] (None: unbounded)."""
    # the exact type first: an ABC isinstance is several times slower
    is_int = type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))
    if not is_int or (low is not None and value < low) or (high is not None and value > high):
        bounds = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise InvalidArgumentError(f"{name} must be an int{bounds}, got {value!r}")


def check_positive(name: str, value) -> None:
    """Refuse `value` unless it is a finite real number > 0."""
    is_real = type(value) is float or (isinstance(value, Real) and not isinstance(value, bool))
    if not (is_real and 0.0 < value < math.inf):
        raise InvalidArgumentError(f"{name} must be a finite number > 0, got {value!r}")
