"""Exception types shared across the package, and the one degree check."""


class SiegelChiError(Exception):
    """Base class for all errors raised by this library."""


class BadShape(SiegelChiError):
    """Matrix input is not square with even dimension, or sizes disagree."""


class NotSymplectic(SiegelChiError):
    """Integer matrix fails one of the symplectic block relations."""


class DegreeMismatch(SiegelChiError):
    """Operands were built for different degrees g."""


def _check_degree(x, y):
    """Raise DegreeMismatch unless x and y were built for the same degree g."""
    if x.g != y.g:
        raise DegreeMismatch(f"degrees differ: {type(x).__name__} has g={x.g}, "
                             f"{type(y).__name__} has g={y.g}")


class IndexOutOfRange(SiegelChiError):
    """Generator index outside the legal range for its kind."""


class NotLevel2(SiegelChiError):
    """Matrix is not congruent to the identity mod 2."""


class InterpolationInconsistent(SiegelChiError):
    """Character probes cannot be matched by any exponent table."""


class NotUpperHalfSpace(SiegelChiError):
    """Matrix is not a symmetric complex point with positive-definite imaginary part."""


class NonPositiveTolerance(SiegelChiError):
    """A tolerance argument must be strictly positive."""


class SingularFactor(SiegelChiError):
    """The denominator c*tau + d is numerically singular."""


class TooFewUsable(SiegelChiError):
    """Fewer than two theta constants exceed the magnitude floor."""
