"""Exception types shared across the package."""


class LatzetaError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(LatzetaError):
    """Vector and character dimensions differ."""


class DomainError(LatzetaError):
    """Argument outside the domain of validity (e.g. Re(s) <= 0)."""


class UnsupportedDimension(LatzetaError):
    """Closed forms exist only for nu in {2, 4, 8} (or {2, 4, 6, 8})."""


class NotPrime(LatzetaError):
    """A prime argument was required."""


class NotCoprime(LatzetaError):
    """Arguments were required to be coprime."""


class UnsupportedRegime(LatzetaError):
    """Asymptotic constant not available in this (nu, x) regime."""


class CheckFailed(LatzetaError):
    """An internal consistency check failed: two independent routes disagree,
    or a value proved nonzero came out zero."""
