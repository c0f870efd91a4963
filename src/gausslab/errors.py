"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input outside a function's domain; the CLI exits 2 on it."""


class NotCoprime(DomainError):
    """Arguments were required to be coprime but share a factor."""


class EvenModulus(DomainError):
    """Jacobi symbol requested with an even lower argument."""


class EvenArgument(DomainError):
    """The quartic unit factor is only defined for odd integers."""


class BadInterval(DomainError):
    """Interval endpoints do not satisfy 0 <= a < b <= 1."""


class BadModulus(DomainError):
    """The operation is not defined for this modulus: its size or residue class."""


class IndicatorKind(TypeError):
    """Operation needs a finite Fourier series, not a raw indicator.

    Convert with ``as_fourier_series`` first; the truncation then happens
    explicitly and its cutoff is the caller's responsibility.
    """


class EmptyInput(DomainError):
    """Statistic of an empty sample set requested."""
