"""Exception types shared across the package."""


class NotCoprime(ValueError):
    """Arguments were required to be coprime but share a factor."""


class EvenModulus(ValueError):
    """Jacobi symbol requested with an even lower argument."""


class EvenArgument(ValueError):
    """The quartic unit factor is only defined for odd integers."""


class BadInterval(ValueError):
    """Interval endpoints do not satisfy 0 <= a < b <= 1."""


class BadModulus(ValueError):
    """Sum kind is not defined for this residue class of the modulus."""


class IndicatorKind(TypeError):
    """Operation needs a finite Fourier series, not a raw indicator.

    Convert with ``as_fourier_series`` first; the truncation then happens
    explicitly and its cutoff is the caller's responsibility.
    """


class EmptyInput(ValueError):
    """Statistic of an empty sample set requested."""
