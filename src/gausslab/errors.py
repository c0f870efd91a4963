"""Exception types of the package: one per action the program takes on a refused input."""


class DomainError(ValueError):
    """An input outside a function's domain; the CLI exits 2 on it."""


class BadModulus(DomainError):
    """The operation is not defined for this modulus (size or residue class); a range skips it."""


class IndicatorKind(TypeError):
    """Operation needs a finite Fourier series, not a raw indicator.

    Convert with ``as_fourier_series`` first; the truncation then happens
    explicitly and its cutoff is the caller's responsibility.  No command
    line raises it, so it is left to show its traceback.
    """
