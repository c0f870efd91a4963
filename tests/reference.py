"""Reference oracles the tests check the package against; the package never calls them.

evaluate is the pointwise value of a weight, the reference for
weights.evaluate_grid.  discrete_factor_counts gives the exact
frequencies of acceptance criterion 6.  epsilon is the quartic unit
factor of the closed forms and the twists.
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from gausslab import arith
from gausslab.errors import DomainError
from gausslab.gauss_sums import G_PLUS, modulus_case
from gausslab.weights import WeightFunction


def epsilon(a: int) -> complex:
    """Quartic unit of an odd integer: 1 if a = 1 mod 4, i if a = 3 mod 4."""
    if a % 2 == 0:
        raise DomainError(f"argument must be odd, got {a}")
    return 1 + 0j if a % 4 == 1 else 1j


def evaluate(w: WeightFunction, x):
    """Value of the weight at x (scalar or array), period one.

    A series: the exact finite sum.  An indicator: the exact 0/1
    indicator of [a, b), not the truncated series.  NaN or +-inf is a DomainError.
    """
    xs = np.asarray(x, dtype=np.float64)
    if not np.isfinite(xs).all():
        raise DomainError("a weight is evaluated at finite points only")
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs) % 1.0
    if w.interval is not None:
        a, b = w.interval
        out = ((xs >= a) & (xs < b)).astype(np.complex128)
    else:
        out = np.zeros(xs.shape, dtype=np.complex128)
        for k, c in w.coefficients.items():
            out += c * np.exp(2j * np.pi * k * xs)
    return complex(out[0]) if scalar else out


def discrete_factor_counts(q: int) -> dict[complex, Fraction]:
    """Exact frequencies of the normalized complete sum over the units.

    These are the normalizers D(p) of modulus_case without their constant,
    computed exactly from its characters: (1+i) eps_p^{-1} (q/p) =
    g_1(p,q)/sqrt(q) for q = 0 mod 4, (p/q) for odd q and (2p/(q/2)) for
    q = 2 mod 4.
    """
    case = modulus_case(q, arith.units(q))
    factors = (1 + 1j) * np.conj(case.characters) if case.variant == G_PLUS else case.characters
    counts = Counter(factors.astype(np.complex128).tolist())
    return {v: Fraction(c, factors.size) for v, c in counts.items()}
