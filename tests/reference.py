"""Reference oracles the tests check the package against; the package never calls them.

evaluate is the pointwise value of a weight, the reference for
weights.evaluate_grid.  series_terms_reference is the fold of a
coefficient map {k: c_k} into quadratic series terms, one dict entry at a
time, the reference for gauss_sums.series_terms.  discrete_factor_counts gives the exact
frequencies of acceptance criterion 6.  epsilon is the quartic unit
factor of the closed forms and the twists.
"""

from collections import Counter
from fractions import Fraction

import numpy as np

from gausslab import arith
from gausslab.errors import DomainError
from gausslab.gauss_sums import G_FULL, G_MINUS, G_PLUS, VARIANTS, modulus_case
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


def series_terms_reference(coefficients, variant: str, cutoff: int | None = None,
                           index_max: int = 2**63 - 1) -> tuple[np.ndarray, np.ndarray]:
    """Fold a coefficient map into series terms c_n e(n^2 x), n >= 0.

    Indices n and -n share e(n^2 x), so their coefficients are summed.
    cutoff bounds the series index |n| (not the coefficient index); a
    negative one, which would keep no term, or one that is not a whole
    number is a DomainError.  A sequence of W maps gives a (W, terms)
    block over the union of their terms, zero where a map has none.  An
    index above index_max is a DomainError: the indices are int64, and
    series evaluated at float points pass arith.INT64_ROOT (see
    quadratic_series).
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    if cutoff is not None and (cutoff % 1 or cutoff < 0):  # NaN % 1 is NaN
        raise DomainError(f"series cutoff must be >= 0 and whole, got {cutoff}")
    rows = [coefficients] if isinstance(coefficients, dict) else coefficients
    folded = [{} for _ in rows]
    for row, out in zip(rows, folded):
        for k, c in row.items():
            if variant == G_FULL or (k % 2 == 1) == (variant == G_MINUS):
                n = abs(k) // 2 if variant == G_PLUS else abs(k)
                if cutoff is None or n <= cutoff:
                    out[n] = out.get(n, 0j) + complex(c)
    ns = sorted(set().union(*folded))
    if ns and ns[-1] > index_max:
        raise DomainError(f"series indices must be <= {index_max}, got {ns[-1]}")
    cs = np.array([[out.get(n, 0j) for n in ns] for out in folded], dtype=np.complex128)
    cs = cs.reshape(len(rows), len(ns))
    return np.array(ns, dtype=np.int64), cs[0] if isinstance(coefficients, dict) else cs
