"""Periodic weight functions with period one.

A weight is a finite Fourier series (sparse coefficient map k -> c_k,
value sum_k c_k e(kx) with e(x) = exp(2 pi i x)), plus an interval
[a, b) in [0, 1) if it is the indicator of that half-open interval.  An
indicator's coefficients are its truncated analytic series, which the
limit side reads as they are and the fast evaluation paths use after an
explicit conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BadInterval, DomainError


@dataclass(frozen=True)
class WeightFunction:
    """Immutable weight; freely shareable across threads.

    coefficients is the finite Fourier series.  interval (a, b) marks the
    indicator of [a, b), whose coefficients are its truncated series;
    None marks a plain series.
    """

    coefficients: dict[int, complex]
    interval: tuple[float, float] | None = None


def fourier_weight(coefficients: dict[int, complex]) -> WeightFunction:
    """The series sum_k c_k e(kx); a frequency k that is not an integer is a DomainError."""
    for k in coefficients:
        if k % 1:  # also NaN and +-inf, whose k % 1 is NaN
            raise DomainError(f"frequencies must be integers, got {k}")
    return WeightFunction({int(k): complex(c) for k, c in coefficients.items()})


def constant_weight() -> WeightFunction:
    return fourier_weight({0: 1.0})


def indicator_coefficients(a: float, b: float, cutoff: int) -> dict[int, complex]:
    """Analytic Fourier coefficients of the indicator of [a, b).

    c_0 = b - a and c_k = (e(-ka) - e(-kb)) / (2 pi i k) for k != 0,
    returned for all |k| <= cutoff.
    """
    check_interval(a, b)
    if cutoff % 1 or cutoff < 1:
        raise DomainError(f"cutoff must be a positive integer, got {cutoff}")
    ks = np.arange(1, cutoff + 1, dtype=np.float64)
    coeffs: dict[int, complex] = {0: complex(b - a)}
    for sign in (1.0, -1.0):
        s = sign * ks
        vals = (np.exp(-2j * np.pi * s * a) - np.exp(-2j * np.pi * s * b)) / (2j * np.pi * s)
        for k, c in zip((sign * ks).astype(np.int64).tolist(), vals.tolist()):
            coeffs[k] = c
    return coeffs


def interval_indicator(a: float, b: float, cutoff: int = 4000) -> WeightFunction:
    """Indicator weight of [a, b) carrying its truncated series."""
    return WeightFunction(indicator_coefficients(a, b, cutoff), (float(a), float(b)))


def as_fourier_series(w: WeightFunction) -> WeightFunction:
    """The finite-series view of a weight.

    For an indicator this is the stored truncated series, shared with the
    indicator (weights are immutable); the truncation error becomes the
    caller's, which is the point of making it explicit.
    """
    return w if w.interval is None else WeightFunction(w.coefficients)


def check_interval(a: float, b: float) -> None:
    """Refuse [a, b) with BadInterval unless 0 <= a < b <= 1."""
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"need 0 <= a < b <= 1, got a={a}, b={b}")


def grid_in_interval(r: np.ndarray, q: int, a: float, b: float) -> np.ndarray:
    """Whether r/q lies in [a, b), for integer residues 0 <= r < q.

    The one rule for grid points, exact for the binary float endpoints:
    ceil(a q) <= r < ceil(b q), both bounds in Fraction arithmetic.  So
    for [0, 0.1) at q = 10 both h = 0 and h = 1 count, since fl(0.1) > 1/10.
    """
    return (math.ceil(Fraction(a) * q) <= r) & (r < math.ceil(Fraction(b) * q))


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


def evaluate_grid(w, q: int) -> np.ndarray:
    """Values at the rational grid h/q, h = 0..q-1.

    A series of any support is folded mod q (c_k added into bin k mod q)
    and evaluated with one inverse FFT, in O(#coefficients + q log q);
    evaluate() stays the pointwise reference at float x.  Indicators are
    exact 0/1 by grid_in_interval, the rule domain windows use too.
    A sequence of W weights gives a (W, q) array, one row per weight, with
    one row-wise inverse FFT for all of its series.  q < 1 is a DomainError.
    """
    if q < 1:
        raise DomainError(f"grid size must be positive, got {q}")
    single = isinstance(w, WeightFunction)
    grid = np.arange(q)
    if single and w.interval is not None:
        return grid_in_interval(grid, q, *w.interval).astype(np.complex128)
    rows = [w] if single else list(w)
    series = [(r, v.coefficients) for r, v in enumerate(rows) if v.interval is None]
    binned = np.zeros((len(rows), q), dtype=np.complex128)
    np.add.at(binned.reshape(-1), [r * q + k % q for r, cs in series for k in cs],
              [c for _, cs in series for c in cs.values()])
    # value at h/q is sum_k c_k e(kh/q) = q * ifft(binned)[h]
    values = np.fft.ifft(binned) * q
    for row, v in zip(values, rows):
        if v.interval is not None:
            row[:] = grid_in_interval(grid, q, *v.interval)
    return values[0] if single else values


def reduce_weight(w: WeightFunction, r: int) -> WeightFunction:
    """The r-fold compressed weight sum_{k<r} w((x+k)/r).

    Its coefficients are r * c_{rn}; only indices divisible by r survive.
    Returned as a Fourier series (for an indicator this reduces the
    stored truncated series).  r = 1 returns the weight unchanged.
    """
    if r < 1:
        raise DomainError(f"r must be positive, got {r}")
    if r == 1:
        return w
    coeffs = {k // r: r * c for k, c in w.coefficients.items() if k % r == 0}
    if not coeffs:
        coeffs = {0: 0j}
    return fourier_weight(coeffs)
