"""Periodic weight functions with period one.

A weight is either a finite Fourier series (sparse coefficient map
k -> c_k, value sum_k c_k e(kx) with e(x) = exp(2 pi i x)) or the
indicator of a half-open interval [a, b) in [0, 1).  Indicators also
carry the truncated analytic series of their coefficients so that the
fast evaluation paths can use them after an explicit conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadInterval

FOURIER = "fourier"
INDICATOR = "indicator"


@dataclass(frozen=True)
class WeightFunction:
    """Immutable weight; freely shareable across threads.

    coefficients holds the finite Fourier data for both kinds: for an
    indicator it is the truncated analytic series up to the cutoff.
    """

    kind: str
    coefficients: dict[int, complex]
    interval: tuple[float, float] | None = None
    cutoff: int = 0

    def __post_init__(self):
        if self.kind not in (FOURIER, INDICATOR):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == INDICATOR and self.interval is None:
            raise ValueError("indicator weight needs an interval")

    @property
    def mean(self) -> complex:
        """c_0, the average of the weight over one period."""
        return complex(self.coefficients.get(0, 0j))


def fourier_weight(coefficients: dict[int, complex]) -> WeightFunction:
    coeffs = {int(k): complex(c) for k, c in coefficients.items()}
    cutoff = max((abs(k) for k in coeffs), default=0)
    return WeightFunction(FOURIER, coeffs, None, cutoff)


def constant_weight(value: complex = 1.0) -> WeightFunction:
    return fourier_weight({0: complex(value)})


def indicator_coefficients(a: float, b: float, cutoff: int) -> dict[int, complex]:
    """Analytic Fourier coefficients of the indicator of [a, b).

    c_0 = b - a and c_k = (e(-ka) - e(-kb)) / (2 pi i k) for k != 0,
    returned for all |k| <= cutoff.
    """
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"need 0 <= a < b <= 1, got a={a}, b={b}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
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
    return WeightFunction(INDICATOR, indicator_coefficients(a, b, cutoff), (float(a), float(b)), cutoff)


def as_fourier_series(w: WeightFunction) -> WeightFunction:
    """The finite-series view of a weight.

    For an indicator this is the stored truncated series; the truncation
    error becomes the caller's, which is the point of making it explicit.
    """
    if w.kind == FOURIER:
        return w
    return WeightFunction(FOURIER, dict(w.coefficients), None, w.cutoff)


def evaluate(w: WeightFunction, x):
    """Value of the weight at x (scalar or array), period one.

    Fourier kind: the exact finite sum.  Indicator kind: the exact 0/1
    indicator of [a, b), not the truncated series.
    """
    xs = np.asarray(x, dtype=np.float64)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs) % 1.0
    if w.kind == INDICATOR:
        a, b = w.interval
        out = ((xs >= a) & (xs < b)).astype(np.complex128)
    else:
        out = np.zeros(xs.shape, dtype=np.complex128)
        for k, c in w.coefficients.items():
            out += c * np.exp(2j * np.pi * k * xs)
    return complex(out[0]) if scalar else out


def evaluate_grid(w: WeightFunction, q: int) -> np.ndarray:
    """Values at the rational grid h/q, h = 0..q-1.

    A series of any support is folded mod q (c_k added into bin k mod q)
    and evaluated with one inverse FFT, in O(#coefficients + q log q);
    evaluate() stays the pointwise reference.  Indicators are exact 0/1.
    """
    if w.kind == INDICATOR:
        return evaluate(w, np.arange(q, dtype=np.float64) / q)
    binned = np.zeros(q, dtype=np.complex128)
    np.add.at(binned, [k % q for k in w.coefficients], list(w.coefficients.values()))
    # value at h/q is sum_k c_k e(kh/q) = q * ifft(binned)[h]
    return np.fft.ifft(binned) * q


def reduce_weight(w: WeightFunction, r: int) -> WeightFunction:
    """The r-fold compressed weight sum_{k<r} w((x+k)/r).

    Its coefficients are r * c_{rn}; only indices divisible by r survive.
    Returned as a Fourier series (for an indicator this reduces the
    stored truncated series).  r = 1 returns the weight unchanged.
    """
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if r == 1:
        return w
    coeffs = {k // r: r * c for k, c in w.coefficients.items() if k % r == 0}
    if not coeffs:
        coeffs = {0: 0j}
    return fourier_weight(coeffs)
