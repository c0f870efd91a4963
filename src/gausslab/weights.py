"""Periodic weight functions with period one.

A weight is a finite Fourier series sum_k c_k e(kx), e(x) = exp(2 pi i x),
held as the arrays every kernel reads: distinct int64 frequencies ks and
complex128 coefficients cs, whose leading axes index a batch of weights on
the same ks.  It also carries an interval [a, b) in [0, 1) if it is the
indicator of that half-open interval; its arrays are then its truncated
analytic series, which the limit side reads as they are and the fast
evaluation paths use after an explicit conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadInterval, DomainError


@dataclass(frozen=True, eq=False)  # array fields: == would be ambiguous
class WeightFunction:
    """Immutable weight; freely shareable across threads.

    ks and cs are the finite Fourier series (cs may carry batch axes in
    front).  interval (a, b) marks the indicator of [a, b), whose arrays
    are its truncated series; None marks a plain series.  A weight makes
    the arrays it is given read-only, so weights sharing them stay equal.
    """

    ks: np.ndarray
    cs: np.ndarray
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        self.ks.flags.writeable = self.cs.flags.writeable = False

    @property
    def coefficients(self) -> dict[int, complex]:
        """The series as a new map {k: c_k}, built on each read."""
        return dict(zip(self.ks.tolist(), self.cs.tolist()))


def fourier_weight(coefficients: dict[int, complex]) -> WeightFunction:
    """The series sum_k c_k e(kx); a non-integer k, |k| >= 2^63 or non-finite c_k is a DomainError."""
    for k in coefficients:
        if k % 1:  # also NaN and +-inf, whose k % 1 is NaN
            raise DomainError(f"frequencies must be integers, got {k}")
        if abs(k) >= 2**63:
            raise DomainError(f"frequencies must be below 2**63 in size, got {k}")
    cs = np.array(list(coefficients.values()), dtype=np.complex128)
    if not np.isfinite(cs).all():  # NaN or inf would turn every evaluated value into NaN
        raise DomainError(f"coefficients must be finite, got {cs[~np.isfinite(cs)][0]}")
    return WeightFunction(np.array([int(k) for k in coefficients], dtype=np.int64), cs)


def constant_weight() -> WeightFunction:
    return fourier_weight({0: 1.0})


def interval_indicator(a: float, b: float, cutoff: int = 4000) -> WeightFunction:
    """Indicator weight of [a, b) carrying its truncated series.

    c_0 = b - a and c_k = (e(-ka) - e(-kb)) / (2 pi i k) for 0 < |k| <= cutoff,
    in the order k = 0, 1..cutoff, -1..-cutoff.  A cutoff that is not a
    positive integer is a DomainError.
    """
    check_interval(a, b)
    if cutoff % 1 or cutoff < 1:
        raise DomainError(f"cutoff must be a positive integer, got {cutoff}")
    ks = np.outer([1.0, -1.0], np.arange(1, cutoff + 1)).ravel()  # 1..cutoff, then -1..-cutoff
    cs = (np.exp(-2j * np.pi * ks * a) - np.exp(-2j * np.pi * ks * b)) / (2j * np.pi * ks)
    return WeightFunction(np.concatenate(([0], ks.astype(np.int64))),
                          np.concatenate(([b - a], cs)), (float(a), float(b)))


def as_fourier_series(w: WeightFunction) -> WeightFunction:
    """The finite-series view of a weight.

    For an indicator this is the stored truncated series, whose arrays it
    shares (weights are immutable); the truncation error becomes the
    caller's, which is the point of making it explicit.
    """
    return w if w.interval is None else WeightFunction(w.ks, w.cs)


def check_interval(a: float, b: float) -> None:
    """Refuse [a, b) with BadInterval unless 0 <= a < b <= 1."""
    if not (0.0 <= a < b <= 1.0):
        raise BadInterval(f"need 0 <= a < b <= 1, got a={a}, b={b}")


def grid_in_interval(r: np.ndarray, q: int, a: float, b: float) -> np.ndarray:
    """Whether r/q lies in [a, b), for integer residues 0 <= r < q.

    The one rule for grid points, exact for the binary float endpoints:
    ceil(a q) <= r < ceil(b q), each bound -(-n q // d) in integers for
    a = n/d.  So for [0, 0.1) at q = 10 both h = 0 and h = 1 count, since
    fl(0.1) > 1/10.
    """
    lo, hi = (-(-n * int(q) // d) for n, d in (a.as_integer_ratio(), b.as_integer_ratio()))
    return (lo <= r) & (r < hi)


def evaluate_grid(w: WeightFunction, q: int) -> np.ndarray:
    """Values at the rational grid h/q, h = 0..q-1, one row per weight of a batch.

    A series of any support is folded mod q (c_k added into bin k mod q,
    in the order of ks) and evaluated with one inverse FFT along the last
    axis, in O(#coefficients + q log q).  Indicators are exact 0/1 by
    grid_in_interval, the rule domain windows use too.  q < 1 is a
    DomainError.
    """
    if q < 1:
        raise DomainError(f"grid size must be positive, got {q}")
    if w.interval is not None:
        return grid_in_interval(np.arange(q), q, *w.interval).astype(np.complex128)
    binned = np.zeros(w.cs.shape[:-1] + (q,), dtype=np.complex128)
    np.add.at(binned, (..., w.ks % q), w.cs)
    # value at h/q is sum_k c_k e(kh/q) = q * ifft(binned)[h]
    return np.fft.ifft(binned) * q


def reduce_weight(w: WeightFunction, r: int) -> WeightFunction:
    """The r-fold compressed weight sum_{k<r} w((x+k)/r).

    Its coefficients are r * c_{rn}; only indices divisible by r survive,
    and where none does the result is the empty (zero) series.
    Returned as a Fourier series (for an indicator this reduces the
    stored truncated series).  r = 1 returns the weight unchanged.
    """
    if r < 1:
        raise DomainError(f"r must be positive, got {r}")
    if r == 1:
        return w
    kept = w.ks % r == 0
    return WeightFunction(w.ks[kept] // r, r * w.cs[..., kept])
