"""Empirical value distributions of normalized incomplete Gauss sums.

The finite side enumerates every admissible p deterministically (the
empirical law over the whole unit group is the sampling distribution;
no Monte Carlo is needed there) and divides by the normalizer D(p) of
gauss_sums.modulus_case: g_1(p,q), or 2 g_1(2p, q/2) for q = 2 mod 4,
which is the constant eps_q sqrt(q) (eps_{q/2} sqrt(2q)) for square q (q/2).
A batch keeps that modulus_case as it is: the units, their sigma classes
and normalizers stay one array each.  A domain window is None (every
unit) or a pair (a, b), which keeps the units p with p/q in [a, b) by
one array test, weights.grid_in_interval, the rule of indicator weights.

The numerators g(w, p, q) of every p come from one FFT of the weight
values binned at h^2 mod q (gauss_sums.quadratic_grid), which is exact
for indicators; the O(q) DirectEvaluator is kept as the independent
per-p reference for verify and the tests.

The limit side samples the matching quadratic series by a randomly
shifted lattice rule: each uniform base point x0 of [0, 1/M), M = _LATTICE
= 31, gives the M samples G(x0 + j/M), j = 0..M-1.  Each of them is uniform
on [0, 1), so each sample follows the limit law, but the M samples of one
base point are dependent (stratified), and a sample count counts them all.
The series evaluator of the fast path (exact phases, Horner's rule for
dense series) sums the terms of each class n mod M at the base points, and
one length-M inverse DFT per base point spreads them over the M shifts:
one Horner step per M samples, with errors below 1e-11 at the figure
truncations.  The DFT runs in place, _DFT_BLOCK base points at a time, so
the sampler holds the sample array, one class's buffers of 1/M of it each
and one block: its tracemalloc peak at 200000 samples is 1.26 outputs.
Its moments k = 0, 2 and 4 are exact from the coefficients, once per series
variant of a moment_reports call; any other k integrates the series on
one prime grid (a quadratic_grid call), which aliases for even k >= 6.

Every seeded draw of the package (the base points, the functional_eq and
reduction suites, equidist's random:N) comes from the standard library's
random.Random(seed), for seeds >= 0, through seeded_rng, so no command
imports numpy.random; uniform_words reads one randbytes call as 64-bit
words k, and a point is (k >> 11) 2^-53 (_points).  A seed gives the
same points on every run.

Histograms, moments and the two-sample KS distance quantify the agreement;
compare_laws is a figure's whole comparison at one modulus, with the rules
of its series variant.  The KS distance evaluates both empirical CDFs in
blocks of _KS_BLOCK points, so beside the two sorted samples it holds
about 4 _KS_BLOCK words of temporaries.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import arith
from .errors import BadModulus, DomainError
from .gauss_sums import (
    G_MINUS,
    G_PLUS,
    ModulusCase,
    modulus_case,
    quadratic_grid,
    quadratic_series,
    series_terms,
)
from .weights import (
    WeightFunction,
    check_interval,
    evaluate_grid,
    grid_in_interval,
    interval_indicator,
)

# shifts per base point of sample_limit_law: an odd prime, so n^2 mod M takes (M + 1)/2
# classes (a power of 2 would only rotate the odd-n series); at the benchmark's figure
# sizes 31 drew in 0.025-0.028 s, 17 in 0.035-0.038 s, and 61 gained nothing more
_LATTICE = 31
# base points per block of sample_limit_law's in-place inverse DFT: a 0.5 MB result per block
_DFT_BLOCK = 1 << 10
# points per block of ks_distance's CDF evaluation: two int64 ranks and their float64
# quotients, 128 KB; at 2^16 a figure's 37500-62500 limit samples made 1.4-2.0 MB
_KS_BLOCK = 1 << 12
# sums s per block of _fourth_moment's bincounts; 2^17 cost more RSS than a 65537-point grid
_SUM_BLOCK = 1 << 14


@dataclass
class EmpiricalBatch:
    """Normalized values over the admissible units of one modulus, sorted by p.

    case is modulus_case at those units: the p (units), classes and normalization (label).
    """

    case: ModulusCase
    values: np.ndarray
    grid_mass: float  # sum of weight values on the grid h/q; counts the kept terms for indicators


def _check_input(q: int, window: tuple[float, float] | None) -> None:
    """Refuse a bad window (DomainError), then a modulus below 3 (BadModulus)."""
    if window is not None:
        check_interval(*window)
    if q < 3:
        raise BadModulus(f"modulus must be >= 3, got {q}")


def _admissible_sums(q: int, w: WeightFunction, window: tuple[float, float] | None):
    """Units p of q (in [1, q) for q >= 3) in the window, g(w, p, q) at each, w on h/q, phi(q)."""
    ps = arith.units(q)
    phi = ps.size  # every unit, before the window
    if window is not None:
        ps = ps[grid_in_interval(ps, q, *window)]
    grid = evaluate_grid(w, q)
    return ps, quadratic_grid(np.arange(q), grid, q)[ps], grid, phi


def empirical_batch(q: int, w: WeightFunction,
                    window: tuple[float, float] | None = None) -> EmpiricalBatch:
    """One normalized sample per admissible p, sorted by p.

    window None keeps every unit, a pair (a, b) the units with p/q in [a, b).
    Exact for indicators; as_fourier_series(w) gives the law of w's truncated series.
    """
    _check_input(q, window)
    ps, numerators, grid, _ = _admissible_sums(q, w, window)
    case = modulus_case(q, ps)
    return EmpiricalBatch(case, numerators / case.normalizers, float(grid.sum().real))


def seeded_rng(seed: int) -> random.Random:
    """random.Random(seed), the generator of every seeded draw, for an integer seed >= 0.

    Random would read a negative seed as |seed|, so one is refused (DomainError).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return random.Random(seed)


def uniform_words(rng: random.Random, n: int) -> np.ndarray:
    """n uniform 64-bit words: one rng.randbytes(8 n), read in place as little-endian uint64."""
    return np.frombuffer(rng.randbytes(8 * n), dtype="<u8")


def _points(words: np.ndarray) -> np.ndarray:
    """The uniform points (k >> 11) 2^-53 of [0, 1) of the 64-bit words k, numpy's random() rule."""
    return (words >> 11) * 2.0 ** -53


def sample_limit_law(variant: str, w: WeightFunction, cutoff: int | None,
                     n_samples: int, seed: int) -> np.ndarray:
    """Series values at n_samples points of a randomly shifted lattice, deterministic in seed.

    The base points are x0 = u/M for the _points u of ceil(n_samples/M)
    uniform_words of random.Random(seed), for a seed >= 0 (a negative seed
    is a DomainError), and M = _LATTICE.  The terms n = r mod M, summed by
    quadratic_series at x0, go to F_{r^2 mod M}, so G(x0 + j/M) =
    sum_a F_a e(a j/M) for j = 0..M-1 is one inverse DFT of F.  The values
    are listed base point by base point, j inside, and the first n_samples
    are kept: each x0 + j/M is uniform on [0, 1), and the M values of one
    base point are dependent.  A base point gets the same bits in any draw,
    so a draw of n samples is the first n of any larger draw of that seed.
    The sums F become the samples in place, _DFT_BLOCK base points at a
    time, so no second full-size array is made: the result is a view of F.
    """
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise DomainError(f"n_samples must be an integer, got {n_samples!r}") from None
    if n_samples < 1:
        raise DomainError(f"need at least one sample, got {n_samples}")
    ns, cs = series_terms(w, variant, cutoff, arith.INT64_ROOT)
    base = _points(uniform_words(seeded_rng(seed), -(-n_samples // _LATTICE))) / _LATTICE
    sums = np.zeros((base.size, _LATTICE), dtype=np.complex128)
    residues = ns % _LATTICE
    for r in sorted(set(residues.tolist())):  # np.unique would import numpy.ma
        kept = residues == r
        sums[:, r * r % _LATTICE] += quadratic_series(ns[kept], cs[kept], base)
    for lo in range(0, base.size, _DFT_BLOCK):
        sums[lo:lo + _DFT_BLOCK] = np.fft.ifft(sums[lo:lo + _DFT_BLOCK], norm="forward")
    return sums.ravel()[:n_samples]


def _next_prime(n: int) -> int:
    """The least prime >= n, by the primality rule of quadratic_grid."""
    n = max(n, 2)
    while arith.factorize(n) != [(n, 1)]:
        n += 1
    return n


def _fourth_moment(ns: np.ndarray, cs: np.ndarray) -> float:
    """Mean of |sum_j cs[j] e(ns[j]^2 x)|^4 over x in [0, 1), exactly: sum_s |C_s|^2.

    C_s sums c_i c_j over n_i^2 + n_j^2 = s, binned _SUM_BLOCK values of s at a time from
    the pairs i <= j of distinct ascending ns (twice for i < j), with each n^2 mapped to
    (n^2 - n_0^2) / gcd: equal sums stay equal, and the odd-n series packs 8-fold.
    """
    if ns.size and ns[-1] > arith.INT64_ROOT // 2:
        raise DomainError(f"the fourth moment needs series indices <= {arith.INT64_ROOT // 2}")
    sq = ns * ns - ns[:1] ** 2
    sq //= max(int(np.gcd.reduce(sq)), 1)
    cs2, total, lo = 2 * cs, 0.0, 0 if ns.size else None
    first = np.arange(ns.size)  # per row i, its first j >= i whose pair is not binned yet
    while lo is not None:
        hi = lo + _SUM_BLOCK
        r0, r1 = int(np.searchsorted(sq, lo - sq[-1])), int(np.searchsorted(2 * sq, hi))
        rows, begin = np.arange(r0, r1), first[r0:r1]
        stop = np.maximum(rows, np.searchsorted(sq, hi - sq[r0:r1]))
        counts = stop - begin
        starts = np.cumsum(counts) - counts
        j = np.arange(counts.sum()) + np.repeat(begin - starts, counts)
        terms = np.repeat(cs[r0:r1], counts) * cs2[j]
        terms[starts[(begin == rows) & (counts > 0)]] /= 2  # the pair i = j counts once
        s = np.repeat(sq[r0:r1] - lo, counts) + sq[j]
        total += sum(float(c @ c) for c in (np.bincount(s, terms.real), np.bincount(s, terms.imag)))
        begin[:] = stop
        left = np.flatnonzero(first < ns.size)
        lo = int((sq[left] + sq[first[left]]).min()) if left.size else None
    return total


def _checked_orders(ks) -> list:
    """The moment orders ks as a list, refused (DomainError) unless each is finite and >= 0."""
    ks = list(ks)
    if not all(0 <= k < math.inf for k in ks):
        raise DomainError(f"moment orders must be finite and >= 0, got {ks}")
    return ks


def _limit_moments(variant: str, w: WeightFunction, ks: list, grid_size: int | None = None) -> list:
    """limit_moment for each (checked) k of ks, with at most one quadratic_grid call, if any."""
    if grid_size is not None and grid_size < 2:
        raise DomainError(f"grid size must be >= 2, got {grid_size}")
    ns, cs = series_terms(w, variant, None)
    with np.errstate(over="ignore", invalid="ignore"):  # a moment out of range is refused below
        exact = {0: 1.0, 2: float(np.sum(np.abs(cs) ** 2))}
        if 4 in ks:
            exact[4] = _fourth_moment(ns, cs)
    if any(k not in exact for k in ks):
        grid_size = grid_size or _next_prime(max(65537, 2 * int(ns.max(initial=0)) + 1))
        a = np.abs(quadratic_grid(ns, cs, grid_size))
    return [_in_float_range(exact[k], k, "limit", cs.any()) if k in exact
            else _power_mean(a, k, grid_size, "limit") for k in ks]


def _power_mean(mags: np.ndarray, k: float, measure: float, side: str) -> float:
    """sum(mags ** k) / measure, refused by _in_float_range."""
    with np.errstate(over="ignore"):  # an overflow is refused there
        mean = float(np.sum(mags ** k)) / measure
    return _in_float_range(mean, k, side, mags.any())


def _in_float_range(mean: float, k: float, side: str, nonzero: bool) -> float:
    """mean, refused (DomainError) where it leaves the float range.

    That is a mean that is not finite, or one below the least normal float
    while the values it averages are not all zero: an overflow or an
    underflow of |value|^k.
    """
    if not math.isfinite(mean) or (mean < np.finfo(np.float64).tiny and nonzero):
        raise DomainError(f"the {side} moment of order k={k} leaves the float range: {mean!r}")
    return mean


def limit_moment(variant: str, w: WeightFunction, k: float,
                 grid_size: int | None = None) -> float:
    """k-th absolute moment of the series G(x) = sum_n c_n e(n^2 x) at a uniform x.

    k = 0, 2 and 4 are exact from the coefficients, whatever grid_size is: 1,
    sum |c_n|^2 over the folded c_n (Parseval) and sum_s |C_s|^2,
    C_s = sum_{n1^2 + n2^2 = s} c_n1 c_n2.  Every other k is the rectangle rule on
    one quadratic_grid of grid_size points, by default the least prime N >= 65537 above
    twice the largest index n_max.  A non-even k is a quadrature there, and an even
    k >= 6 aliases: |G|^k has frequencies up to (k/2) n_max^2, which fold mod N
    (k = 6 at G_full, interval:0,0.3, trunc 600: 3.4e-3 relative).  A moment
    that overflows, or underflows below the least normal float, is a DomainError.
    """
    return _limit_moments(variant, w, _checked_orders([k]), grid_size)[0]


def moment_reports(w: WeightFunction, window: tuple[float, float] | None,
                   ks) -> Callable[[int], list[tuple[float, float]]]:
    """The function q -> [(empirical, limit) for each k of ks]: the two moments side by side.

    The empirical side at q is (1/(phi(q)(b - a))) sum |g(w,p,q)/D(p)|^k over the
    units p with p/q in the window [a, b) (every unit and b - a = 1 for window
    None), with |D(p)|^2 = 2q for even q and q for odd q; all k share one
    numerator grid, and phi(q) counts the units it enumerates.  The limit side
    is limit_moment of the matching series variant (for indicator weights, their
    truncated series), computed at the first modulus of each variant and reused
    for the later ones.  A negative or non-finite k is refused here, a bad
    window or q before any grid, and a moment that leaves the float range
    (see _in_float_range) when it is computed.
    """
    ks, limits = _checked_orders(ks), {}  # limits: variant -> _limit_moments of ks

    def reports(q: int) -> list[tuple[float, float]]:
        _check_input(q, window)
        case = modulus_case(q)
        if case.variant not in limits:
            limits[case.variant] = _limit_moments(case.variant, w, ks)
        _, sums, _, phi = _admissible_sums(q, w, window)
        mags = np.abs(sums) / math.sqrt(case.norm_sq)  # |g|^k, |D|^k can overflow
        measure = phi * (1 if window is None else window[1] - window[0])
        empirical = [_power_mean(mags, k, measure, f"empirical (q={q})") for k in ks]
        return list(zip(empirical, limits[case.variant]))

    return reports


def empirical_moment(q: int, w: WeightFunction, window: tuple[float, float] | None = None,
                     k: float = 2.0) -> tuple[float, float]:
    """The (empirical, limit) pair of one order k at q: moment_reports(w, window, [k])(q)[0]."""
    return moment_reports(w, window, [k])(q)[0]


@dataclass
class Histogram:
    """Counts of every value in equal bins over the data's own range, with a density of unit mass."""

    bin_edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray


def _real_samples(values) -> np.ndarray:
    """values as float64; a complex dtype is a DomainError, not cast to its real part."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":  # a dtype test: O(1) before any sort
        raise DomainError("samples must be real; pass the .real or .imag of complex values")
    return arr.astype(np.float64, copy=False)


def histogram(values, bins: int = 40) -> Histogram:
    """Bin finite real values over their range [min, max]; constant data gets [v - 0.5, v + 0.5].

    A bins that is not a positive integer is a DomainError, and so are edges not finite or
    closer than the least normal float (nan or inf densities).
    """
    arr = _real_samples(values)
    if arr.size == 0:
        raise DomainError("cannot bin an empty sample set")
    if bins % 1 or bins < 1:  # NaN % 1 is NaN
        raise DomainError(f"bins must be a positive integer, got {bins}")
    bins = int(bins)
    if not np.isfinite(arr).all():  # NaN or +-inf: no finite range to split
        raise DomainError("cannot bin NaN or infinite values")
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    # edge i is the rounding of lo + (hi-lo)*i/bins, so a data value that
    # is the rounding of the same rational lands in the half-open bin to
    # its right; the top edge is closed
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        edges = lo + (hi - lo) * np.arange(bins + 1, dtype=np.float64) / bins
    edges[-1] = hi
    if not (np.isfinite(edges).all() and (np.diff(edges) >= np.finfo(np.float64).tiny).all()):
        raise DomainError(f"cannot split [{lo!r}, {hi!r}] into {bins} bins of normal float width")
    idx = np.clip(np.searchsorted(edges, arr, side="right") - 1, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    density = counts / (arr.size * np.diff(edges))
    return Histogram(edges, counts, density)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|; NaN is refused, +-inf is kept.

    Complex samples are refused too: pass their .real or .imag.  The
    supremum is attained at a sample point: both CDFs are evaluated at the
    points of a, then of b, _KS_BLOCK at a time, with the quotients of the
    merged grid of all points but without building that grid.
    """
    a = np.sort(_real_samples(a))
    b = np.sort(_real_samples(b))
    if a.size == 0 or b.size == 0:
        raise DomainError("cannot compare empty sample sets")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # np.sort puts NaN last
        raise DomainError("cannot compare samples holding NaN")
    worst = 0.0
    for points in (a, b):
        for lo in range(0, points.size, _KS_BLOCK):
            x = points[lo:lo + _KS_BLOCK]
            gap = np.abs(np.searchsorted(a, x, side="right") / a.size
                         - np.searchsorted(b, x, side="right") / b.size)
            worst = max(worst, float(gap.max()))
    return worst


class LawComparison(NamedTuple):
    """compare_laws's result: the finite law at q next to its limit law."""

    variant: str  # the series of modulus_case(q)
    coefficient_cutoff: int  # of the indicator weight: 2 trunc for G_plus, else trunc
    center: str  # "tq" where the real part is shifted by t/q, "none" for G_minus
    batch: EmpiricalBatch
    limit: np.ndarray  # sample_limit_law's complex samples
    shift: float  # subtracted from the real part: t/q = grid_mass/q, or 0.0
    ks_re: float
    ks_im: float


def compare_laws(q: int, interval: tuple[float, float], trunc: int,
                 n_samples: int, seed: int) -> LawComparison:
    """The normalized sums of the interval's indicator at q against n_samples of their limit law.

    The limit is modulus_case(q)'s series truncated at trunc.  The three rules
    of the comparison live here alone: G_plus reads c_2n, so the weight holds
    coefficients up to 2 trunc; the real part is shifted by t/q exactly when
    the series has c_0 (not G_minus); under G_minus the real part follows the
    law of the limit's imaginary part, so ks_re compares it with that.
    """
    variant = modulus_case(q).variant
    cutoff = 2 * trunc if variant == G_PLUS else trunc
    weight = interval_indicator(*interval, cutoff)
    batch = empirical_batch(q, weight)
    limit = sample_limit_law(variant, weight, trunc, n_samples, seed)
    center = "none" if variant == G_MINUS else "tq"
    shift = batch.grid_mass / q if center == "tq" else 0.0
    re_law = limit.imag if variant == G_MINUS else limit.real
    return LawComparison(variant, cutoff, center, batch, limit, shift,
                         ks_distance(batch.values.real, re_law),
                         ks_distance(batch.values.imag, limit.imag))
