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

The limit side samples the matching quadratic series at uniform random
points with the series evaluator of the fast path (exact phases, Horner's
rule for dense series; error below 1e-11 at the figure truncations), in
pieces spread over the usable cores, each piece writing its own slice of
one preallocated sample array.  A point gets the same bits alone as in
any piece, so the values do not depend on the core count or the piece
size.  Its moments k = 0, 2 and 4 are exact from the coefficients, once
per series variant in a moments run; any other k integrates the series on
one prime grid (a quadratic_grid call), which aliases for even k >= 6.

Every seeded draw of the package (these points, the functional_eq and
reduction suites, equidist's random:N) comes from the standard library's
random.Random(seed), for seeds >= 0, through _seeded_rng, so no command
imports numpy.random.  A point is (k >> 11) 2^-53 for a 64-bit word k of
one randbytes call (_uniform_words, _points).  A seed gives the same
points on every run.

Histograms, moments, and the two-sample KS distance quantify the agreement;
the KS distance evaluates both empirical CDFs in blocks of _KS_BLOCK
points, so beside the two sorted samples it holds O(_KS_BLOCK) memory.
"""

from __future__ import annotations

import math
import operator
import os
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from .errors import BadModulus, DomainError, EmptyInput
from .gauss_sums import (
    G_PLUS,
    ModulusCase,
    _quadratic_series,
    _variant_terms,
    gauss_sum_fast_batch,
    modulus_case,
    quadratic_grid,
)
from .weights import WeightFunction, check_interval, evaluate_grid, grid_in_interval

# most points per sampling piece: on 2 cores pieces of 4k-8k points lost to
# the serial loop through GIL hand-offs between ufunc calls, 16k-24k did best
_CHUNK = 3 << 13
# points per block of ks_distance's CDF evaluation
_KS_BLOCK = 1 << 16
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
    """Refuse a bad window (BadInterval), then a modulus below 3 (BadModulus)."""
    if window is not None:
        check_interval(*window)
    if q < 3:
        raise BadModulus(f"modulus must be >= 3, got {q}")


def _admissible_sums(q: int, w: WeightFunction, window: tuple[float, float] | None, fast: bool):
    """Units p of q (in [1, q) for q >= 3) in the window, g(w, p, q) at each, and w on h/q."""
    ps = arith.units(q)
    if window is not None:
        ps = ps[grid_in_interval(ps, q, *window)]
    grid = evaluate_grid(w, q)
    if fast:
        return ps, gauss_sum_fast_batch(w, ps, q), grid
    return ps, quadratic_grid(np.arange(q), grid, q)[ps], grid


def empirical_batch(q: int, w: WeightFunction, window: tuple[float, float] | None = None,
                    fast: bool = False) -> EmpiricalBatch:
    """One normalized sample per admissible p, sorted by p.

    window None keeps every unit, a pair (a, b) the units with p/q in [a, b).
    fast=True routes the numerator through the functional equations and requires
    a finite-series weight; the default direct route is exact for indicators too.
    """
    _check_input(q, window)
    ps, numerators, grid = _admissible_sums(q, w, window, fast)
    case = modulus_case(q, ps)
    return EmpiricalBatch(case, numerators / case.normalizers, float(grid.sum().real))


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _seeded_rng(seed: int) -> random.Random:
    """random.Random(seed), the generator of every seeded draw, for an integer seed >= 0.

    Random would read a negative seed as |seed|, so one is refused (DomainError).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return random.Random(seed)


def _uniform_words(rng: random.Random, n: int) -> np.ndarray:
    """n uniform 64-bit words: one rng.randbytes(8 n), read in place as little-endian uint64."""
    return np.frombuffer(rng.randbytes(8 * n), dtype="<u8")


def _points(words: np.ndarray) -> np.ndarray:
    """The uniform points (k >> 11) 2^-53 of [0, 1) of the 64-bit words k, numpy's random() rule."""
    return (words >> 11) * 2.0 ** -53


def sample_limit_law(variant: str, w: WeightFunction, cutoff: int | None,
                     n_samples: int, seed: int) -> np.ndarray:
    """Series values at n_samples uniform points, deterministic in seed.

    The points are the _points of n_samples _uniform_words of
    random.Random(seed), for a seed >= 0 (a negative seed is a DomainError).
    The words are cut into equal contiguous pieces, a multiple of the usable
    cores with at most _CHUNK words each, and worker threads turn each piece
    into its points and evaluate them (numpy releases the GIL inside each
    array pass), each into its own slice of the one complex128 result
    array; beside that array the draw holds only the words' byte buffer.
    The evaluator gives every point the same bits alone as in any batch,
    so the values do not depend on the core count or the piece size.
    """
    from concurrent.futures import ThreadPoolExecutor

    if n_samples < 1:
        raise DomainError(f"need at least one sample, got {n_samples}")
    ns, cs = _variant_terms(w.coefficients, variant, cutoff, arith.INT64_ROOT)
    words = _uniform_words(_seeded_rng(seed), n_samples)
    cores = _usable_cores()
    pieces = cores * -(-n_samples // (cores * _CHUNK))
    values = np.empty(n_samples, dtype=np.complex128)

    def fill(k: np.ndarray, dest: np.ndarray) -> None:
        dest[:] = _quadratic_series(ns, cs, _points(k))

    with ThreadPoolExecutor(max_workers=cores) as pool:
        list(pool.map(fill, np.array_split(words, pieces), np.array_split(values, pieces)))
    return values


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


def _limit_moments(variant: str, w: WeightFunction, ks, grid_size: int | None = None) -> list:
    """limit_moment for each k of ks, with at most one quadratic_grid call, made only if needed."""
    if not all(0 <= k < math.inf for k in ks):
        raise DomainError(f"moment orders must be finite and >= 0, got {ks}")
    if grid_size is not None and grid_size < 2:
        raise DomainError(f"grid size must be >= 2, got {grid_size}")
    ns, cs = _variant_terms(w.coefficients, variant, None)
    exact = {0: 1.0, 2: float(np.sum(np.abs(cs) ** 2))}
    if 4 in ks:
        exact[4] = _fourth_moment(ns, cs)
    if any(k not in exact for k in ks):
        grid_size = grid_size or _next_prime(max(65537, 2 * int(ns.max(initial=0)) + 1))
        a = np.abs(quadratic_grid(ns, cs, grid_size))
    return [exact[k] if k in exact else float(np.sum(a ** k)) / grid_size for k in ks]


def limit_moment(variant: str, w: WeightFunction, k: float,
                 grid_size: int | None = None) -> float:
    """k-th absolute moment of the series G(x) = sum_n c_n e(n^2 x) at a uniform x.

    k = 0, 2 and 4 are exact from the coefficients, whatever grid_size is: 1,
    sum |c_n|^2 over the folded c_n (Parseval) and sum_s |C_s|^2,
    C_s = sum_{n1^2 + n2^2 = s} c_n1 c_n2.  Every other k is the rectangle rule on
    one quadratic_grid of grid_size points, by default the least prime N >= 65537 above
    twice the largest index n_max.  A non-even k is a quadrature there, and an even
    k >= 6 aliases: |G|^k has frequencies up to (k/2) n_max^2, which fold mod N
    (k = 6 at G_full, interval:0,0.3, trunc 600: 3.4e-3 relative).
    """
    return _limit_moments(variant, w, [k], grid_size)[0]


@dataclass(frozen=True)
class MomentReport:
    k: float
    empirical: float
    limit: float
    relative_gap: float


def empirical_moment(q: int, w: WeightFunction, window: tuple[float, float] | None = None,
                     k: float = 2.0, fast: bool = False) -> MomentReport | list[MomentReport]:
    """Normalized empirical k-th moment next to its limit value.

    The empirical side is (1/(phi(q)(b - a))) sum |g(w,p,q)|^k over the units
    p with p/q in the window [a, b) (every unit and b - a = 1 for window None),
    divided by |D(p)|^k: (2q)^{k/2} for even q and q^{k/2} for odd q.  A bad
    window or q is refused before any grid.  The limit side is limit_moment of
    the matching series variant; for indicator weights that is their truncated series.

    k may be a sequence of orders: the reports then come as a list in k
    order, and all k share one numerator grid and one _limit_moments call.
    """
    ks = list(k) if np.ndim(k) else [k]
    limits = _limit_moments(_limit_variant(q, window), w, ks)
    reports = _moment_reports(q, w, window, ks, fast, limits)
    return reports if np.ndim(k) else reports[0]


def _limit_variant(q: int, window: tuple[float, float] | None) -> str:
    _check_input(q, window)  # a bad window or q is refused before any work
    return modulus_case(q).variant


def _moment_reports(q: int, w: WeightFunction, window, ks: list, fast: bool, limits: list) -> list:
    """empirical_moment's reports at a checked q for the orders ks, beside their limit values."""
    case = modulus_case(q)
    mags = np.abs(_admissible_sums(q, w, window, fast)[1])
    measure = arith.analyze_modulus(q).phi * (1 if window is None else window[1] - window[0])
    empirical = [float(np.sum(mags ** j)) / measure / case.norm_sq ** (j / 2) for j in ks]
    return [MomentReport(j, e, lim, abs(e - lim) / max(lim, 1e-12))
            for j, e, lim in zip(ks, empirical, limits)]


@dataclass
class Histogram:
    """Binned counts with a density normalized to unit mass in range.

    Out-of-range values land in the below/above overflow counters, never
    silently dropped; total counts the in-range values only.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    density: np.ndarray
    total: int
    below: int
    above: int


def histogram(values, bins: int = 40, value_range: tuple[float, float] | None = None) -> Histogram:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInput("cannot bin an empty sample set")
    if bins < 1:
        raise DomainError(f"need at least one bin, got {bins}")
    if value_range is None:
        lo, hi = float(arr.min()), float(arr.max())
        if lo == hi:
            # constant data: one unit-wide range centred on the value
            lo, hi = lo - 0.5, hi + 0.5
        value_range = (lo, hi)
    lo, hi = value_range
    if not lo < hi:
        raise DomainError(f"need lo < hi, got ({lo}, {hi})")
    # edge i is the rounding of lo + (hi-lo)*i/bins, so a data value that
    # is the rounding of the same rational lands in the half-open bin to
    # its right; the top edge is closed
    edges = lo + (hi - lo) * np.arange(bins + 1, dtype=np.float64) / bins
    edges[-1] = hi
    below = int(np.count_nonzero(arr < lo))
    above = int(np.count_nonzero(arr > hi))
    in_range = arr[(arr >= lo) & (arr <= hi)]
    idx = np.clip(np.searchsorted(edges, in_range, side="right") - 1, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    total = int(counts.sum())
    widths = np.diff(edges)
    density = counts / (total * widths) if total else np.zeros(bins)
    return Histogram(edges, counts, density, total, below, above)


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|.

    The supremum is attained at a sample point: both CDFs are evaluated at
    the points of a, then of b, _KS_BLOCK at a time, with the quotients of
    the merged grid of all points but without building that grid.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise EmptyInput("cannot compare empty sample sets")
    worst = 0.0
    for points in (a, b):
        for lo in range(0, points.size, _KS_BLOCK):
            x = points[lo:lo + _KS_BLOCK]
            gap = np.abs(np.searchsorted(a, x, side="right") / a.size
                         - np.searchsorted(b, x, side="right") / b.size)
            worst = max(worst, float(gap.max()))
    return worst


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
