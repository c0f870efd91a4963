"""Incomplete Gauss sums three ways.

g(w, p, q) = sum_{h=0}^{q-1} w(h/q) e_q(p h^2) with e_q(x) = exp(2 pi i x / q).

* direct: the O(q) definition, with the phase p*h^2 reduced mod q in
  exact integer arithmetic before any floating-point conversion;
* closed: the classical complete sum (w = 1) in terms of the Jacobi
  symbol and the quartic unit factor;
* fast: O(#coefficients) evaluation of the incomplete sum through the
  functional equations, as a normalizer D(p) times a quadratic Fourier
  series evaluated at a rational point t/q' built from a modular inverse,
  with every phase k t mod q' reduced exactly in integers.

The quadratic series come in three variants keyed to q mod 4:

  G_plus(x)  = sum_n c_{2n} e(n^2 x)      (q = 0 mod 4)
  G_full(x)  = sum_n c_n   e(n^2 x)      (q odd)
  G_minus(x) = sum_{n odd} c_n e(n^2 x)  (q = 2 mod 4)

Evaluating these at a uniformly random point of [0, 1) gives the limit
law of the normalized incomplete sums; `distlab` builds on that.  One
evaluator, quadratic_series, serves the limit law and the fast path on
the terms of series_terms; quadratic_grid is its sibling on a grid.
It reads every e(k x) from an exact phase of its points: a float x is
split into its top 26 bits and a remainder, a fast-path point t/q' is
reduced as k t mod q'.  A support on an arithmetic progression (every
folded indicator series) is summed by Horner's rule, re-seeded from an
exact phase every 256 terms; any other support takes one phase per term.
Nothing switches on the number of points, and a point gets the same bits
alone as in any batch.  Over all units of q = 5012/5013/5014 at the
figure truncations the fast path is within 1.4e-12/2.6e-12/6.6e-13
sqrt(q) of the direct sum; at random float points the series errs below
1e-11.  On a rational grid t/N every such series (and, with the weight
values as coefficients, g(w, p, q) for all p at once) is one FFT:
quadratic_grid.

modulus_case is the one place that splits on q mod 4 and on whether q
(or q/2) is a square; the closed form, the fast path, the sigma classes,
`distlab` and `expsums` all read their case from it.  A sigma class is a
value, one array entry per unit: 1, -1, i or -i, or None when q (or q/2)
is an odd square.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import arith
from .errors import DomainError, IndicatorKind, NotCoprime
from .weights import WeightFunction, evaluate_grid

G_PLUS = "G_plus"
G_FULL = "G_full"
G_MINUS = "G_minus"
VARIANTS = (G_PLUS, G_FULL, G_MINUS)


# ---------------------------------------------------------------------------
# case dispatch
# ---------------------------------------------------------------------------

# characters of odd p: eps_p and (-1)^((p-1)/2) by p mod 4, (2/p) by p mod 8
_EPS = np.array([0, 1, 0, 1j])
_MINUS_ONE = np.array([0, 1, 0, -1])
_TWO = np.array([0, 1, 0, -1, 0, -1, 0, 1])
_LABELS = {(1, False): "g_phi(p,q)/g_1(p,q)", (1, True): "g_phi(p,q)/(eps_q sqrt(q))",
           (2, False): "g_phi(p,q)/(2 g_1(2p,q/2))", (2, True): "g_phi(p,q)/(eps_{q/2} sqrt(2q))"}


class ModulusCase(NamedTuple):
    """The case of one modulus, at one unit p (an int) or an array of units."""

    variant: str  # the series whose law the normalized sums follow
    label: str  # how g(w,p,q)/D(p) is written
    norm_sq: int  # |D(p)|^2 exactly: 2q for even q, q for odd q
    units: object  # p mod q
    normalizers: object  # D(p), also the complete sum g_1(p, q) unless q = 2 mod 4
    characters: object  # the twist eps_p (q/p), (p/q) or (2p/(q/2))
    classes: object  # the sigma class of each unit: 1, -1, i or -i; None for an odd square
    point_map: tuple[int, int]  # (a, q') of the fast-path point x_p = t_p/q'

    def points(self):
        """The numerators t_p = -inv(a p mod q') mod q' of the fast-path points x_p = t_p/q'."""
        a, modulus = self.point_map
        if isinstance(self.units, int):  # exact at any size; q' = 1 gives 0
            return -pow(a * self.units, -1, modulus) % modulus
        phi = arith.analyze_modulus(modulus).phi  # Euler: u^-1 = u^(phi - 1) for the checked units
        return -arith.power_mod(a * self.units, phi - 1, modulus) % modulus


def modulus_case(q: int, ps=()) -> ModulusCase:
    """The paper's case analysis of q, at p (an int, exact for any q) or an int64 array.

    q = 0 mod 4:  G_plus,  D(p) = (1+i) eps_p^{-1} (q/p) sqrt(q),   x_p = -inv(p, q)/q,
                  class eps_p (q/p), or p mod 4 for square q
    q = two m, m odd, two = 1 (G_full) or 2 (G_minus):
                  D(p) = two eps_m (two p/m) sqrt(m), |D|^2 = two q,   x_p = -inv(4 two p, m)/m,
                  class (two p/m), or none for square m

    Every p must be a unit of q (NotCoprime otherwise).
    """
    ps = arith.residues(ps, q)
    if q % 4 == 0:
        # (q/p) by reciprocity, with q = 2^k m and m odd: (2/p)^k (p/m) (-1)^((m-1)/2 (p-1)/2)
        k = (q & -q).bit_length() - 1
        m = q >> k
        jac = (_TWO[ps % 8] ** (k % 2) * arith.jacobi_array(ps, m)
               * _MINUS_ONE[ps % 4] ** (m // 2 % 2))
        eps = _EPS[ps % 4]
        characters = eps * jac
        normalizers = (1 + 1j) * np.conj(eps) * jac * math.sqrt(q)
        classes = 2 * (ps % 4 == 1) - 1 if arith.is_perfect_square(q) else characters
        case = ModulusCase(G_PLUS, "g_phi(p,q)/g_1(p,q)", 2 * q, ps,
                           normalizers, characters, classes, (1, q))
    else:
        two = 2 - q % 2
        m = q // two
        jac = arith.jacobi_array(two * ps, m)
        normalizers = two * (_EPS[m % 4] * jac * math.sqrt(m))
        square = arith.is_perfect_square(m)
        classes = np.full(np.shape(ps), None) if square else jac
        case = ModulusCase(G_FULL if two == 1 else G_MINUS, _LABELS[two, square], two * q, ps,
                           normalizers, jac, classes, (4 * two, m))
    # (p/m) and eps_p vanish exactly at the non-units, but for an even p at q = 2 mod 4
    if not np.all(case.characters * (ps % 2 if q % 4 == 2 else 1)):
        shared = math.gcd(ps, q) if isinstance(ps, int) else np.gcd(ps, q).max()
        raise NotCoprime(f"a residue shares the factor {shared} with {q}")
    return case


# ---------------------------------------------------------------------------
# direct summation
# ---------------------------------------------------------------------------

class DirectEvaluator:
    """Reusable O(q) evaluator for one weight, or a batch of W, and one modulus: the per-p oracle.

    Precomputes the q-th roots of unity and, for each h <= q/2, the weight's
    values at h/q and (q - h)/q added up, since they share the phase
    ((W, q//2 + 1) for a batch); each sum is a gather of roots[p h^2 mod q]
    times those, summed along h, with no transcendental calls.  numpy sums each
    row in an order fixed by q alone, so a value depends on (w, p, q) only,
    not on the p sharing its call.  It never goes through quadratic_grid or
    the fast path, so it can check both.
    """

    def __init__(self, w, q: int):
        if q < 1:
            raise DomainError(f"modulus must be positive, got {q}")
        self.q = q
        h = np.arange(q // 2 + 1, dtype=np.int64)
        self.h2 = (h * h) % q
        self.roots = np.exp(2j * np.pi * np.arange(q) / q)
        values = evaluate_grid(w, q)
        self._paired = values[..., :len(h)].copy()  # 0 < h < q/2 also takes q - h
        self._paired[..., 1:(q + 1) // 2] += values[..., :q // 2:-1]

    def __call__(self, p):
        """g(w, p, q) for one p (a complex; exact for an int of any size) or an int64 array.

        For a batch of W weights p is a (W, n) array, row w for weight w.
        """
        ps = arith.residues(p, self.q)
        if self._paired.ndim == 2 and (np.ndim(ps) != 2 or len(ps) != len(self._paired)):
            raise DomainError(f"{len(self._paired)} weights need a p array with one row per weight")
        block = ps if self._paired.ndim == 2 else np.reshape(ps, (1, -1))
        values = self._paired.reshape(-1, 1, len(self.h2))
        out = np.empty(block.shape, dtype=np.complex128)
        n = block.shape[1]
        rows = max(1, (1 << 13) // self.q)  # 2^15-phase blocks took 1 MB more, no faster
        group = max(1, rows // max(1, n))  # weights per block
        for first in range(0, len(block), group):
            ws = slice(first, first + group)
            for start in range(0, n, rows):
                t = block[ws, start:start + rows, None] * self.h2
                t -= t // self.q * self.q  # t % q; numpy floor-divides by a scalar 3x faster
                out[ws, start:start + rows] = (self.roots.take(t) * values[ws]).sum(axis=-1)
        return complex(out[0, 0]) if np.ndim(ps) == 0 else out.reshape(np.shape(ps))


def gauss_sum_direct(w: WeightFunction, p: int, q: int) -> complex:
    """The defining sum; p need not be coprime to q."""
    return DirectEvaluator(w, q)(p)


# ---------------------------------------------------------------------------
# complete sum, closed form
# ---------------------------------------------------------------------------

def gauss_sum_closed(p, q: int):
    """The complete sum (weight 1) for gcd(p, q) = 1; exact in p and q of any size.

    (1+i) eps_p^{-1} (q/p) sqrt(q)  if q = 0 mod 4,
    eps_q (p/q) sqrt(q)             if q odd,
    0                               if q = 2 mod 4.
    One p gives a complex, an array of units an array: modulus_case's
    normalizers D(p), or zeros for q = 2 mod 4.
    """
    case = modulus_case(q, p)
    complete = np.zeros_like(case.normalizers) if case.variant == G_MINUS else case.normalizers
    return complex(complete) if np.ndim(complete) == 0 else complete


# ---------------------------------------------------------------------------
# quadratic series kernel
# ---------------------------------------------------------------------------

def series_terms(w: WeightFunction, variant: str, cutoff: int | None = None,
                 index_max: int = 2**63 - 1) -> tuple[np.ndarray, np.ndarray]:
    """Fold a weight's series into terms c_n e(n^2 x), n >= 0: ascending ns and their cs.

    Indices n and -n share e(n^2 x), so their coefficients are summed;
    with distinct frequencies each n receives at most two, so the sum is
    exact in either order.  A batch weight keeps its batch axes in front
    of the terms.  cutoff bounds the series index |n| (not the coefficient
    index); a negative one, which would keep no term, or one that is not a
    whole number is a DomainError.  An index above index_max is a
    DomainError: series evaluated at float points pass arith.INT64_ROOT
    (see quadratic_series).
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    if cutoff is not None and (cutoff % 1 or cutoff < 0):  # NaN % 1 is NaN
        raise DomainError(f"series cutoff must be >= 0 and whole, got {cutoff}")
    kept = np.full(w.ks.shape, True) if variant == G_FULL else w.ks % 2 == (variant == G_MINUS)
    n = np.abs(w.ks) // (2 if variant == G_PLUS else 1)
    if cutoff is not None:
        kept &= n <= cutoff
    # return_inverse keeps np.unique off the path that imports numpy.ma
    ns, slots = np.unique(n[kept], return_inverse=True)
    if ns.size and ns[-1] > index_max:
        raise DomainError(f"series indices must be <= {index_max}, got {ns[-1]}")
    cs = np.zeros(w.cs.shape[:-1] + ns.shape, dtype=np.complex128)
    np.add.at(cs, (..., slots), w.cs[..., kept])
    return ns, cs


# Exact phases.  A float point is split as x = hi / 2^26 + lo with hi an int64,
# so k * hi mod 2^26 is exact for every int64 k (a wrapped product keeps its
# low bits) and k * lo < k / 2^26 carries the only rounding.  A rational point
# t/N is reduced as k t mod N in integers, which rounds nothing before e().
_PHASE_BITS = 26
_RESEED = 256  # Horner steps between exact re-seeds of the term ratio


def _phases(x, N: int | None = None):
    """The function k -> e(k x) over a point set, with k x reduced mod 1 before rounding.

    x is a float array (NaN or +-inf is a DomainError), or, given N, the
    numerators t of the points t/N, which are not checked: one int (exact
    in Python ints for any N) or an int64 array (for N <= arith.INT64_ROOT,
    so k t mod N cannot wrap).  The phases are always an array, so one
    point runs through the same loops as many.
    """
    if N is not None:
        return lambda k: np.exp(2j * np.pi * np.atleast_1d(k % N * x % N / N))
    xs = np.asarray(x, dtype=np.float64)
    if not np.isfinite(xs).all():
        raise DomainError("a series is evaluated at finite points only")
    xs = xs % 1.0  # e(k x) has period 1; keeps hi within int64
    scaled = np.floor(xs * float(1 << _PHASE_BITS))
    hi = scaled.astype(np.int64)
    lo = xs - scaled / float(1 << _PHASE_BITS)
    mask = (1 << _PHASE_BITS) - 1
    return lambda k: np.exp(2j * np.pi * ((k * hi & mask) / float(1 << _PHASE_BITS) + k * lo))


def quadratic_series(ns: np.ndarray, cs: np.ndarray, x, N: int | None = None) -> np.ndarray:
    """sum_j cs[..., j] e(ns[j]^2 x) at every point of _phases(x, N), as an array.

    cs is one coefficient vector, or a (W, terms) block with one row per
    weight and points x of shape (W, n), row w of x belonging to row w of
    cs; each coefficient is then a column cs[:, j] added across the points.
    A support on an arithmetic progression a + j d (every folded indicator
    series) is summed by Horner's rule from the last term: consecutive
    terms differ by the ratio e(d (2a + (2j+1) d) x), and each ratio is the
    next one times e(-2 d^2 x), so a step is two products and one sum.
    Every _RESEED steps the ratio is recomputed from its exact phase, which
    bounds the drift of the repeated products.  Any other support (a sparse
    series) takes one exact phase per term.  The choice depends on the
    support only.  Products go to a separate buffer, never into an input:
    numpy multiplies a one-element array in place through another loop,
    which can round differently.  So a point gets the same bits alone as in
    any batch, and a row of a block the same bits as its weight alone.
    At float points each phase k must fit int64, so the indices must be at
    most arith.INT64_ROOT, and the step 2 d^2 is taken only from three terms
    on, where d <= n_max / 2.
    """
    phase = _phases(x, N)
    terms = ns.tolist()
    coeffs = cs.tolist() if cs.ndim == 1 else list(cs.T[:, :, None])
    nonzero = np.any(np.atleast_2d(cs) != 0, axis=0).tolist()
    d = terms[1] - terms[0] if len(terms) > 1 else 1
    if not terms or terms != list(range(terms[0], terms[-1] + 1, d)):
        out = np.zeros_like(phase(0))
        for n, c in zip(terms, coeffs):
            out += c * phase(n * n)
        return out
    a = terms[0]
    last = len(coeffs) - 1
    step = phase(-2 * d * d if last > 1 else 0)
    acc = np.full(step.shape, coeffs[last], dtype=np.complex128)
    spare = np.empty_like(acc)
    for j in range(last - 1, -1, -1):
        if (last - 1 - j) % _RESEED == 0:
            ratio = phase(d * (2 * a + (2 * j + 1) * d))
        else:
            ratio, spare = np.multiply(ratio, step, out=spare), ratio
        acc, spare = np.multiply(acc, ratio, out=spare), acc
        if nonzero[j]:
            acc += coeffs[j]
    return np.multiply(acc, phase(a * a), out=spare)


def _primitive_root(p: int) -> int:
    """Smallest generator of the unit group of the prime p."""
    cofactors = [(p - 1) // f for f, _ in arith.factorize(p - 1)]
    g = 2
    while any(pow(g, c, p) == 1 for c in cofactors):
        g += 1
    return g


def _power_table(g: int, p: int) -> np.ndarray:
    """g^m mod p for m = 0..p-2, filled by doubling in log2(p) vector steps."""
    n = p - 1
    powers = np.empty(n, dtype=np.int64)
    powers[0] = 1
    filled = 1
    while filled < n:
        step = min(filled, n - filled)
        powers[filled:filled + step] = powers[:step] * pow(g, filled, p) % p
        filled += step
    return powers


# primes of quadratic_grid below this take _rader_grid
_RADER_BELOW = 1 << 17


def _rader_grid(ks: np.ndarray, cs: np.ndarray, p: int) -> np.ndarray:
    """sum_j cs[j] e(ks[j] t / p) for t = 0..p-1, a prime p >= 3 and 0 <= ks < p.

    Rader's reindexing (C. M. Rader, Proc. IEEE 56, 1968): with g a
    primitive root, k = g^m and t = g^a give
    kt = g^(m+a).  Binning the terms with k != 0 by their discrete log m
    turns every t != 0 into one cyclic correlation of length p - 1: three
    FFTs, a power of two for Fermat primes such as 65537, where numpy's
    prime-length FFT would pad to about twice the size.  Each length-p
    array is dropped once used, so at most three are alive at a time.
    Plain np.fft.ifft is as fast; in fresh processes (numpy 2.4.6, 2 cores,
    weight interval:0,0.3, 3 runs each) peak RSS read 32.4-32.6 MB with
    Rader and 33.5 MB without for moments --q 15013 --k-list 2 --trunc 500,
    31.8-31.9 and 31.7 MB for --q-range 5010..5015 --k-list 0,2,4 --trunc 600.
    So quadratic_grid takes this route only for primes p < _RADER_BELOW = 2^17,
    which keeps 5011 and 15013.  Above, p - 1 can keep a large prime factor
    (1000002 = 2 3 166667), and three FFTs of that length cost more than one
    of length p: moments --q 1000003 --k-list 2 took 1.62-1.78 s by Rader and
    1.03-1.16 s by np.fft.ifft (4 runs each), peaking at 261 and 237 MB.
    """
    n = p - 1
    powers = _power_table(_primitive_root(p), p)
    log = np.empty(p, dtype=np.int64)
    log[powers] = np.arange(n)
    nonzero = ks != 0
    binned = np.zeros(n, dtype=np.complex128)
    np.add.at(binned, log[ks[nonzero]], cs[nonzero])
    del log
    spectrum = np.fft.fft(np.exp((2j * np.pi / p) * powers))
    spectrum *= np.fft.ifft(binned, norm="forward")
    del binned
    correlation = np.fft.ifft(spectrum)
    del spectrum
    correlation += cs[~nonzero].sum()
    out = np.empty(p, dtype=np.complex128)
    out[0] = cs.sum()
    out[powers] = correlation
    return out


def quadratic_grid(ns, cs, N: int) -> np.ndarray:
    """sum_j cs[j] e(ns[j]^2 t / N) for every grid point t = 0..N-1.

    The integer indices ns (a non-integer is a DomainError) are binned at
    n^2 mod N in exact integer arithmetic, which leaves one unnormalized
    inverse DFT of length N: Rader's for a prime 3 <= N < _RADER_BELOW,
    numpy's FFT otherwise.
    """
    if N < 1:
        raise DomainError(f"grid size must be positive, got {N}")
    r = arith.residues(np.asarray(ns), N)
    squares = r * r % N
    cs = np.asarray(cs, dtype=np.complex128)
    if 3 <= N < _RADER_BELOW and arith.factorize(N) == [(N, 1)]:
        return _rader_grid(squares, cs, N)
    binned = np.zeros(N, dtype=np.complex128)
    np.add.at(binned, squares, cs)
    return np.fft.ifft(binned, norm="forward")


# ---------------------------------------------------------------------------
# functional-equation fast path
# ---------------------------------------------------------------------------

def gauss_sum_fast_batch(w: WeightFunction, ps, q: int):
    """Functional-equation evaluation for an array of units p at once (or one int p).

    D(p) G(x_p) by one modulus_case, one series_terms fold and one
    quadratic_series call: O(#coefficients + #p) after the modular
    inverses.  See gauss_sum_fast for the contract.
    """
    if w.interval is not None:
        raise IndicatorKind(
            "fast evaluation needs a finite Fourier series; "
            "convert indicators with as_fourier_series() first"
        )
    case = modulus_case(q, ps)
    ns, cs = series_terms(w, case.variant)
    series = quadratic_series(ns, cs, case.points(), case.point_map[1])
    values = np.atleast_1d(case.normalizers) * series
    return values[0] if np.ndim(case.units) == 0 else values


def gauss_sum_fast(w: WeightFunction, p: int, q: int) -> complex:
    """Incomplete sum via the functional equations, O(#coefficients).

    Equal to the direct sum for finite-series weights and coprime (p, q):
    D(p) G(x_p) with the normalizer, series and point of modulus_case.
    Raw indicators are refused (IndicatorKind): the caller must opt in
    to a truncated series so the truncation error stays visible.
    """
    return complex(gauss_sum_fast_batch(w, p, q))


# ---------------------------------------------------------------------------
# value classes
# ---------------------------------------------------------------------------

def sigma_class(p: int, q: int):
    """modulus_case(q, p).classes for one unit p: 1, -1, i or -i, or None for an odd square."""
    return np.asarray(modulus_case(q, p).classes).tolist()
