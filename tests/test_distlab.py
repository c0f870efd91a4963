"""Distribution laboratory: batches, limit sampling, moments, histograms, KS."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
import sympy

from gausslab import arith, distlab, gauss_sums, weights
from gausslab.errors import BadInterval, BadModulus, DomainError, EmptyInput
from gausslab.gauss_sums import G_FULL, G_MINUS, G_PLUS
from reference import discrete_factor_counts

B7 = 1 / math.sqrt(7)
ONE = weights.constant_weight()


def uniform_points(seed, n):
    """The n points sample_limit_law draws for seed, rebuilt through the package's draw helpers."""
    return distlab._points(distlab.uniform_words(distlab.seeded_rng(seed), n))


def midpoint_moment(w, k, size=10_001):
    """Mean of |sum_n c_n e(n^2 x)|^k by the midpoint rule on a grid unrelated to limit_moment's."""
    xs = (np.arange(size) + 0.5) / size
    vals = np.zeros(xs.shape, dtype=complex)
    for n, c in w.coefficients.items():
        vals += c * np.exp(2j * np.pi * (n * n) * xs)
    return float(np.mean(np.abs(vals) ** k))


def fast_values(w, q):
    """The functional equation's normalized values at every unit of q, in empirical_batch's order."""
    ps = arith.units(q)
    return gauss_sums.gauss_sum_fast_batch(w, ps, q) / gauss_sums.modulus_case(q, ps).normalizers


def fold(variant, w):
    """The series terms {n: c_n} of a variant, each n >= 0 once, from the weight's coefficient map."""
    terms = {}
    for k, c in w.coefficients.items():
        if variant == G_FULL or (k % 2 == 1) == (variant == G_MINUS):
            n = abs(k) // 2 if variant == G_PLUS else abs(k)
            terms[n] = terms.get(n, 0) + c
    return terms


def grid_moment(variant, w, k, size):
    """Mean of |G|^k by the rectangle rule on the points t/size: quadratic_grid of fold's terms."""
    terms = fold(variant, w)
    ns, cs = np.array(list(terms)), np.array(list(terms.values()), dtype=complex)
    return float(np.mean(np.abs(gauss_sums.quadratic_grid(ns, cs, size)) ** k))


def quadruple_fourth_moment(variant, w):
    """Mean of |G|^4 as the sum of c1 c2 conj(c3 c4) over every quadruple n1^2 + n2^2 = n3^2 + n4^2."""
    terms = fold(variant, w)
    ns, cs = np.array(list(terms)), np.array(list(terms.values()), dtype=complex)
    s = (ns[:, None] ** 2 + ns[None, :] ** 2).ravel()
    pairs = (cs[:, None] * cs[None, :]).ravel()
    same = (s[:, None] == s[None, :]).astype(float)
    return float((pairs @ same @ pairs.conj()).real)


def fraction_window(q, a, b):
    """The units p of q with a <= p/q < b, decided in Fraction arithmetic."""
    return [p for p in arith.units(q).tolist() if Fraction(a) <= Fraction(p, q) < Fraction(b)]


class TestDomainWindow:
    """A window is None (every unit) or a pair (a, b) of floats with 0 <= a < b <= 1."""

    def test_full(self):
        assert distlab.empirical_batch(7, ONE, None).case.units.tolist() == [1, 2, 3, 4, 5, 6]
        assert distlab.empirical_moment(7, ONE, None, k=0.0)[0] == 1.0

    def test_interval_membership_exact(self):
        # 1/8 is the left endpoint (kept), 3/8 the right one (dropped)
        assert distlab.empirical_batch(8, ONE, (0.125, 0.375)).case.units.tolist() == [1]

    # ids keep their numbers from a list that also held two-interval unions
    @pytest.mark.parametrize("a, b", [
        pytest.param(0.25, 0.5, id="intervals0"), pytest.param(0.1, 0.6, id="intervals2"),
        pytest.param(0.0, 1.0, id="intervals3"), pytest.param(1 / 3, 2 / 3, id="intervals4"),
        pytest.param(B7, 0.9, id="intervals6"),
    ])
    def test_array_test_matches_fraction_reference(self, a, b):
        # endpoints hit p/q exactly for every q divisible by 4; 1/3 and
        # 1/sqrt(7) are binary floats near, not at, a rational p/q
        for q in range(3, 301):
            assert distlab.empirical_batch(q, ONE, (a, b)).case.units.tolist() == \
                fraction_window(q, a, b), q

    def test_weight_grid_equals_window_mask(self):
        # one rule for r/q in [a, b), exact for the float endpoints
        ends = [0.0, 0.1, 0.2, 1 / 3, B7, 0.7, 1.0]
        pairs = [(a, b) for i, a in enumerate(ends) for b in ends[i + 1:]]
        ws = [weights.interval_indicator(a, b, cutoff=1) for a, b in pairs]
        for q in range(1, 301):
            for (a, b), w in zip(pairs, ws):
                lo, hi = Fraction(a) * q, Fraction(b) * q  # a <= h/q < b, scaled by q
                want = [complex(lo <= h < hi) for h in range(q)]
                assert weights.evaluate_grid(w, q).tolist() == want, (a, b, q)
                assert weights.grid_in_interval(np.arange(q), q, a, b).tolist() == want
        # fl(0.1) > 1/10, so [0, 0.1) holds 1/10 as well as 0/10
        grid = weights.evaluate_grid(weights.interval_indicator(0.0, 0.1, cutoff=1), 10)
        assert grid.real.tolist() == [1.0, 1.0] + [0.0] * 8

    def test_bad_interval_rejected(self, monkeypatch):
        calls = []
        real = distlab.quadratic_grid
        monkeypatch.setattr(distlab, "quadratic_grid", lambda *args: calls.append(args) or real(*args))
        for window in [(0.5, 0.5), (0.5, 0.2), (-0.1, 0.5), (0.5, 1.5), (math.nan, 0.5)]:
            with pytest.raises(BadInterval):
                distlab.empirical_batch(5, ONE, window)
            with pytest.raises(BadInterval):
                distlab.moment_reports(ONE, window, [0, 2])(5)
            # the window is refused first, also where q has no normalized law
            with pytest.raises(BadInterval):
                distlab.moment_reports(ONE, window, [0, 2])(2)
        assert calls == []

    @pytest.mark.parametrize("q", [9, 20, 101, 5013])
    @pytest.mark.parametrize("a, b", [(0.1, 0.6), (0.0, 0.3), (B7, 1.0)])
    def test_windowed_zeroth_moment(self, q, a, b):
        kept = len(fraction_window(q, a, b))
        phi, _ = arith.analyze_modulus(q)
        assert distlab.empirical_moment(q, ONE, (a, b), k=0.0)[0] == \
            pytest.approx(kept / (phi * (b - a)), rel=1e-15)


class TestEmpiricalBatch:
    @pytest.mark.parametrize("q", [1, 2])
    def test_moduli_below_3_refused(self, q):
        with pytest.raises(BadModulus, match="modulus must be >= 3"):
            distlab.empirical_batch(q, ONE)
        with pytest.raises(BadModulus, match="modulus must be >= 3"):
            distlab.moment_reports(ONE, None, [0, 2])(q)

    def test_constant_weight_q4(self):
        batch = distlab.empirical_batch(4, ONE)
        assert len(batch.values) == 2
        for v in batch.values:
            assert v == pytest.approx(1.0)

    def test_reference_counts(self):
        w = weights.interval_indicator(0.0, B7, cutoff=64)
        assert len(distlab.empirical_batch(5012, w).values) == 2136
        assert len(distlab.empirical_batch(5014, w).values) == 2376

    def test_normalization_labels(self):
        w = weights.interval_indicator(0.0, B7, cutoff=32)
        assert "g_1(p,q)" in distlab.empirical_batch(20, w).case.label
        assert "2 g_1(2p,q/2)" in distlab.empirical_batch(14, w).case.label
        assert "eps_q" in distlab.empirical_batch(9, w).case.label
        assert "eps_{q/2}" in distlab.empirical_batch(18, w).case.label

    def test_window_restriction(self):
        batch = distlab.empirical_batch(20, ONE, (0.0, 0.5))
        assert batch.case.units.tolist() == [1, 3, 7, 9]
        assert batch.case.classes.tolist() == [gauss_sums.sigma_class(p, 20) for p in (1, 3, 7, 9)]

    def test_empty_window_allowed(self):
        batch = distlab.empirical_batch(5, ONE, (0.81, 0.99))
        assert batch.case.units.size == 0 and batch.values.size == 0

    def test_fast_matches_direct(self):
        # the batch's numerator grid against the functional equation, per unit
        rng = np.random.default_rng(61)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-8, 9)})
        for q in (12, 15, 18, 25, 98):
            assert np.max(np.abs(distlab.empirical_batch(q, w).values - fast_values(w, q))) < 1e-8

    @pytest.mark.parametrize("q, cutoff", [(5012, 8000), (5013, 4000), (5014, 5000)])
    def test_truncated_figure_weights_match_fast_path(self, q, cutoff):
        # the figure weight's truncated series at its preset cutoff, over every unit of q
        w = weights.as_fourier_series(weights.interval_indicator(0.0, B7, cutoff))
        assert np.max(np.abs(distlab.empirical_batch(q, w).values - fast_values(w, q))) < 1e-11

    def test_sorted_by_residue(self):
        batch = distlab.empirical_batch(35, ONE)
        ps = batch.case.units
        assert np.all(np.diff(ps) > 0)

    def test_functional_equation_exactness_mod4(self):
        # for a series weight the batch values are series values at rationals
        rng = np.random.default_rng(67)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-6, 7)})
        batch = distlab.empirical_batch(16, w)
        ns, cs = gauss_sums.series_terms(w, G_PLUS, None, arith.INT64_ROOT)
        for p, v in zip(batch.case.units.tolist(), batch.values.tolist()):
            x = (-pow(p, -1, 16)) % 16 / 16
            assert v == pytest.approx(gauss_sums.quadratic_series(ns, cs, np.atleast_1d(x))[0],
                                      abs=1e-9)


class TestSampleLimitLaw:
    def test_constant_full(self):
        vals = distlab.sample_limit_law(G_FULL, ONE, None, 100, seed=1)
        assert np.allclose(vals, 1.0)

    def test_constant_minus(self):
        vals = distlab.sample_limit_law(G_MINUS, ONE, None, 100, seed=1)
        assert np.allclose(vals, 0.0)

    def test_mean_matches_zero_coefficient(self):
        w = weights.interval_indicator(0.0, 0.5, cutoff=4000)
        vals = distlab.sample_limit_law(G_FULL, weights.as_fourier_series(w),
                                        4000, 100_000, seed=5)
        assert abs(vals.real.mean() - 0.5) < 3 / math.sqrt(100_000)

    def test_deterministic_in_seed(self):
        w = weights.fourier_weight({1: 1.0, -2: 0.5j})
        a = distlab.sample_limit_law(G_FULL, w, None, 1000, seed=9)
        b = distlab.sample_limit_law(G_FULL, w, None, 1000, seed=9)
        c = distlab.sample_limit_law(G_FULL, w, None, 1000, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.array_equal(distlab.sample_limit_law(G_FULL, w, None, 1000, seed=np.int64(9)), a)

    @pytest.mark.parametrize("seed", [-1, -2**70])
    def test_negative_seed_refused(self, seed):
        # random.Random would read it as |seed|, an alias of another seed's stream
        with pytest.raises(DomainError, match="seed must be >= 0"):
            distlab.sample_limit_law(G_FULL, ONE, None, 10, seed=seed)

    def test_index_beyond_float_phases_refused(self, monkeypatch):
        # n^2 of a series index above INT64_ROOT would not fit the int64 phase product;
        # the weight is refused before any point is drawn
        monkeypatch.setattr(distlab, "uniform_words", lambda *args: pytest.fail("drew points"))
        with pytest.raises(DomainError, match=f"series indices must be <= {arith.INT64_ROOT},"):
            distlab.sample_limit_law(G_FULL, weights.fourier_weight({2**40: 1.0}), None, 10, seed=1)

    def test_negative_cutoff_refused(self, monkeypatch):
        # a negative cutoff kept no term, so every sample read 0; refused before any draw
        monkeypatch.setattr(distlab, "uniform_words", lambda *args: pytest.fail("drew points"))
        # a fractional cutoff drew the samples of its floor, and NaN kept no term
        for cutoff in (-5, 2.5, math.nan):
            with pytest.raises(DomainError, match="series cutoff must be >= 0"):
                distlab.sample_limit_law(G_FULL, ONE, cutoff, 3, 1)

    def test_points_are_the_top_53_bits_of_little_endian_words(self):
        import random

        data = random.Random(31).randbytes(8 * 300)
        words = [int.from_bytes(data[i:i + 8], "little") for i in range(0, len(data), 8)]
        got = uniform_points(31, 300)
        assert got.dtype == np.float64
        assert got.tolist() == [(k >> 11) / 2**53 for k in words]
        assert 0.0 <= got.min() and got.max() < 1.0

    @pytest.mark.parametrize("variant,trunc", [(G_PLUS, 4000), (G_FULL, 4000), (G_MINUS, 5000)])
    def test_matches_exact_phases_at_figure_truncations(self, variant, trunc):
        # sample i sits at x0 + j/M for the base point x0 = u/M of b = i // M and j = i % M;
        # x0 is a binary fraction t/2^e, so n^2 (x0 + j/M) mod 1 = (n^2 (M t + j 2^e) mod M 2^e)
        # / (M 2^e) exactly in Python ints, and each e(n^2 x) is rounded only once
        m = distlab._LATTICE
        coeff_cutoff = 2 * trunc if variant == G_PLUS else trunc
        w = weights.as_fourier_series(weights.interval_indicator(0.0, B7, coeff_cutoff))
        vals = distlab.sample_limit_law(variant, w, trunc, 1000, seed=17)
        base = uniform_points(17, -(-1000 // m)) / m
        ns, cs = gauss_sums.series_terms(w, variant, trunc)
        squares = np.array([n * n for n in ns.tolist()], dtype=object)
        picked = range(0, 1000, 10)
        exact = np.empty(len(picked), dtype=complex)
        for row, i in enumerate(picked):
            t, den = Fraction(float(base[i // m])).as_integer_ratio()
            modulus = m * den
            frac = ((squares * (m * t + i % m * den)) % modulus).astype(np.float64) / modulus
            exact[row] = np.sum(cs * np.exp(2j * np.pi * frac))
        assert np.max(np.abs(vals[::10] - exact)) <= 1e-11

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_bits_do_not_depend_on_core_count(self, cores):
        # the sampler keeps no shared state: draws run at once in `cores` threads
        # give the bits of one draw run alone
        w = weights.as_fourier_series(weights.interval_indicator(0.0, B7, 300))

        def draw(n):
            return distlab.sample_limit_law(G_FULL, w, 300, n, seed=23)

        sizes = (1, 1025, 20_000)
        alone = [draw(n) for n in sizes]
        with ThreadPoolExecutor(max_workers=cores) as pool:
            together = list(pool.map(draw, sizes * cores))
        for i, vals in enumerate(together):
            assert np.array_equal(vals, alone[i % len(sizes)]), sizes[i % len(sizes)]

    def test_bits_do_not_depend_on_piece_size(self):
        # a draw is the head of any larger draw: a base point's piece of M samples gets
        # the same bits whether or not the count cuts it off
        m = distlab._LATTICE
        w = weights.as_fourier_series(weights.interval_indicator(0.0, B7, 300))
        whole = distlab.sample_limit_law(G_FULL, w, 300, 50_000, seed=23)
        assert whole.shape == (50_000,)
        for n in (1, m - 1, m, m + 1, 1025, 50_000):
            head = distlab.sample_limit_law(G_FULL, w, 300, n, seed=23)
            assert np.array_equal(head, whole[:n]), n

    def test_draw_across_dft_blocks_is_the_head_of_a_larger_draw(self, monkeypatch):
        # the inverse DFT runs in place, _DFT_BLOCK base points at a time: a draw over three
        # blocks and part of a fourth is the head of a larger draw, and of one whole-array DFT
        m, block = distlab._LATTICE, distlab._DFT_BLOCK
        w = weights.as_fourier_series(weights.interval_indicator(0.0, B7, 50))
        n = m * 3 * block + m + 5
        head = distlab.sample_limit_law(G_FULL, w, 50, n, seed=29)
        whole = distlab.sample_limit_law(G_FULL, w, 50, n + m * block + 7, seed=29)
        assert np.array_equal(head, whole[:n])
        monkeypatch.setattr(distlab, "_DFT_BLOCK", 1 << 30)
        assert np.array_equal(distlab.sample_limit_law(G_FULL, w, 50, n, seed=29), head)

    def test_traced_peak_is_under_1_4_outputs(self):
        # the base points' sums become the samples in place; beside them the sampler holds
        # one class's series buffers (1/M of the output each) and one DFT block.  A
        # whole-array DFT peaked at 2.0-2.4 outputs here (2.4 with the first numpy.ma import)
        w = weights.as_fourier_series(weights.interval_indicator(0.0, B7, 50))
        tracemalloc.start()
        try:
            vals = distlab.sample_limit_law(G_FULL, w, 50, 200_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * vals.nbytes, peak / vals.nbytes

    @pytest.mark.parametrize("variant", [G_PLUS, G_FULL, G_MINUS])
    def test_seed_to_seed_spread_no_wider_than_iid(self, variant):
        # the M shifts of a base point stratify [0, 1): the KS distance between two seeds'
        # draws spreads no wider than between two draws of independent uniform points
        # (evaluated by the same series evaluator); 20 seed pairs fixed in advance
        trunc, n = 200, 5000
        coeff_cutoff = 2 * trunc if variant == G_PLUS else trunc
        w = weights.as_fourier_series(weights.interval_indicator(0.0, B7, coeff_cutoff))
        ns, cs = gauss_sums.series_terms(w, variant, trunc)
        lattice, iid = [], []
        for seed in range(20):
            a, b = (distlab.sample_limit_law(variant, w, trunc, n, s) for s in (seed, seed + 20))
            lattice.append(distlab.ks_distance(a.real, b.real))
            a, b = (gauss_sums.quadratic_series(ns, cs, uniform_points(s, n))
                    for s in (seed, seed + 20))
            iid.append(distlab.ks_distance(a.real, b.real))
        assert np.median(lattice) <= np.median(iid), (np.median(lattice), np.median(iid))


class TestLimitMoment:
    def test_k0(self):
        w = weights.fourier_weight({1: 2.0, -4: 1j})
        assert distlab.limit_moment(G_FULL, w, 0.0) == pytest.approx(1.0)

    def test_constant_any_k(self):
        for k in (0.5, 1.0, 2.0, 4.0):
            assert distlab.limit_moment(G_FULL, ONE, k) == pytest.approx(1.0)

    def test_k2_matches_coefficient_form(self):
        rng = np.random.default_rng(71)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-12, 13)})
        for variant in (G_PLUS, G_FULL, G_MINUS):
            quad = grid_moment(variant, w, 2.0, 65537)
            closed = distlab.limit_moment(variant, w, 2.0)
            assert abs(quad - closed) < 1e-10

    def test_k2_against_independent_quadrature(self):
        w = weights.fourier_weight({-2: 0.3, 1: 1.0, 3: -0.5j})
        oracle = midpoint_moment(w, 2.0)
        assert distlab.limit_moment(G_FULL, w, 2.0) == pytest.approx(oracle, abs=1e-6)

    def test_default_k2_against_midpoint_oracle(self):
        # the phases n^2 are 0..81, so |G|^2 has degree below the midpoint grid: exact up to rounding
        rng = np.random.default_rng(72)
        w = weights.fourier_weight({k: complex(rng.normal(), rng.normal()) for k in range(-9, 10)})
        assert distlab.limit_moment(G_FULL, w, 2.0) == pytest.approx(midpoint_moment(w, 2.0), rel=1e-12)

    @pytest.mark.parametrize("variant", [G_PLUS, G_FULL, G_MINUS])
    def test_k4_against_quadruple_enumeration(self, variant):
        rng = np.random.default_rng(74)
        cutoff = 80 if variant == G_PLUS else 40  # n_max = 40, or 39 for the odd n of G_minus
        random = weights.fourier_weight({k: complex(rng.normal(), rng.normal())
                                         for k in range(-cutoff, cutoff + 1)})
        indicator = weights.interval_indicator(0.0, 0.3, cutoff)
        for w in (random, indicator):
            assert 39 <= max(fold(variant, w)) <= 40
            oracle = quadruple_fourth_moment(variant, w)
            assert distlab.limit_moment(variant, w, 4.0) == pytest.approx(oracle, rel=1e-12, abs=0)

    @pytest.mark.parametrize("variant", [G_PLUS, G_FULL, G_MINUS])
    def test_k4_against_alias_free_grid(self, variant):
        # 1048583 > 2 * 600^2 exceeds every frequency n1^2 + n2^2 - n3^2 - n4^2 of |G|^4
        w = weights.interval_indicator(0.0, 0.3, 600)
        grid = grid_moment(variant, w, 4.0, 1048583)
        assert distlab.limit_moment(variant, w, 4.0) == pytest.approx(grid, rel=1e-12, abs=0)

    def test_k4_sparse_and_empty_series(self):
        # one term is |c|^4; n = 0, 1 and 10^5 give pair sums 0, 1, 2, then 10^10 and beyond,
        # and the next block starts there, not 10^10 / _SUM_BLOCK empty blocks later; G_minus
        # of the constant weight has no terms at all
        assert distlab.limit_moment(G_FULL, weights.fourier_weight({40000: 2.0}), 4.0) == 16.0
        w = weights.fourier_weight({0: 1.0, 1: 0.5, 100000: 1j})
        assert distlab.limit_moment(G_FULL, w, 4.0) == pytest.approx(quadruple_fourth_moment(G_FULL, w))
        assert distlab.limit_moment(G_MINUS, ONE, 4.0) == 0.0

    def test_exact_orders_at_indices_beyond_any_grid(self):
        # k = 2 needs no grid at any index; k = 4 refuses indices whose squares would wrap int64
        far = weights.fourier_weight({2 ** 40: 3.0})
        assert distlab.limit_moment(G_FULL, far, 2.0) == 9.0
        with pytest.raises(ValueError, match="fourth moment needs series indices"):
            distlab.limit_moment(G_FULL, far, 4.0)

    @pytest.mark.parametrize("variant", [G_PLUS, G_FULL, G_MINUS])
    def test_exact_orders_in_bounded_memory(self, variant):
        # the default 65537-point grid, which these orders no longer build, peaks near 3.7 MB
        w = weights.interval_indicator(0.0, 0.3, 600)
        tracemalloc.start()
        try:
            distlab._limit_moments(variant, w, [0, 2, 4])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    def test_large_truncation_in_bounded_memory(self):
        # an indicator of 160001 frequencies, built and folded: as a dict of Python
        # complexes with a Python fold it peaked at 20.9 MiB, as two arrays 10.4 MiB
        tracemalloc.start()
        try:
            distlab.limit_moment(G_PLUS, weights.interval_indicator(0.0, B7, 80_000), 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20, peak

    @pytest.mark.parametrize("k", [2.0, 4.0])
    def test_composite_grid_against_independent_quadrature(self, k):
        # the phases n^2 are 1, 4 and 9, so |G|^k is a trigonometric polynomial
        # of degree 4k, below both grid sizes: both rules are exact up to rounding
        w = weights.fourier_weight({-2: 0.3, 1: 1.0, 3: -0.5j})
        oracle = midpoint_moment(w, k)
        assert grid_moment(G_FULL, w, k, 1000) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("variant", [G_PLUS, G_FULL, G_MINUS])
    def test_grid_size_sizes_only_the_other_orders(self, variant):
        # k = 0, 2 and 4 are exact whatever the grid; other orders take the rectangle
        # rule on grid_size points, prime (Rader) or composite
        w = weights.interval_indicator(0.0, 0.3, 300)
        for size in (2, 1000, 65537):
            for k in (0, 2.0, 4):
                assert distlab.limit_moment(variant, w, k, grid_size=size) == \
                    distlab.limit_moment(variant, w, k)
            for k in (1.0, 3.0):
                assert distlab.limit_moment(variant, w, k, grid_size=size) == \
                    pytest.approx(grid_moment(variant, w, k, size), rel=1e-12)

    def test_indicator_k2(self):
        w = weights.interval_indicator(0.0, B7, cutoff=1000)
        series = weights.as_fourier_series(w)
        quad = grid_moment(G_FULL, series, 2.0, 65537)
        closed = distlab.limit_moment(G_FULL, series, 2.0)
        assert abs(quad - closed) < 1e-6


class TestNextPrime:
    def test_matches_sympy(self):
        # sympy.nextprime(n - 1) is the least prime >= n
        for n in [*range(3001), 65537]:
            assert distlab._next_prime(n) == sympy.nextprime(n - 1), n

    def test_default_limit_grid(self, monkeypatch):
        sizes = []
        real = distlab.quadratic_grid
        monkeypatch.setattr(distlab, "quadratic_grid", lambda ns, cs, n: sizes.append(n) or real(ns, cs, n))
        far = weights.fourier_weight({40000: 1.0})
        for k in (0.0, 2.0, 4.0):  # exact from the coefficients: no grid, even given a size
            distlab.limit_moment(G_FULL, ONE, k)
            distlab.limit_moment(G_FULL, far, k)
            distlab.limit_moment(G_FULL, far, k, grid_size=1000)
        assert sizes == []
        distlab.limit_moment(G_FULL, ONE, 1.0)
        distlab.limit_moment(G_FULL, far, 3.0)
        assert sizes == [65537, sympy.nextprime(2 * 40000)]


def relative_gap(pair):
    """The gap column of the moments command for one (empirical, limit) pair."""
    empirical, limit = pair
    return abs(empirical - limit) / max(limit, 1e-12)


class TestEmpiricalMoment:
    def test_constant_weight_odd_q(self):
        empirical, limit = distlab.empirical_moment(15, ONE, k=2.0)
        assert empirical == pytest.approx(1.0, abs=1e-12)
        assert limit == pytest.approx(1.0)
        assert relative_gap((empirical, limit)) < 1e-10

    def test_k0(self):
        empirical, limit = distlab.empirical_moment(12, ONE, k=0.0)
        assert empirical == pytest.approx(1.0)
        assert limit == pytest.approx(1.0)

    @pytest.mark.parametrize("q", [3, 4, 6, 9, 18, 101, 1009, 5012, 5013, 5014])
    def test_direct_route_matches_per_p_oracle(self, q):
        w = weights.interval_indicator(0.0, B7, cutoff=32)
        ev = gauss_sums.DirectEvaluator(w, q)
        sums = np.array([ev(p) for p in arith.units(q).tolist()])
        for k in (1.0, 2.0):
            normalizer = (2 * q) ** (k / 2) if q % 2 == 0 else q ** (k / 2)
            oracle = float(np.sum(np.abs(sums) ** k)) / (len(sums) * normalizer)
            empirical, _ = distlab.empirical_moment(q, w, k=k)
            assert empirical == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("q", [9, 12, 18, 101, 5012, 5013, 5014])
    # the indicator, exact on the grid ("direct"), or its truncated series, the fast path's input
    @pytest.mark.parametrize("series", [False, True], ids=["direct", "fast"])
    @pytest.mark.parametrize("window", [None, (0.1, 0.6)],
                             ids=["full", "window"])
    def test_k_sequence_matches_scalar_calls(self, q, series, window):
        w = weights.interval_indicator(0.0, B7, cutoff=32)
        if series:
            w = weights.as_fourier_series(w)
        ks = (0, 1, 2, 4)
        reports = distlab.moment_reports(w, window, ks)(q)
        assert isinstance(reports, list) and len(reports) == len(ks)
        for k, pair in zip(ks, reports):
            one = distlab.empirical_moment(q, w, window, float(k))
            assert isinstance(one, tuple) and len(one) == 2
            assert pair == one

    def test_large_order_against_per_p_oracle(self):
        # |g|^190 and |D|^190 overflow a float at q = 5013, while (|g|/|D|)^190 does not
        q, k = 5013, 190.0
        w = weights.interval_indicator(0.0, 0.5, cutoff=50)
        mags = np.abs(gauss_sums.DirectEvaluator(w, q)(arith.units(q))) / math.sqrt(q)
        (zero, _), (large, _) = distlab.moment_reports(w, None, [0.0, k])(q)
        assert zero == 1.0
        assert large == pytest.approx(float(np.mean(mags ** k)), rel=1e-9)
        assert 0 < large < math.inf

    def test_orders_out_of_float_range_refused(self):
        # 10^400 overflows, 0.5^2000 underflows; values all zero have a true moment 0.0
        ten, half, zero = np.full(3, 10.0), np.full(3, 0.5), np.zeros(3)
        with pytest.raises(DomainError, match=r"the limit moment of order k=400 .* inf$"):
            distlab._power_mean(ten, 400, 3, "limit")
        with pytest.raises(DomainError, match=r"the empirical \(q=7\) moment of order k=2000 .* 0.0$"):
            distlab._power_mean(half, 2000, 3, "empirical (q=7)")
        with pytest.raises(DomainError, match="order k=1074 .* 5e-324$"):  # a subnormal mean
            distlab._power_mean(half[:1], 1074, 1, "limit")
        assert distlab._power_mean(zero, 2000, 3, "limit") == 0.0
        assert distlab._power_mean(half, 1000, 3, "limit") == 0.5 ** 1000
        # the sum 3.6e308 overflows, though the mean 1.2e308 is a float
        with pytest.raises(DomainError, match="inf$"):
            distlab._power_mean(np.full(3, 1.2e308), 1, 3, "limit")

    @pytest.mark.parametrize("k", [math.nan, math.inf, -1.0])
    def test_bad_orders_rejected(self, k):
        # moment_reports refuses them itself, before its function meets any modulus
        for call in (lambda: distlab.empirical_moment(15, ONE, k=k),
                     lambda: distlab.moment_reports(ONE, None, (2.0, k)),
                     lambda: distlab.limit_moment(G_FULL, ONE, k)):
            with pytest.raises(DomainError, match="moment orders must be finite and >= 0"):
                call()

    def test_series_weight_gap_shrinks(self):
        rng = np.random.default_rng(73)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-5, 6)})
        small = relative_gap(distlab.empirical_moment(101, w, k=2.0))
        large = relative_gap(distlab.empirical_moment(1009, w, k=2.0))
        assert large < small
        assert large < 0.05


class TestCompareLaws:
    # the figure moduli and the rules of their series: (variant, coefficient cutoff per
    # unit of trunc, center); G_plus reads c_2n, so its weight needs coefficients up to 2K,
    # and the real part is shifted by t/q exactly when the series has c_0 (not G_minus)
    @pytest.mark.parametrize("q, variant, cutoff_per_trunc, center", [
        pytest.param(5012, G_PLUS, 2, "tq", id="fig1"),
        pytest.param(5013, G_FULL, 1, "tq", id="fig2"),
        pytest.param(5014, G_MINUS, 1, "none", id="fig3"),
    ])
    def test_rules_of_each_variant(self, q, variant, cutoff_per_trunc, center):
        interval, trunc, n_samples, seed = (0.0, B7), 12, 700, 3
        law = distlab.compare_laws(q, interval, trunc, n_samples, seed)
        w = weights.interval_indicator(*interval, cutoff_per_trunc * trunc)
        batch = distlab.empirical_batch(q, w)
        limit = distlab.sample_limit_law(variant, w, trunc, n_samples, seed)
        assert law.variant == variant
        assert law.coefficient_cutoff == cutoff_per_trunc * trunc
        assert law.center == center
        assert law.batch.case.units.tolist() == batch.case.units.tolist()
        assert law.batch.case.label == batch.case.label
        assert law.batch.values.tobytes() == batch.values.tobytes()
        assert law.batch.grid_mass == batch.grid_mass
        assert law.limit.dtype == limit.dtype and law.limit.tobytes() == limit.tobytes()
        assert law.shift == (batch.grid_mass / q if center == "tq" else 0.0)
        # under G_minus the real part follows the law of the limit's imaginary part
        re_law = limit.imag if variant == G_MINUS else limit.real
        assert law.ks_re == distlab.ks_distance(batch.values.real, re_law)
        assert law.ks_im == distlab.ks_distance(batch.values.imag, limit.imag)
        assert len(law) == 8  # every field is checked above


class TestHistogram:
    def test_single_bin(self):
        h = distlab.histogram([0.5] * 100, bins=1)
        assert h.counts.tolist() == [100]

    def test_uniform_grid(self):
        vals = np.arange(4000) / 4000
        h = distlab.histogram(vals, bins=40)
        assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == vals[-1]
        assert h.counts.tolist() == [100] * 40

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(79)
        h = distlab.histogram(rng.normal(size=5000), bins=37)
        widths = np.diff(h.bin_edges)
        assert float(np.sum(h.density * widths)) == pytest.approx(1.0, abs=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            distlab.histogram([], bins=10)

    def test_constant_data_gets_unit_range(self):
        h = distlab.histogram([0.5] * 10, bins=4)
        assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == 1.0
        assert h.counts.tolist() == [0, 0, 10, 0]

    @pytest.mark.parametrize("bins", [2.5, 0.5, math.nan, math.inf, 0, -3])
    def test_bins_must_be_a_positive_integer(self, bins):
        # 2.5 raised numpy's TypeError and nan a ValueError
        with pytest.raises(DomainError, match=f"bins must be a positive integer, got {bins}$"):
            distlab.histogram([1.0, 2.0, 3.0], bins=bins)

    def test_whole_float_bins(self):
        assert distlab.histogram([1.0, 2.0, 3.0], bins=2.0).counts.tolist() == [1, 2]

    def test_nan_data_rejected(self):
        # infinite data too: an infinite maximum gave the edges [nan, inf, inf, inf, inf]
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="cannot bin NaN or infinite values"):
                distlab.histogram([0.0, 1.0, bad], bins=4)

    @pytest.mark.parametrize("values", [
        [1e17],  # +-0.5 does not move 1e17: five equal edges, densities nan and inf
        [-1e308, 1e308],  # the width overflows: edges [nan, inf, inf, inf, 1e308]
        [0.0, 5e-324],  # bins below the least float: densities [nan, nan, inf, inf]
        [0.0, 2e-323],  # increasing subnormal edges, but a density 1/(2 5e-324) overflows
    ], ids=["constant-1e17", "width-overflows", "below-least-float", "subnormal-bins"])
    def test_range_without_finite_bins_refused(self, values):
        with pytest.raises(DomainError, match="bins of normal float width"):
            distlab.histogram(values, bins=4)


class TestKSDistance:
    def test_identical(self):
        assert distlab.ks_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint(self):
        assert distlab.ks_distance([0.0] * 10, [1.0] * 10) == 1.0

    def test_matches_scipy(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(5, 400)))
            b = rng.normal(loc=rng.normal(), size=int(rng.integers(5, 400)))
            ours = distlab.ks_distance(a, b)
            ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_same_law_two_seeds(self):
        w = weights.fourier_weight({-1: 0.5, 0: 1.0, 2: 1j})
        a = distlab.sample_limit_law(G_FULL, w, None, 10_000, seed=1)
        b = distlab.sample_limit_law(G_FULL, w, None, 10_000, seed=2)
        assert distlab.ks_distance(a.real, b.real) < 0.03

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            distlab.ks_distance([], [1.0])

    @pytest.mark.parametrize("a, b", [([0.1, math.nan, 0.3], [0.1, 0.2, 0.3]),
                                      ([0.1, 0.2, 0.3], [math.nan, 0.2]),
                                      ([math.nan] * 3, [math.nan] * 3)])
    def test_nan_rejected(self, a, b):
        # NaN has no place in an order: these read 0.333 and 0.0 before
        with pytest.raises(DomainError, match="NaN"):
            distlab.ks_distance(a, b)

    @pytest.mark.parametrize("a, b", [(np.array([1 + 5j, 2, 3 - 4j]), [1.0, 2.0, 3.0]),
                                      ([0.5], np.array([1j]))])
    def test_complex_rejected(self, a, b):
        # a float cast kept the real parts only: these read 0.0 and 1.0 before
        with pytest.raises(DomainError, match="samples must be real"):
            distlab.ks_distance(a, b)
        with pytest.raises(DomainError, match="samples must be real"):
            distlab.histogram(np.concatenate([a, b]))

    def test_infinite_values_keep_their_order(self):
        assert distlab.ks_distance([-math.inf, 0.0, math.inf], [-math.inf, 0.0, math.inf]) == 0.0
        assert distlab.ks_distance([0.0, math.inf], [0.0, 1.0]) == 0.5

    @staticmethod
    def merged_grid_ks(a, b):
        """The statistic on the merged grid of both samples, all points at once."""
        a, b = np.sort(a), np.sort(b)
        grid = np.concatenate([a, b])
        cdf_a = np.searchsorted(a, grid, side="right") / a.size
        cdf_b = np.searchsorted(b, grid, side="right") / b.size
        return float(np.max(np.abs(cdf_a - cdf_b)))

    # (blocks, extra): a sample of blocks * _KS_BLOCK + extra points
    @pytest.mark.parametrize("b_size", [(1, -1), (1, 0), (1, 1), (2, 3)])
    def test_blocks_equal_merged_grid_with_ties(self, b_size):
        block = distlab._KS_BLOCK
        rng = np.random.default_rng(sum(b_size) + 7)
        # values on a grid of 60 points: ties inside each sample and between the two
        a = rng.integers(0, 60, size=3001) / 7
        b = (rng.integers(0, 60, size=b_size[0] * block + b_size[1]) + 1) / 7
        ours = distlab.ks_distance(a, b)
        assert ours == self.merged_grid_ks(a, b)
        assert ours == distlab.ks_distance(b, a)
        assert ours == pytest.approx(scipy.stats.ks_2samp(a, b, method="asymp").statistic,
                                     abs=1e-12)

    # (blocks, extra): the supremum sits at point blocks * _KS_BLOCK + extra - 1 of b
    @pytest.mark.parametrize("at", [(1, 0), (1, 1), (2, 0)])
    def test_supremum_at_a_block_edge(self, at):
        n = at[0] * distlab._KS_BLOCK + at[1]
        # F_b - F_a peaks only at the largest point of b below the one point of a:
        # the last point of a block, or the first of the next
        a, b = np.array([1.5]), np.append(np.arange(n) / n, 2.0)
        assert distlab.ks_distance(a, b) == distlab.ks_distance(b, a) == n / (n + 1)
        assert self.merged_grid_ks(a, b) == n / (n + 1)

    def test_longer_first_sample_equals_merged_grid(self):
        rng = np.random.default_rng(11)
        a = np.round(rng.normal(size=2 * distlab._KS_BLOCK + 3), 2)
        b = np.round(rng.normal(loc=0.05, size=700), 2)
        ours = distlab.ks_distance(a, b)
        assert 0 < ours == self.merged_grid_ks(a, b)
        assert ours == pytest.approx(scipy.stats.ks_2samp(a, b, method="asymp").statistic,
                                     abs=1e-12)


class TestDiscreteFactorCounts:
    def test_q8(self):
        counts = discrete_factor_counts(8)
        assert counts == {1 + 1j: Fraction(1, 4), 1 - 1j: Fraction(1, 4),
                          -1 + 1j: Fraction(1, 4), -1 - 1j: Fraction(1, 4)}

    def test_q16(self):
        counts = discrete_factor_counts(16)
        assert counts == {1 + 1j: Fraction(1, 2), 1 - 1j: Fraction(1, 2)}

    def test_q15(self):
        counts = discrete_factor_counts(15)
        assert counts == {1 + 0j: Fraction(1, 2), -1 + 0j: Fraction(1, 2)}

    def test_frequencies_sum_to_one(self):
        for q in (8, 9, 14, 15, 16, 36, 98):
            assert sum(discrete_factor_counts(q).values()) == 1


class TestDistributionShapes:
    def test_imag_part_symmetric_when_coefficient_sums_real(self):
        rng = np.random.default_rng(5)
        coeffs = {0: 1.0 + 0j}
        for n in range(1, 9):
            c = complex(rng.normal(), rng.normal())
            coeffs[n] = c
            coeffs[-n] = c.conjugate()  # c_n + c_{-n} real
        w = weights.fourier_weight(coeffs)
        vals = distlab.sample_limit_law(G_FULL, w, None, 100_000, seed=13)
        im = vals.imag
        skew = float(np.mean((im - im.mean()) ** 3) / np.std(im) ** 3)
        assert abs(skew) < 5 / math.sqrt(100_000)

    def test_odd_series_real_imag_same_law(self):
        w = weights.interval_indicator(0.0, B7, cutoff=5000)
        vals = distlab.sample_limit_law(G_MINUS, weights.as_fourier_series(w),
                                        5000, 100_000, seed=12)
        assert distlab.ks_distance(vals.real, vals.imag) < 0.02

    def test_compact_support_stable_under_cutoff_doubling(self):
        w2 = weights.interval_indicator(0.0, B7, cutoff=4000)
        w4 = weights.interval_indicator(0.0, B7, cutoff=8000)
        s2 = distlab.sample_limit_law(G_PLUS, weights.as_fourier_series(w2),
                                      2000, 100_000, seed=11)
        s4 = distlab.sample_limit_law(G_PLUS, weights.as_fourier_series(w4),
                                      4000, 100_000, seed=11)
        m2, m4 = float(np.abs(s2).max()), float(np.abs(s4).max())
        assert m2 < 1.0 and m4 < 1.0  # recorded envelope, observed ~0.68
        assert abs(m4 - m2) < 0.05

    def test_class_value_independence_improves_with_q(self):
        # per-class real-part histograms converge to one law: the largest
        # pairwise KS over the four quarter-classes decreases along the sweep
        w = weights.interval_indicator(0.0, B7, cutoff=2000)
        maxima = []
        for q in (1012, 2012, 5012):
            batch = distlab.empirical_batch(q, w)
            by_class = {}
            for c, v in zip(batch.case.classes.tolist(), batch.values.tolist()):
                by_class.setdefault(c, []).append(v.real)
            assert len(by_class) == 4
            keys = sorted(by_class, key=lambda z: (complex(z).real, complex(z).imag))
            mx = max(distlab.ks_distance(by_class[keys[i]], by_class[keys[j]])
                     for i in range(4) for j in range(i + 1, 4))
            maxima.append(mx)
        assert maxima[0] > maxima[1] > maxima[2]

    def test_mean_square_bounded_by_weight_norm(self):
        # second-moment sanity: M_2(q)/q stays within a fixed multiple of
        # the squared L2 norm of the indicator weight
        w = weights.interval_indicator(0.0, B7, cutoff=2000)
        norm_sq = B7  # integral of the squared indicator
        for q in (5012, 5013, 5014):
            empirical, _ = distlab.empirical_moment(q, w, k=2.0)
            normalizer = (2 * q) if q % 2 == 0 else q
            m2_over_q = empirical * normalizer / q
            assert m2_over_q <= 10 * norm_sq
