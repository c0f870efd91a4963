"""Gauss sum evaluation: direct vs closed vs fast, classes, series."""

import cmath
import math
import random

import numpy as np
import pytest

from gausslab import arith, weights
from gausslab import gauss_sums as gs
from gausslab.errors import DomainError, IndicatorKind, NotCoprime
from reference import epsilon, evaluate, series_terms_reference

ONE = weights.constant_weight()


def series_at(variant, w, x, cutoff=None):
    """The weight's quadratic series at the float points x, by sample_limit_law's route."""
    terms = gs.series_terms(w, variant, cutoff, arith.INT64_ROOT)
    return gs.quadratic_series(*terms, np.atleast_1d(x))


def quadratic_linear_sum(p, k, q):
    """Brute-force sum_h e_q(p h^2 + k h), the completing-the-square oracle."""
    return sum(cmath.exp(2j * cmath.pi * ((p * h * h + k * h) % q) / q) for h in range(q))


class TestDirect:
    def test_q4(self):
        assert gs.gauss_sum_direct(ONE, 1, 4) == pytest.approx(2 + 2j)

    def test_q2(self):
        assert gs.gauss_sum_direct(ONE, 1, 2) == pytest.approx(0, abs=1e-12)

    def test_q3(self):
        assert gs.gauss_sum_direct(ONE, 1, 3) == pytest.approx(1j * math.sqrt(3))

    def test_noncoprime_allowed(self):
        # p = 2, q = 4: terms e(0), e(1/2), e(0), e(1/2) cancel
        assert gs.gauss_sum_direct(ONE, 2, 4) == pytest.approx(0, abs=1e-12)

    def test_magnitude_bound(self):
        w = weights.interval_indicator(0.0, 0.6, cutoff=8)
        for q in (7, 12, 30):
            bound = sum(abs(evaluate(w, h / q)) for h in range(q))
            for p in range(q):
                assert abs(gs.gauss_sum_direct(w, p, q)) <= bound + 1e-9


class TestDirectArray:
    """An array of p gives, entry by entry, the per-int O(q) sums."""

    W = weights.fourier_weight({-5: 0.3 - 1j, 0: 1.0, 2: 0.5j, 7: -0.25})

    # q = 1009 takes many blocks of rows; q = 1 and 2 are the degenerate grids
    @pytest.mark.parametrize("q", [1, 2, 7, 12, 1009])
    def test_matches_int_calls_and_definition(self, q):
        ev = gs.DirectEvaluator(self.W, q)
        ps = np.arange(-3, 2 * q + 3, dtype=np.int64)  # units, non-units, negatives
        got = ev(ps)
        assert got.shape == ps.shape
        assert np.max(np.abs(got - [ev(p) for p in ps.tolist()])) < 1e-12 * q
        # the definition, with the weight from its pointwise series and exact phases
        h = np.arange(q)
        phases = np.exp(2j * np.pi * (np.multiply.outer(ps, h * h) % q) / q)
        assert np.max(np.abs(got - phases @ evaluate(self.W, h / q))) < 1e-11 * q

    def test_keeps_the_array_shape(self):
        ev = gs.DirectEvaluator(self.W, 30)
        ps = np.arange(12, dtype=np.int64).reshape(3, 4)
        assert ev(ps).shape == (3, 4)
        assert ev(ps)[2, 1] == pytest.approx(ev(9), abs=1e-12)

    def test_numpy_scalar_gives_complex(self):
        ev = gs.DirectEvaluator(self.W, 1009)
        got = ev(np.int64(17))
        assert type(got) is complex
        assert got == pytest.approx(ev(17), abs=1e-12)

    @pytest.mark.parametrize("p", [2.5, np.array([1, 2.5])])
    def test_float_p_refused(self, p):
        # it was truncated to the value at p = 2
        with pytest.raises(DomainError, match="residues need integers"):
            gs.DirectEvaluator(self.W, 7)(p)

    def test_python_int_exact_beyond_int64(self):
        ev = gs.DirectEvaluator(self.W, 1009)
        assert ev(2**70 + 3) == ev((2**70 + 3) % 1009)

    def test_value_depends_on_w_p_q_only(self):
        # the same bits for p alone, as a one-entry array and inside all units of q
        rng = np.random.default_rng(17)
        w = weights.fourier_weight({k: complex(rng.normal(), rng.normal()) for k in range(-8, 9)})
        for q in range(3, 401):
            ev = gs.DirectEvaluator(w, q)
            units = arith.units(q)
            together = ev(units)
            for i, p in enumerate(units.tolist()):
                alone = np.array([ev(p), ev(units[i:i + 1])[0]])
                assert alone.tobytes() == together[[i, i]].tobytes(), (p, q)


class TestClosed:
    def test_array_matches_scalar(self):
        for q in range(1, 301):
            ps = arith.units(q)
            got = gs.gauss_sum_closed(ps, q)
            assert got.tolist() == [gs.gauss_sum_closed(p, q) for p in ps.tolist()], q

    def test_q4(self):
        assert gs.gauss_sum_closed(1, 4) == pytest.approx(2 + 2j)

    def test_q3(self):
        assert gs.gauss_sum_closed(1, 3) == pytest.approx(1j * math.sqrt(3))

    def test_q6_vanishes(self):
        assert gs.gauss_sum_closed(1, 6) == 0

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            gs.gauss_sum_closed(2, 4)

    def test_float_p_refused(self):
        # it was truncated to the value at p = 2
        with pytest.raises(DomainError, match="residues need integers"):
            gs.gauss_sum_closed(2.5, 9)

    def test_matches_direct_sweep(self):
        for q in range(1, 129):
            ev = gs.DirectEvaluator(ONE, q)
            for p in arith.units(q).tolist():
                gap = abs(ev(p) - gs.gauss_sum_closed(p, q))
                assert gap < 1e-6 * math.sqrt(q), (p, q)

    def test_normalized_value_sets(self):
        for q in range(4, 201, 4):
            if arith.is_perfect_square(q):
                continue
            for p in arith.units(q).tolist():
                z = gs.gauss_sum_closed(p, q) / math.sqrt(q)
                assert min(abs(z - w) for w in (1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j)) < 1e-9
        for q in range(3, 201, 2):
            eps_sqrt = epsilon(q) * math.sqrt(q)
            for p in arith.units(q).tolist():
                z = gs.gauss_sum_closed(p, q) / eps_sqrt
                assert min(abs(z - s) for s in (1, -1)) < 1e-9


class TestReduceNoncoprime:
    """g(w, p, q) = g(w_r, p/r, q/r) for r = gcd(p, q), w_r = reduce_weight(w, r)."""

    def test_two_four(self):
        w2 = weights.reduce_weight(ONE, 2)
        assert w2.coefficients == {0: 2 + 0j}
        assert gs.gauss_sum_direct(ONE, 2, 4) == pytest.approx(
            gs.gauss_sum_direct(w2, 1, 2), abs=1e-12)

    def test_six_nine(self):
        rng = np.random.default_rng(23)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-7, 8)})
        lhs = gs.gauss_sum_direct(w, 6, 9)
        rhs = gs.gauss_sum_direct(weights.reduce_weight(w, 3), 2, 3)
        assert abs(lhs - rhs) < 1e-9

    def test_sweep(self):
        rng = np.random.default_rng(29)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-5, 6)})
        for q in range(2, 61):
            ev = gs.DirectEvaluator(w, q)
            for p in range(1, q + 1):
                r = math.gcd(p, q)
                if r == 1:
                    continue
                rhs = gs.gauss_sum_direct(weights.reduce_weight(w, r), p // r, q // r)
                assert abs(ev(p) - rhs) < 1e-8 * q


class TestSeriesTermsOracle:
    """series_terms folds bit for bit as the dict fold of reference.series_terms_reference."""

    @staticmethod
    def same(got, want):
        (ns, cs), (ns_ref, cs_ref) = got, want
        assert ns.dtype == ns_ref.dtype == np.int64 and ns.tolist() == ns_ref.tolist()
        assert cs.shape == cs_ref.shape and cs.tobytes() == cs_ref.tobytes()

    @pytest.mark.parametrize("which", ["fig1", "fig2", "fig3"])
    def test_figure_weights(self, which):
        # the weights of `figure`, at the coefficient cutoffs 8000, 4000 and 5000
        from gausslab.cli import FIGURES

        q, trunc, _ = FIGURES[which]
        variant = gs.modulus_case(q).variant
        w = weights.interval_indicator(0.0, 1 / math.sqrt(7),
                                       2 * trunc if variant == gs.G_PLUS else trunc)
        for cutoff in (trunc, None):
            self.same(gs.series_terms(w, variant, cutoff, arith.INT64_ROOT),
                      series_terms_reference(w.coefficients, variant, cutoff, arith.INT64_ROOT))

    @pytest.mark.parametrize("variant", gs.VARIANTS)
    def test_sparse_weight(self, variant):
        # gaps, negative frequencies without their positive partner and a -0.0 coefficient
        coeffs = {-403: 0.5j, -7: 1 - 2j, -2: -0.0, 0: 3.0, 2: -1j, 7: 0.25,
                  400: 0.75 + 0.5j, 1203: -0.5, -1203: 2.0 + 1e-17j}
        w = weights.fourier_weight(coeffs)
        for cutoff in (None, 0, 3, 600):
            self.same(gs.series_terms(w, variant, cutoff), series_terms_reference(coeffs, variant, cutoff))

    def test_functional_eq_batch_rows(self, monkeypatch):
        # the batch weight of verify.functional_eq_suite, caught at its fold, row by row
        from gausslab import verify

        folds = []

        def caught(w, variant):
            folds.append((w, variant))
            return gs.series_terms(w, variant)

        monkeypatch.setattr(verify, "series_terms", caught)
        verify.functional_eq_suite(q_max=3, n_weights=50)
        assert [v for _, v in folds] == list(gs.VARIANTS)
        for w, variant in folds:
            assert w.cs.shape == (50, 17)
            rows = [dict(zip(w.ks.tolist(), row)) for row in w.cs.tolist()]
            self.same(gs.series_terms(w, variant), series_terms_reference(rows, variant))


class TestLimitSeries:
    def test_constant_full(self):
        for x in (0.0, 0.37, 0.99):
            assert series_at(gs.G_FULL, ONE, x)[0] == 1

    def test_constant_minus_vanishes(self):
        for x in (0.1, 0.6):
            assert series_at(gs.G_MINUS, ONE, x)[0] == 0

    def test_two_unit_modes(self):
        w = weights.fourier_weight({1: 1.0, -1: 1.0})
        for x in (0.0, 0.25, 0.8):
            assert series_at(gs.G_FULL, w, x)[0] == pytest.approx(
                2 * cmath.exp(2j * cmath.pi * x))

    def test_cutoff_drops_terms(self):
        w = weights.fourier_weight({1: 1.0, 5: 1.0})
        full = series_at(gs.G_FULL, w, 0.3)[0]
        cut = series_at(gs.G_FULL, w, 0.3, cutoff=3)[0]
        assert cut == pytest.approx(cmath.exp(2j * cmath.pi * 0.3))
        assert abs(full - cut) > 0.1

    def test_negative_cutoff_refused(self):
        # a negative cutoff kept no term, so the series read 0 at every point
        w = weights.fourier_weight({0: 1.0, 1: 1.0})
        assert series_at(gs.G_FULL, w, [0.1, 0.2], cutoff=0).tolist() == [1, 1]
        # a fractional cutoff read as its floor, and NaN kept no term
        for cutoff in (-1, -5, 2.5, math.nan):
            with pytest.raises(DomainError, match="series cutoff must be >= 0"):
                series_at(gs.G_FULL, w, [0.1, 0.2], cutoff=cutoff)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [0.1, math.nan]])
    def test_non_finite_point_refused(self, x):
        # it read nan+nanj after a RuntimeWarning from the phase reduction
        w = weights.interval_indicator(0.0, 0.3, 50)
        with pytest.raises(DomainError, match="finite points only"):
            series_at(gs.G_FULL, w, x)

    def test_series_evaluator_refuses_non_finite_points(self):
        # the check sits in the float phases, so every caller of the evaluator meets it
        with pytest.raises(DomainError, match="finite points only"):
            gs.quadratic_series(np.array([0, 1]), np.array([1, 1j]), np.array([np.nan]))

    def test_indices_up_to_int64_root(self):
        # at float points every phase must fit int64: n^2 for n <= INT64_ROOT, and the
        # Horner step 2 d^2 of a two-term progression {0, d} is never taken
        d = 3 * 10**9
        one = series_at(gs.G_FULL, weights.fourier_weight({d: 1.0}), 0.3)[0]
        two = series_at(gs.G_FULL, weights.fourier_weight({0: 1.0, d: 1.0}), 0.3)[0]
        assert two == pytest.approx(1 + one, abs=1e-12)
        with pytest.raises(DomainError, match=f"series indices must be <= {arith.INT64_ROOT},"):
            series_at(gs.G_FULL, weights.fourier_weight({2**40: 1.0}), 0.3)

    def test_plus_uses_even_indices(self):
        w = weights.fourier_weight({2: 1.0, 3: 5.0})
        # only k = 2n even indices contribute; n = 1 here
        assert series_at(gs.G_PLUS, w, 0.25)[0] == pytest.approx(
            cmath.exp(2j * cmath.pi * 0.25))

    @pytest.mark.parametrize("variant", gs.VARIANTS)
    def test_point_alone_equals_point_in_batch(self, variant):
        # a progression support (Horner) and a sparse one (one phase per term)
        dense = weights.as_fourier_series(weights.interval_indicator(0.0, 0.3, 600))
        sparse = weights.fourier_weight({1: 1.0, -3: 0.5j, 10: 0.25, 27: -1j})
        xs = np.random.default_rng(53).random(1000)
        for w in (dense, sparse):
            batch = series_at(variant, w, xs)
            for i in range(0, 1000, 37):
                assert series_at(variant, w, xs[i])[0] == batch[i], i
                assert series_at(variant, w, xs[i:i + 2])[0] == batch[i], i

    def test_recurrence_matches_direct_eval(self):
        rng = np.random.default_rng(31)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-300, 301)})
        xs = rng.random(700)
        fast = series_at(gs.G_FULL, w, xs)
        slow = np.zeros(700, dtype=complex)
        for k, c in w.coefficients.items():
            slow += c * np.exp(2j * np.pi * (k * k) * xs)
        scale = max(1.0, float(np.max(np.abs(slow))))
        assert np.max(np.abs(fast - slow)) < 1e-9 * scale

    def test_minus_recurrence_matches(self):
        rng = np.random.default_rng(37)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-301, 302)})
        xs = rng.random(700)
        fast = series_at(gs.G_MINUS, w, xs)
        slow = np.zeros(700, dtype=complex)
        for k, c in w.coefficients.items():
            if k % 2 != 0:
                slow += c * np.exp(2j * np.pi * (k * k) * xs)
        scale = max(1.0, float(np.max(np.abs(slow))))
        assert np.max(np.abs(fast - slow)) < 1e-9 * scale


class TestQuadraticGrid:
    @staticmethod
    def brute(ns, cs, N):
        # the definition term by term, phases reduced mod N in Python ints
        t = np.arange(N)
        out = np.zeros(N, dtype=complex)
        for n, c in zip(ns, cs):
            out += c * np.exp(2j * np.pi * ((n * n % N) * t % N) / N)
        return out

    @pytest.mark.parametrize("N", [2, 3, 101, 65537, 4, 1000, 5012])
    def test_matches_brute_force(self, N):
        rng = np.random.default_rng(N)
        # n and N - n, n + N, 2N + n collide at n^2 mod N; indices exceed N
        ns = [0, 1, N - 1, N + 1, 2 * N + 1, 7, 3 * N + 7] + rng.integers(0, 5 * N, 5).tolist()
        cs = (rng.normal(size=len(ns)) + 1j * rng.normal(size=len(ns))).tolist()
        expected = self.brute(ns, cs, N)
        got = gs.quadratic_grid(np.array(ns), np.array(cs), N)
        assert got.shape == (N,)
        assert np.max(np.abs(got - expected)) < 1e-12 * np.sum(np.abs(cs))

    @pytest.mark.parametrize("N", [131071, 131101])
    def test_rader_only_below_threshold(self, N):
        # 2^17 - 1 and 131101 are the primes next to _RADER_BELOW = 2^17: both routes match
        # the definition at each, and quadratic_grid takes Rader's only below
        assert 131071 < gs._RADER_BELOW < 131101
        rng = np.random.default_rng(N)
        ns = np.array([0, 1, N - 1, N + 1, 7, 3 * N + 7] + rng.integers(0, 5 * N, 5).tolist())
        cs = rng.normal(size=ns.size) + 1j * rng.normal(size=ns.size)
        expected = self.brute(ns.tolist(), cs.tolist(), N)
        squares = ns % N * (ns % N) % N
        rader = gs._rader_grid(squares, cs, N)
        binned = np.zeros(N, dtype=complex)
        np.add.at(binned, squares, cs)
        plain = np.fft.ifft(binned, norm="forward")
        for got in (rader, plain):
            assert np.max(np.abs(got - expected)) < 1e-12 * np.sum(np.abs(cs))
        assert np.array_equal(gs.quadratic_grid(ns, cs, N), rader if N < gs._RADER_BELOW else plain)

    @pytest.mark.parametrize("N", [7, 8])
    def test_indices_read_as_residues(self, N):
        # a float index was truncated to int64, so [1.5, 2.7] gave the grid of [1, 2];
        # 7 takes Rader's route and 8 the plain FFT
        cs = np.array([1.0, 2.0])
        with pytest.raises(DomainError, match="residues need integers"):
            gs.quadratic_grid([1.5, 2.7], cs, N)
        grid = gs.quadratic_grid(np.array([1, 2]), cs, N)
        big = np.array([1 + 10**30 * N, 2 - 10**30 * N], dtype=object)
        assert np.array_equal(gs.quadratic_grid(big, cs, N), grid)
        assert np.array_equal(gs.quadratic_grid([1, 2], cs, N), grid)

    @pytest.mark.parametrize("kind", ["series", "indicator"])
    def test_all_p_numerators_match_direct(self, kind):
        # one call gives g(w, p, q) for every p; exact for indicators too
        rng = np.random.default_rng(41)
        if kind == "series":
            w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                        for k in range(-9, 10)})
        else:
            w = weights.interval_indicator(0.0, 1 / math.sqrt(7), cutoff=16)
        for q in [*range(3, 201), 5012, 5013, 5014]:
            ps = arith.units(q)
            ev = gs.DirectEvaluator(w, q)
            direct = np.array([ev(p) for p in ps.tolist()])
            grid = gs.quadratic_grid(np.arange(q), weights.evaluate_grid(w, q), q)
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(grid[ps % q] - direct)) < 1e-13 * q * scale, q

    def test_numerator_grid_against_square_counts(self):
        # g(p) = sum_a B_a e(p a / q) with B_a = #{h in the interval: h^2 = a mod q}, so by
        # orthogonality sum_p |g(p)|^2 e(-p t / q) = q sum_a B_a B_{a+t}: integers, with no FFT.
        # g(p)^2 = sum_s C_s e(p s / q) with C = B * B cyclic mod q, so
        # sum_p |g(p)|^4 = q sum_s C_s^2, over every p = 0..q-1
        w = weights.interval_indicator(0.0, 1 / math.sqrt(7), cutoff=16)
        for q in [*range(3, 301), 200003, 200012, 200013, 200014]:
            values = weights.evaluate_grid(w, q)
            hs = np.flatnonzero(values)
            assert np.all(values[hs] == 1)
            counts = np.bincount(hs * hs % q, minlength=q)
            power = np.abs(gs.quadratic_grid(np.arange(q), values, q)) ** 2
            total = q * int(counts @ counts)
            p = np.arange(q)
            for t in (0, 1, 2, q // 3, q - 1):
                lhs = power @ np.exp(-2j * np.pi * (p * t % q) / q)
                rhs = q * int(counts @ np.roll(counts, -t))
                assert abs(lhs - rhs) <= 1e-12 * total, (q, t)
            if q <= 300:  # np.convolve is O(q^2)
                linear = np.convolve(counts, counts)  # exact int64: every entry is at most q^2
                folded = linear[:q].copy()
                folded[:q - 1] += linear[q:]
                fourth = q * int(folded @ folded)
                assert abs(power @ power - fourth) <= 1e-12 * fourth, q


class TestCompletingTheSquare:
    @pytest.mark.parametrize("q", [4, 8, 12, 16, 20])
    def test_even_shift(self, q):
        for p in arith.units(q).tolist():
            p_bar = pow(p, -1, q)
            g1 = gs.gauss_sum_closed(p, q)
            for n in range(-5, 6):
                lhs = quadratic_linear_sum(p, 2 * n, q)
                rhs = g1 * cmath.exp(-2j * cmath.pi * ((p_bar * n * n) % q) / q)
                assert abs(lhs - rhs) < 1e-9 * q, (p, q, n)

    @pytest.mark.parametrize("q", [4, 8, 12, 16, 20])
    def test_odd_shift_vanishes(self, q):
        for p in arith.units(q).tolist():
            for k in (-3, -1, 1, 3, 5):
                assert abs(quadratic_linear_sum(p, k, q)) < 1e-9 * q


class TestFast:
    def test_constant_equals_closed(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            q = int(rng.integers(1, 500))
            ps = arith.units(q)
            p = int(ps[rng.integers(0, len(ps))])
            assert gs.gauss_sum_fast(ONE, p, q) == pytest.approx(
                gs.gauss_sum_closed(p, q), abs=1e-9 * math.sqrt(q))

    def test_odd_mode_vanishes_mod4(self):
        w = weights.fourier_weight({3: 1.0})
        for q in (4, 8, 20, 36):
            for p in arith.units(q).tolist():
                assert abs(gs.gauss_sum_fast(w, p, q)) < 1e-9
                assert abs(gs.gauss_sum_direct(w, p, q)) < 1e-9 * q

    def test_random_weight_at_3_20(self):
        rng = np.random.default_rng(43)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-8, 9)})
        fast = gs.gauss_sum_fast(w, 3, 20)
        direct = gs.gauss_sum_direct(w, 3, 20)
        assert abs(fast - direct) < 1e-8 * math.sqrt(20)

    @pytest.mark.parametrize("q", [3, 4, 6, 9, 10, 12, 25, 49, 50, 98, 99, 100])
    def test_all_classes(self, q):
        rng = np.random.default_rng(q)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-6, 7)})
        ev = gs.DirectEvaluator(w, q)
        for p in arith.units(q).tolist():
            assert abs(gs.gauss_sum_fast(w, p, q) - ev(p)) < 1e-8 * math.sqrt(q)

    @pytest.mark.parametrize("q,trunc", [(5012, 4000), (5013, 4000), (5014, 5000)])
    def test_all_units_at_figure_moduli(self, q, trunc):
        # the figure weights; the points t_p/q' are read exactly, not rounded to floats
        cutoff = 2 * trunc if q % 4 == 0 else trunc
        w = weights.as_fourier_series(weights.interval_indicator(0.0, 1 / math.sqrt(7), cutoff))
        ps = arith.units(q)
        fast = gs.gauss_sum_fast_batch(w, ps, q)
        assert np.max(np.abs(fast - gs.DirectEvaluator(w, q)(ps))) <= 5e-12 * math.sqrt(q)

    @pytest.mark.parametrize("q", [5, 12, 50, 98, 5012, 5013, 5014])
    def test_int_p_equals_p_in_batch(self, q):
        rng = np.random.default_rng(q)
        dense = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                        for k in range(-40, 41)})
        sparse = weights.fourier_weight({2: 1.0, -5: 0.5j, 14: 0.25, 31: -1j})
        ps = arith.units(q)
        for w in (dense, sparse):
            batch = gs.gauss_sum_fast_batch(w, ps, q)
            for i in range(0, len(ps), max(1, len(ps) // 17)):
                assert gs.gauss_sum_fast_batch(w, int(ps[i]), q) == batch[i], (q, i)
                assert gs.gauss_sum_fast(w, int(ps[i]), q) == batch[i], (q, i)

    def test_edge_moduli(self):
        w = weights.fourier_weight({-3: 1 + 2j, 0: 0.5, 1: -1j, 5: 0.25})
        for q in (1, 2):
            assert gs.gauss_sum_fast(w, 1, q) == pytest.approx(
                gs.gauss_sum_direct(w, 1, q), abs=1e-12)

    def test_indicator_refused(self):
        w = weights.interval_indicator(0.0, 0.5, cutoff=16)
        with pytest.raises(IndicatorKind):
            gs.gauss_sum_fast(w, 1, 4)
        # the explicit conversion is accepted
        approx = gs.gauss_sum_fast(weights.as_fourier_series(w), 1, 4)
        assert isinstance(approx, complex)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            gs.gauss_sum_fast(ONE, 2, 4)


class TestSigmaClass:
    @staticmethod
    def values(q):
        return set(gs.modulus_case(q, arith.units(q)).classes.tolist())

    def test_quarter(self):
        assert gs.sigma_class(1, 8) == 1 and self.values(8) == {1, -1, 1j, -1j}

    def test_half(self):
        assert gs.sigma_class(2, 5) == -1 and self.values(5) == {1, -1}

    def test_odd_square_none(self):
        assert gs.sigma_class(1, 9) is None and self.values(9) == {None}

    def test_even_square_mod4(self):
        assert gs.sigma_class(5, 16) == 1 and gs.sigma_class(3, 16) == -1
        assert self.values(16) == {1, -1}

    def test_two_mod_four(self):
        # q/2 = 3 non-square: (2/3) = -1
        assert gs.sigma_class(1, 6) == -1 and self.values(6) == {1, -1}
        # q/2 = 9 square
        assert gs.sigma_class(1, 18) is None and self.values(18) == {None}

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            gs.sigma_class(2, 8)

    def test_labels(self):
        # the samples CSV labels each class value by one table lookup
        from gausslab.cli import SIGMA_LABELS

        assert [SIGMA_LABELS[gs.sigma_class(p, 8)] for p in (1, 3, 5, 7)] == ["1", "-i", "-1", "i"]
        assert SIGMA_LABELS[gs.sigma_class(1, 9)] == ""

    def test_half_class_matches_shifted_substitution(self):
        # for q = 2 mod 4 the class of p via (2p / (q/2)) agrees with the
        # class of p0 = (2p - q)/4 via (p0 / (q/2)) under p = 2 p0 + q/2 mod q
        for q in (6, 10, 14, 22, 26, 30):
            q0 = q // 2
            seen = set()
            for p0 in arith.units(q0).tolist():
                p = (2 * p0 + q0) % q
                if p == 0:
                    p = q
                assert math.gcd(p, q) == 1
                seen.add(p)
                assert arith.jacobi(2 * p, q0) == arith.jacobi(p0, q0), (p0, q)
            assert len(seen) == arith.analyze_modulus(q)[0]


class TestSymmetricWeights:
    def test_half_shift_symmetry_collapses_variants(self):
        # coefficients with c_{-n} = (-1)^n c_n come from w(x) = w(1/2 - x):
        # the odd-index series cancels, and the full series becomes the
        # even-index series under the measure-preserving map x -> 4x, so
        # the two define one and the same random variable
        rng = np.random.default_rng(47)
        coeffs = {0: complex(rng.normal())}
        for n in range(1, 9):
            c = complex(rng.normal(), rng.normal())
            coeffs[n] = c
            coeffs[-n] = (-1) ** n * c
        w = weights.fourier_weight(coeffs)
        for x in rng.random(25):
            gm = series_at(gs.G_MINUS, w, float(x))[0]
            assert abs(gm) < 1e-10
            gp4 = series_at(gs.G_PLUS, w, (4 * float(x)) % 1.0)[0]
            gf = series_at(gs.G_FULL, w, float(x))[0]
            assert abs(gp4 - gf) < 1e-9



def functional_eq_reference(q_max, n_weights, n_p=5, support=8, tol=1e-6, seed=20260809):
    """verify.functional_eq_suite as one fast and one direct call per (weight, q).

    The same draws of random.Random(seed) in the same order: every weight's
    coefficients as pairs of gauss draws, then per modulus one little-endian
    uint64 key of randbytes per (weight, unit); weight w checks the units
    of its n_p smallest keys.  Returns (checked, worst, failure lines).
    """
    rng = random.Random(seed)
    ws = [weights.fourier_weight({k: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                                  for k in range(-support, support + 1)})
          for _ in range(n_weights)]
    checked, worst, failures = 0, 0.0, []
    for q in range(3, q_max + 1):
        units = arith.units(q)
        keys = np.frombuffer(rng.randbytes(8 * n_weights * len(units)), dtype="<u8")
        keys = keys.reshape(n_weights, len(units))
        for w, key in zip(ws, keys):
            ps = np.sort(units[np.argsort(key)[:n_p]])
            gaps = np.abs(gs.gauss_sum_fast_batch(w, ps, q) - gs.DirectEvaluator(w, q)(ps))
            scale = tol * math.sqrt(q)
            checked += len(ps)
            worst = max(worst, float(np.max(gaps / scale, initial=0.0)))
            failures += [f"p={p} q={q} |fast-direct|={g:.3e}"
                         for p, g in zip(ps, gaps) if not g < scale]
    return checked, worst, failures


def batch(ws):
    """The weights ws, all on the frequencies of ws[0], as one batch weight: row i is ws[i]."""
    return weights.WeightFunction(ws[0].ks, np.stack([w.cs for w in ws]))


class TestWeightAxis:
    """A batch weight evaluates each row as that weight alone would."""

    @pytest.mark.parametrize("support", [range(-8, 9), (-7, -3, 0, 2, 5, 11)],
                             ids=["progression", "sparse"])
    def test_rows_equal_single_weight_calls(self, support):
        # the fast side of verify.functional_eq_suite: one fold per variant, then per
        # modulus one case and one series call on the (W, terms) block
        rng = np.random.default_rng(len(support))
        ws = [weights.fourier_weight({k: complex(rng.normal(), rng.normal()) for k in support})
              for _ in range(3)]
        terms = {v: gs.series_terms(batch(ws), v) for v in gs.VARIANTS}
        for q in range(3, 401):  # every class mod 4
            units = arith.units(q)
            ps = np.array([np.sort(rng.choice(units, min(len(units), 6), replace=False))
                           for _ in ws])
            case = gs.modulus_case(q, ps)
            fast = case.normalizers * gs.quadratic_series(*terms[case.variant], case.points(),
                                                          case.point_map[1])
            direct = gs.DirectEvaluator(batch(ws), q)(ps)
            assert fast.shape == direct.shape == ps.shape
            for i, w in enumerate(ws):
                assert fast[i].tobytes() == gs.gauss_sum_fast_batch(w, ps[i], q).tobytes(), (q, i)
                assert direct[i].tobytes() == gs.DirectEvaluator(w, q)(ps[i]).tobytes(), (q, i)

    @pytest.mark.parametrize("tol", [1e-6, 1e-14])  # 1e-14 makes hundreds of violations
    def test_suite_equals_per_weight_loop(self, tol, monkeypatch):
        from gausslab import verify

        monkeypatch.setattr(verify, "FUNCTIONAL_EQ_TOL", tol)
        result = verify.functional_eq_suite(q_max=60, n_weights=4)
        checked, worst, failures = functional_eq_reference(q_max=60, n_weights=4, tol=tol)
        assert (result.checked, result.worst) == (checked, worst)
        assert sorted(result.failures) == sorted(failures)
        assert (len(failures) > 0) == (tol < 1e-6)

    def test_single_weight_shapes_and_types(self):
        w = weights.fourier_weight({-2: 1.0, 0: 0.5j, 3: -0.25})
        q, ps = 12, np.array([1, 5, 7, 11])
        ev = gs.DirectEvaluator(w, q)
        assert ev.q == q
        assert type(ev(7)) is complex
        assert ev(ps).shape == (4,) and ev(ps).dtype == np.complex128
        assert ev(ps.reshape(2, 2)).shape == (2, 2)
        assert type(gs.gauss_sum_fast(w, 7, q)) is complex
        assert type(gs.gauss_sum_fast_batch(w, 7, q)) is np.complex128
        assert gs.gauss_sum_fast_batch(w, ps, q).shape == (4,)
        assert weights.evaluate_grid(w, q).shape == (q,)
        ns, cs = gs.series_terms(w, gs.G_FULL)
        assert ns.shape == cs.shape == (3,)
        assert series_at(gs.G_FULL, w, 0.25).shape == (1,)
        assert series_at(gs.G_FULL, w, np.array([0.1, 0.2])).shape == (2,)

    def test_grid_rows_of_either_kind(self):
        # a batch row is that series alone; an indicator is the exact 0/1
        # indicator, not its truncated series
        ws = [weights.fourier_weight({-3: c, 2: 0.5, 33: -c}) for c in (1j, 2.0, -0.5 + 1j)]
        grid = weights.evaluate_grid(batch(ws), 30)
        assert grid.shape == (3, 30)
        for row, w in zip(grid, ws):
            assert row.tobytes() == weights.evaluate_grid(w, 30).tobytes()
        w = weights.interval_indicator(0.25, 0.5, 20)
        assert weights.evaluate_grid(w, 32).tolist() == [8 <= h < 16 for h in range(32)]

    def test_p_needs_one_row_per_weight(self):
        ws = [weights.fourier_weight({1: 1.0, 2: 0.0}), weights.fourier_weight({1: 0.0, 2: 1.0})]
        for ps in (np.array([1, 2, 3, 4]), 3):
            with pytest.raises(ValueError):
                gs.DirectEvaluator(batch(ws), 7)(ps)
