"""Weight functions: evaluation, analytic coefficients, r-fold reduction."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gausslab import weights
from gausslab.errors import DomainError, IndicatorKind
from gausslab.gauss_sums import gauss_sum_fast
from reference import evaluate


def riemann_coefficient(a, b, k, n_grid=200_000):
    """Independent oracle: midpoint quadrature of the indicator coefficient."""
    x = (np.arange(n_grid) + 0.5) / n_grid
    inside = (x >= a) & (x < b)
    return complex(np.sum(np.exp(-2j * np.pi * k * x[inside])) / n_grid)


class TestEvaluate:
    def test_constant(self):
        w = weights.constant_weight()
        for x in (0.0, 0.3, 0.999):
            assert evaluate(w, x) == 1

    def test_indicator_half(self):
        w = weights.interval_indicator(0.0, 0.5, cutoff=8)
        assert evaluate(w, 0.25) == 1
        assert evaluate(w, 0.75) == 0
        assert evaluate(w, 0.0) == 1
        assert evaluate(w, 0.5) == 0  # half-open right endpoint

    def test_single_mode(self):
        w = weights.fourier_weight({1: 1.0})
        assert evaluate(w, 0.5) == pytest.approx(-1.0)

    def test_periodicity(self):
        w = weights.fourier_weight({-2: 0.5j, 1: 1.0})
        assert evaluate(w, 0.3) == pytest.approx(evaluate(w, 1.3))

    def test_vectorized_matches_scalar(self):
        w = weights.fourier_weight({-1: 2.0, 0: 1.0, 3: -1j})
        xs = np.linspace(0, 1, 17, endpoint=False)
        vec = evaluate(w, xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(evaluate(w, float(x)))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, [0.1, math.nan]])
    def test_non_finite_point_refused(self, x):
        # x % 1.0 is NaN there, which the indicator read as 0 and a series as NaN
        for w in (weights.interval_indicator(0.0, 0.3, 50), weights.fourier_weight({1: 1.0})):
            with pytest.raises(DomainError, match="finite points only"):
                evaluate(w, x)


class TestIndicatorCoefficients:
    def test_full_interval(self):
        w = weights.interval_indicator(0.0, 1.0, 16)
        assert w.ks.dtype == np.int64 and w.cs.dtype == np.complex128
        assert w.ks.tolist() == [0, *range(1, 17), *range(-1, -17, -1)]
        coeffs = w.coefficients
        assert coeffs[0] == 1
        assert all(abs(coeffs[k]) < 1e-15 for k in coeffs if k != 0)

    def test_half_interval_formula(self):
        coeffs = weights.interval_indicator(0.0, 0.5, 16).coefficients
        assert coeffs[0] == pytest.approx(0.5)
        for k in range(1, 17):
            expected = (1 - (-1) ** k) / (2j * math.pi * k)
            assert coeffs[k] == pytest.approx(expected)
            assert coeffs[-k] == pytest.approx((1 - (-1) ** k) / (-2j * math.pi * k))

    def test_reference_interval_mean(self):
        coeffs = weights.interval_indicator(0.0, 1 / math.sqrt(7), 8).coefficients
        assert coeffs[0] == pytest.approx(0.37796447300922720, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(0.0, 0.3), (0.2, 0.9), (0.125, 0.625)])
    def test_against_quadrature(self, a, b):
        coeffs = weights.interval_indicator(a, b, 5).coefficients
        for k in range(-5, 6):
            assert coeffs[k] == pytest.approx(riemann_coefficient(a, b, k), abs=5e-5)

    @pytest.mark.parametrize("cutoff", [2.5, 0.5, math.nan, 0, -3])
    def test_cutoff_must_be_a_positive_integer(self, cutoff):
        # 2.5 kept |k| <= 3
        with pytest.raises(DomainError, match="cutoff must be a positive integer"):
            weights.interval_indicator(0, 0.5, cutoff)

    def test_bad_interval(self):
        with pytest.raises(DomainError, match="^need 0 <= a < b <= 1, got a=0.5, b=0.5$"):
            weights.interval_indicator(0.5, 0.5, 8)
        with pytest.raises(DomainError, match="^need 0 <= a < b <= 1, got a=0.9, b=0.2$"):
            weights.interval_indicator(0.9, 0.2, 8)

    def test_truncation_error_bound(self):
        # L2 mass beyond the cutoff obeys the explicit 1/k^2 tail bound
        a, b, cutoff = 0.0, 1 / math.sqrt(7), 64
        w = weights.interval_indicator(a, b, cutoff)
        grid = 1 << 15
        x = (np.arange(grid) + 0.5) / grid
        indicator = ((x >= a) & (x < b)).astype(float)
        series = np.zeros(grid, dtype=complex)
        for k, c in w.coefficients.items():
            series += c * np.exp(2j * np.pi * k * x)
        err_sq = float(np.mean(np.abs(indicator - series) ** 2))
        tail_bound = (1 / math.pi**2) * sum(2 / k**2 for k in range(cutoff + 1, 10**6))
        assert err_sq <= tail_bound + 1e-4


class TestParseval:
    def test_series_mean_square(self):
        rng = np.random.default_rng(7)
        ks = rng.choice(np.arange(-32, 33), size=20, replace=False)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal()) for k in ks})
        m = 4096
        grid = evaluate(w, np.arange(m) / m)
        lhs = float(np.mean(np.abs(grid) ** 2))
        rhs = sum(abs(c) ** 2 for c in w.coefficients.values())
        assert abs(lhs - rhs) < 1e-8


class TestReduceWeight:
    def test_identity(self):
        w = weights.fourier_weight({-2: 1j, 0: 2.0, 5: 1.0})
        assert weights.reduce_weight(w, 1) is w

    def test_constant(self):
        w = weights.constant_weight()
        for r in (2, 3, 7):
            reduced = weights.reduce_weight(w, r)
            assert reduced.coefficients == {0: complex(r)}

    def test_coefficient_identity(self):
        rng = np.random.default_rng(11)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-9, 10)})
        r = 3
        reduced = weights.reduce_weight(w, r)
        for n, c in reduced.coefficients.items():
            assert c == pytest.approx(r * w.coefficients[r * n])
        assert set(reduced.coefficients) == {-3, -2, -1, 0, 1, 2, 3}

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_matches_direct_fold_sum(self, r):
        rng = np.random.default_rng(13)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-8, 9)})
        reduced = weights.reduce_weight(w, r)
        for x in rng.random(20):
            direct = sum(evaluate(w, (x + k) / r) for k in range(r))
            assert abs(evaluate(reduced, float(x)) - direct) < 1e-10

    @pytest.mark.parametrize("r", [2.5, 2.0, np.float64(3.0), 0, -2])
    def test_refuses_an_r_that_is_not_a_positive_integer(self, r):
        # 2.5 read k = 5 as 5 % 2.5 == 0 and made frequency 2.0; 2.0 gave float frequencies
        w = weights.fourier_weight({0: 1, 1: .5, -3: .25, 5: 1j})
        with pytest.raises(DomainError, match=f"r must be a positive integer, got {r}$"):
            weights.reduce_weight(w, r)

    def test_annihilated_support(self):
        # no index divisible by 2: the compressed weight vanishes identically
        w = weights.fourier_weight({1: 1.0, -3: 2.0})
        reduced = weights.reduce_weight(w, 2)
        assert evaluate(reduced, 0.37) == 0


class TestGridEvaluation:
    def test_fft_path_matches_direct(self):
        rng = np.random.default_rng(17)
        w = weights.fourier_weight({int(k): complex(rng.normal(), rng.normal())
                                    for k in range(-150, 151)})
        q = 101
        grid = weights.evaluate_grid(w, q)
        direct = evaluate(w, np.arange(q) / q)
        assert np.max(np.abs(grid - direct)) < 1e-9

    @pytest.mark.parametrize("q", [1, 2, 7, 400])
    def test_sparse_series_matches_direct(self, q):
        # negative keys and keys >= q fold into the bins k mod q
        coeffs = {-403: 0.5j, -7: 1 - 2j, -1: 0.25, 0: 3.0, 2: -1j, 400: 0.75 + 0.5j, 1203: -0.5}
        w = weights.fourier_weight(coeffs)
        grid = weights.evaluate_grid(w, q)
        direct = evaluate(w, np.arange(q) / q)
        assert grid.shape == (q,)
        assert np.max(np.abs(grid - direct)) < 1e-11

    def test_window_bounds_match_fractions(self):
        # ceil(a q) = -(-n q // d) for a = n/d, against Fraction on random (a, b, q)
        rng = random.Random(5)
        for _ in range(2000):
            a, b = sorted((rng.random(), rng.random()))
            q = rng.randrange(1, 2**rng.randrange(1, 60))
            r = np.array([max(0, int(x * q) + d) for x in (a, b) for d in (-1, 0, 1)])
            want = [Fraction(a) * q <= x < Fraction(b) * q for x in r.tolist()]
            assert weights.grid_in_interval(r, q, a, b).tolist() == want, (a, b, q)

    def test_indicator_grid(self):
        w = weights.interval_indicator(0.0, 0.5, cutoff=4)
        grid = weights.evaluate_grid(w, 4)
        assert grid.tolist() == [1, 1, 0, 0]

    @pytest.mark.parametrize("q", [0, -3])
    def test_grid_size_below_1_refused(self, q):
        # a series raised ZeroDivisionError or "negative dimensions", an indicator gave []
        for w in (weights.interval_indicator(0.0, 0.3, 50), weights.fourier_weight({1: 1.0}),
                  weights.WeightFunction(np.arange(2), np.ones((3, 2), dtype=np.complex128))):
            with pytest.raises(DomainError, match=f"modulus must be a positive integer, got {q}"):
                weights.evaluate_grid(w, q)


class TestConversion:
    def test_as_fourier_series(self):
        w = weights.interval_indicator(0.2, 0.7, cutoff=32)
        s = weights.as_fourier_series(w)
        assert s.interval is None
        assert s.ks is w.ks and s.cs is w.cs

    def test_shared_arrays_are_read_only(self):
        # a write through the series changed the indicator's coefficients too
        a, b = 0.2, 0.7
        w = weights.interval_indicator(a, b, cutoff=32)
        s = weights.as_fourier_series(w)
        for arr in (s.cs, s.ks):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 7
        assert w.cs[0] == b - a and w.ks[0] == 0

    @pytest.mark.parametrize("k", [1.5, -0.7, math.nan, math.inf])
    def test_fourier_weight_refuses_non_integer_frequencies(self, k):
        with pytest.raises(DomainError, match=f"frequencies must be integers, got {k}$"):
            weights.fourier_weight({k: 1, 2: 2})

    @pytest.mark.parametrize("coefficients, bad", [({1: math.nan}, "nan"),
                                                   ({0: complex(0, math.inf)}, "infj"),
                                                   ({0: 1.0, 2: -math.inf}, "-inf")])
    def test_fourier_weight_refuses_non_finite_coefficients(self, coefficients, bad):
        # every evaluator returned NaN for such a weight
        with pytest.raises(DomainError, match=rf"coefficients must be finite, got .*{bad}"):
            weights.fourier_weight(coefficients)

    def test_fourier_weight_truncates_no_frequency(self):
        # {1.5: 1, -0.7: 2} read {1: 1, 0: 2}
        with pytest.raises(DomainError):
            weights.fourier_weight({1.5: 1, -0.7: 2})
        w = weights.fourier_weight({np.int64(3): 1, 2.0: 2, -1: 1j, 2**62: 0.5})
        assert w.coefficients == {3: 1, 2: 2, -1: 1j, 2**62: 0.5}
        assert all(type(k) is int for k in w.coefficients)
        # int64 cannot hold 2**70, which series_terms refused only later
        for k in (2**70, -2**63, 2**63):
            with pytest.raises(DomainError, match=rf"must be below 2\*\*63 in size, got {k}$"):
                weights.fourier_weight({k: 0.5})

    def test_interval_marks_an_indicator(self):
        assert weights.interval_indicator(0.2, 0.7, 32).interval == (0.2, 0.7)
        assert weights.fourier_weight({0: 1.0, 3: 0.5j}).interval is None
        w = weights.interval_indicator(0.0, 0.5, 8)
        with pytest.raises(IndicatorKind):
            gauss_sum_fast(weights.WeightFunction(w.ks, w.cs, (0.0, 0.5)), 1, 7)

    def test_indicator_mean_is_interval_length(self):
        w = weights.interval_indicator(0.0, 0.5, cutoff=64)
        assert w.coefficients[0] == pytest.approx(0.5)
