"""The case dispatch and its array primitives against independent references.

sympy's Jacobi symbol and modular inverse, the scalar arith functions,
and DirectEvaluator's O(q) complete sums are the oracles; none of them
goes through the array code under test.
"""

import cmath
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslab import arith, weights
from gausslab import gauss_sums as gs
from gausslab.errors import BadModulus, DomainError
from reference import epsilon

ONE = weights.constant_weight()
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)

odd_moduli = st.integers(min_value=0, max_value=50_000).map(lambda k: 2 * k + 1)
# a prime factor above SQUARES_TABLE_MAX sends jacobi_array to Euler's criterion
large_factor_moduli = st.sampled_from([65537, 3 * 65537, 1_000_003, 65537 * 10007, 2**31 - 1])
int64_values = (st.integers(min_value=-1000, max_value=1000)
                | st.integers(min_value=2**62 - 1000, max_value=2**62 + 1000)
                | st.integers(min_value=-(2**62) - 1000, max_value=-(2**62) + 1000))


class TestJacobiArray:
    @PROPERTY
    @given(n=odd_moduli | large_factor_moduli,
           values=st.lists(int64_values, min_size=1, max_size=12))
    def test_matches_sympy_and_scalar(self, n, values):
        got = arith.jacobi_array(np.array(values, dtype=np.int64), n)
        assert got.tolist() == [sympy.jacobi_symbol(v, n) for v in values]
        assert got.tolist() == [arith.jacobi(v, n) for v in values]

    @pytest.mark.parametrize("n", [1, 3, 9, 15, 45, 343, 65537, 3 * 65537])
    def test_every_residue(self, n):
        a = np.arange(-n, 2 * n, dtype=np.int64) if n < 1000 else np.arange(0, 3000, dtype=np.int64)
        assert arith.jacobi_array(a, n).tolist() == [arith.jacobi(int(x), n) for x in a]

    def test_int_takes_the_exact_scalar_path(self):
        assert arith.jacobi_array(2**70 + 3, 2**89 - 1) == arith.jacobi(2**70 + 3, 2**89 - 1)

    def test_even_modulus_rejected(self):
        with pytest.raises(BadModulus, match="^modulus must be odd, got 12$"):
            arith.jacobi_array(np.arange(5), 12)

    def test_array_modulus_beyond_int64_products_refused(self):
        # residue products would wrap in int64; the array path refuses instead
        with pytest.raises(ValueError):
            arith.jacobi_array(np.arange(5), 2**61 - 1)


class TestInverses:
    @PROPERTY
    @given(q=st.integers(min_value=1, max_value=3000))
    def test_inverse_table_matches_sympy(self, q):
        ps, invs = arith.inverse_table(q)
        expected = [0 if q == 1 else sympy.mod_inverse(p, q) for p in ps.tolist()]
        assert invs.tolist() == expected

    def test_large_modulus(self):
        # the fast-path points invert 4p mod m by Euler's theorem at the int64 edge
        m = arith.INT64_ROOT - 2  # odd, so 2 is a unit
        ps = np.array([2, 3 if m % 3 else 5, m - 1], dtype=np.int64)
        assert gs.modulus_case(m, ps).points().tolist() == [-pow(4 * int(p), -1, m) % m for p in ps]


class TestModulusCase:
    def test_normalizers_match_direct_complete_sums(self):
        for q in range(1, 601):
            ps = arith.units(q)
            case = gs.modulus_case(q, ps)
            if q % 4 == 2:
                ev = gs.DirectEvaluator(ONE, q // 2)
                expected = [2 * ev(2 * p) for p in ps.tolist()]
            else:
                ev = gs.DirectEvaluator(ONE, q)
                expected = [ev(p) for p in ps.tolist()]
            assert np.max(np.abs(case.normalizers - expected)) < 1e-9 * math.sqrt(q), q
            assert np.abs(case.normalizers) ** 2 == pytest.approx(np.full(len(ps), case.norm_sq)), q

    def test_classes_match_sigma_class_docstring(self):
        for q in range(1, 601):
            ps = arith.units(q)
            got = gs.modulus_case(q, ps).classes.tolist()
            for p, value in zip(ps.tolist(), got):
                if q % 4 == 0 and arith.is_perfect_square(q):
                    expected = 1 if p % 4 == 1 else -1
                elif q % 4 == 0:
                    expected = epsilon(p) * arith.jacobi(q, p)
                elif q % 2 == 1:
                    expected = None if arith.is_perfect_square(q) else arith.jacobi(p, q)
                else:
                    expected = None if arith.is_perfect_square(q // 2) else arith.jacobi(2 * p, q // 2)
                assert value == expected, (p, q)
                assert gs.sigma_class(p, q) == expected, (p, q)

    def test_points_match_scalar_inverses(self):
        for q in range(1, 301):
            ps = arith.units(q)
            a, modulus = {0: (1, q), 2: (8, q // 2)}.get(q % 4, (4, q))
            expected = [0 if modulus == 1 else -pow(a * p, -1, modulus) % modulus
                        for p in ps.tolist()]
            assert gs.modulus_case(q, ps).points().tolist() == expected, q

    def test_int_and_array_agree(self):
        # q = 1 and 2 have q' = 1, so every point is 0
        for q in (1, 2, 5, 9, 12, 16, 18, 50, 98, 100, 5012, 5013, 5014):
            ps = arith.units(q)
            case = gs.modulus_case(q, ps)
            for i in (0, len(ps) // 2, len(ps) - 1):
                one = gs.modulus_case(q, int(ps[i]))
                assert complex(one.normalizers) == case.normalizers[i]
                assert np.asarray(one.classes).tolist() == case.classes.tolist()[i]
                assert isinstance(one.points(), int)
                assert one.points() == case.points()[i]

    @pytest.mark.parametrize("q", [4 * 10**12 + 4, 10**13 + 37, 2 * (10**13 + 37), 4 * (2**89 - 1)])
    def test_int_points_beyond_int64(self, q):
        # one int p is inverted by pow in Python ints, where int64 products would wrap
        a, modulus = {0: (1, q), 2: (8, q // 2)}.get(q % 4, (4, q))
        for p in (7, 10**12 + 1, q - 1, 3 * q + 5):
            if math.gcd(p, q) == 1:
                assert gs.modulus_case(q, p).points() == -pow(a * p, -1, modulus) % modulus

    def test_not_coprime(self):
        with pytest.raises(DomainError, match="^a residue shares the factor 6 with 12$"):
            gs.modulus_case(12, np.array([1, 5, 6]))
        with pytest.raises(DomainError, match="^a residue shares the factor 3 with 12$"):
            gs.modulus_case(12, 9)

    def test_refuses_exactly_the_non_units(self):
        # the unit check is read from the twist, which is 0 exactly at the non-units but for
        # an even p at q = 2 mod 4, where (2p/(q/2)) can be nonzero and p is refused on its own
        exceptions = 0
        for q in range(1, 201):
            for p in range(q):
                shared = math.gcd(p, q)
                exceptions += q % 4 == 2 and p % 2 == 0 and arith.jacobi(2 * p, q // 2) != 0
                for ps in (p, np.array([p])):
                    if shared == 1:
                        gs.modulus_case(q, ps)
                        continue
                    with pytest.raises(DomainError, match=f"shares the factor {shared} with {q}$"):
                        gs.modulus_case(q, ps)
        assert exceptions > 0


class TestLargeModuli:
    """Scalar entry points stay exact in Python ints at any size."""

    def test_closed_form_at_mersenne_prime(self):
        assert gs.gauss_sum_closed(5, 2**61 - 1) == 1518500249.988025j

    def test_quarter_class_beyond_int64_products(self):
        assert gs.sigma_class(5, 4 * 10**12 + 4) == 1
        assert gs.sigma_class(7, 4 * 10**12 + 4) in (1j, -1j)  # a quarter value

    def test_beyond_int64(self):
        q = 4 * (2**89 - 1)
        assert gs.sigma_class(7, q) == epsilon(7) * arith.jacobi(q, 7)
        assert gs.gauss_sum_fast(ONE, 7, q) == pytest.approx(gs.gauss_sum_closed(7, q))

    @pytest.mark.parametrize("coefficients", [
        {0: 1.0, 2: 0.5, -2: 0.25j, 4: -0.3, 6: 0.2 + 0.1j},  # n = 0..3, a progression
        {2: 1.0, -10: 0.5j, 14: 0.3, 3: 7.0},  # n = 1, 5, 7; odd k do not enter G_plus
    ])
    def test_weight_beyond_int64(self, coefficients):
        # D(p) sum_n c_2n e(n^2 t/q) with t = -inv(p) mod q, in Python ints and cmath
        q, p = 4 * (2**89 - 1), 7
        w = weights.fourier_weight(coefficients)
        t = -pow(p, -1, q) % q
        series = sum(c * cmath.exp(2j * math.pi * ((k // 2) ** 2 * t % q) / q)
                     for k, c in w.coefficients.items() if k % 2 == 0)
        d = (1 + 1j) * epsilon(p).conjugate() * arith.jacobi(q, p) * math.sqrt(q)
        assert abs(gs.gauss_sum_fast(w, p, q) - d * series) <= 1e-12 * math.sqrt(q)

    def test_numpy_integer_is_one_int(self):
        # a numpy scalar p takes the exact one-int path, not the int64 array path
        q = 4 * (2**89 - 1)
        assert gs.gauss_sum_fast(ONE, np.int64(7), q) == gs.gauss_sum_fast(ONE, 7, q)
        assert gs.gauss_sum_closed(np.int64(7), q) == gs.gauss_sum_closed(7, q)
        assert gs.sigma_class(np.int64(7), q) == gs.sigma_class(7, q)

    def test_arrays_refuse_instead_of_wrapping(self):
        with pytest.raises(ValueError):
            gs.gauss_sum_fast_batch(ONE, [5, 7], 2**61 - 1)


def test_traced_names_resolve():
    """Every layer the benchmark's external tracer wraps must exist in gausslab."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attrs in tracer.LAYERS.items():
        mod = importlib.import_module(f"gausslab.{module}")
        for attr in attrs:
            owner = mod
            for part in attr.split("."):
                assert hasattr(owner, part), f"gausslab.{module}.{attr}"
                owner = getattr(owner, part)
            assert callable(owner), f"gausslab.{module}.{attr}"
