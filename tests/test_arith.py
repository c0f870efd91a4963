"""Integer arithmetic layer: hand values, exhaustive small-range oracles."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslab import arith, distlab, expsums, gauss_sums, weights
from gausslab.errors import BadModulus, DomainError
from reference import epsilon


def legendre_by_squaring(a, p):
    """Quadratic residue symbol mod an odd prime by exhaustive squaring."""
    a %= p
    if a == 0:
        return 0
    residues = {(x * x) % p for x in range(1, p)}
    return 1 if a in residues else -1


class TestModInverse:
    """arith.inverse_table, the inverse of a whole unit group, against hand values and its rule."""

    @staticmethod
    def inverse(m):
        ps, invs = arith.inverse_table(m)
        return dict(zip(ps.tolist(), invs.tolist()))

    def test_three_mod_seven(self):
        assert self.inverse(7)[3] == 5

    @pytest.mark.parametrize("m", [2, 5, 12, 97])
    def test_one(self, m):
        assert self.inverse(m)[1] == 1

    @pytest.mark.parametrize("m", [5, 12, 97, 360])
    def test_involution(self, m):
        inverse = self.inverse(m)
        assert sorted(inverse) == [a for a in range(1, m) if math.gcd(a, m) == 1]
        for a, inv in inverse.items():
            assert 1 <= inv < m
            assert (a * inv) % m == 1
            assert inverse[inv] == a


class TestPowerMod:
    @pytest.mark.parametrize("m", [1, 2, 12, 97, arith.INT64_ROOT])
    def test_matches_pow(self, m):
        # bases outside [0, m), negative or near 2**62, are reduced before any product
        base = np.array([-7, 0, 1, 2, 5, 2**62, m - 1, m, m + 3], dtype=np.int64)
        for e in (0, 1, 2, 7, 96, 2**40 + 3):
            assert arith.power_mod(base, e, m).tolist() == [pow(int(b), e, m) for b in base]

    @pytest.mark.parametrize("m", [0, -5, arith.INT64_ROOT + 1])
    def test_refuses_moduli_whose_products_wrap(self, m):
        # residues' array rule: a positive integer modulus, at most INT64_ROOT
        rule = "modulus must be a positive integer" if m < 1 else f"need q <= {arith.INT64_ROOT}"
        with pytest.raises(DomainError, match=f"{rule}, got {m}"):
            arith.power_mod(np.arange(3), 2, m)

    def test_refuses_a_negative_exponent(self):
        # square and multiply would shift -1 right forever
        with pytest.raises(DomainError, match="exponent >= 0, got -1$"):
            arith.power_mod(np.arange(3), -1, 7)


class TestResidues:
    @pytest.mark.parametrize("values", [[1.5], np.array([2.0]), 2.5, np.float64(3.0),
                                        [1 + 0j], ["3"], np.array([[1.0], [2.0]])])
    def test_refuses_a_non_integer_dtype(self, values):
        with pytest.raises(DomainError, match="residues need integers"):
            arith.residues(values, 7)

    def test_refuses_a_non_integer_in_an_object_array(self):
        # 2**70 makes numpy build an object array; its 1.5 was truncated, reading [2, 1]
        with pytest.raises(DomainError, match="residues need integers, got 1.5"):
            arith.residues([2**70, 1.5], 7)

    def test_refuses_nan_without_a_warning(self):
        # cast to int64 it read -2**63, after a RuntimeWarning
        with pytest.raises(DomainError, match="dtype float64"):
            arith.residues(np.array([3, np.nan]), 7)

    def test_keeps_integer_inputs(self):
        assert arith.residues(np.int64(-3), 7) == 4
        assert arith.residues(2**70, 7) == 2**70 % 7
        assert arith.residues(np.array([2**70, -1], dtype=object), 7).tolist() == [2**70 % 7, 6]
        assert arith.residues(np.array([3, 9], dtype=np.uint8), 7).tolist() == [3, 2]
        for empty in ([], (), np.array([], dtype=np.float64)):
            got = arith.residues(empty, 7)
            assert got.dtype == np.int64 and got.shape == (0,)


NON_INTEGER_MODULUS_CALLS = {
    "factorize": arith.factorize,
    "analyze_modulus": arith.analyze_modulus,
    "units": arith.units,
    "residues-int": lambda m: arith.residues(9, m),
    "residues-array": lambda m: arith.residues(np.array([3, 9]), m),
    "power_mod": lambda m: arith.power_mod(np.array([2, 3]), 3, m),
    "jacobi_array-int": lambda m: arith.jacobi_array(3, m),
    "jacobi_array-array": lambda m: arith.jacobi_array(np.array([3, 9]), m),
    "modulus_case": lambda m: gauss_sums.modulus_case(m, 1),
    "quadratic_grid": lambda m: gauss_sums.quadratic_grid([1, 2], [1, 1j], m),
    "limit_moment": lambda m: distlab.limit_moment(
        gauss_sums.G_FULL, weights.fourier_weight({1: 1.0, 2: 0.5}), 3, grid_size=m),
}


@pytest.mark.parametrize("m", [7.5, 12.0])
@pytest.mark.parametrize("call", NON_INTEGER_MODULUS_CALLS.values(),
                         ids=NON_INTEGER_MODULUS_CALLS.keys())
def test_non_integer_modulus_refused(call, m):
    # it was reduced silently: analyze_modulus(7.5) read (6.5, 2), factorize(12.0) ended
    # in (3.0, 1) and residues(9, 7.5) read 1.5; a float grid size reached pow()
    with pytest.raises(DomainError):
        call(m)


MODULUS_RULE_CALLS = {
    "evaluate_grid-indicator": lambda q: weights.evaluate_grid(
        weights.interval_indicator(0.0, 0.3, 50), q),
    "evaluate_grid-series": lambda q: weights.evaluate_grid(weights.fourier_weight({1: 1.0}), q),
    "DirectEvaluator": lambda q: gauss_sums.DirectEvaluator(weights.constant_weight(), q),
    "gauss_sum_direct": lambda q: gauss_sums.gauss_sum_direct(weights.constant_weight(), 3, q),
    "quadratic_grid": lambda q: gauss_sums.quadratic_grid([1, 2], [1, 1j], q),
    "power_mod": lambda q: arith.power_mod(np.array([2, 3]), 3, q),
    "kloosterman": lambda q: expsums.kloosterman(1, 1, q),
    "unit_sums": lambda q: expsums.unit_sums(1, 1, q),
    "expsum_report": lambda q: expsums.expsum_report("kloosterman", 1, 1, q),
}


@pytest.mark.parametrize("q", [7.5, 12.0, 0, -3])
@pytest.mark.parametrize("call", MODULUS_RULE_CALLS.values(), ids=MODULUS_RULE_CALLS.keys())
def test_every_modulus_is_refused_by_the_residues_rule(call, q):
    # the grid, the evaluator and power_mod kept their own checks: evaluate_grid(w, 7.5)
    # gave 8 values, DirectEvaluator(w, 7.5) a TypeError and kloosterman(1, 1, 7.5) KeyError
    with pytest.raises(DomainError, match=f"^modulus must be a positive integer, got {q}$"):
        call(q)


class TestJacobi:
    @pytest.mark.parametrize("a", [-7, 0, 1, 2, 360])
    def test_denominator_one(self, a):
        assert arith.jacobi(a, 1) == 1

    def test_zero_over_minus_one(self):
        assert arith.jacobi(0, -1) == 1

    def test_two_over_fifteen(self):
        # (2/3)(2/5) = (-1)(-1)
        assert arith.jacobi(2, 15) == 1

    def test_sign_at_minus_one(self):
        assert arith.jacobi(-3, -1) == -1
        assert arith.jacobi(3, -1) == 1

    def test_even_modulus_rejected(self):
        with pytest.raises(BadModulus, match="^lower argument must be odd, got 4$"):
            arith.jacobi(3, 4)

    def test_zero_iff_common_factor_exhaustive(self):
        for b in range(1, 1000, 2):
            for a in range(b):
                assert (arith.jacobi(a, b) == 0) == (math.gcd(a, b) != 1), (a, b)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                   41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                                   83, 89, 97])
    def test_matches_legendre(self, p):
        for a in range(p):
            assert arith.jacobi(a, p) == legendre_by_squaring(a, p)

    def test_multiplicative_in_numerator(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a1, a2 = rng.integers(-50, 200, size=2)
            b = 2 * int(rng.integers(1, 300)) + 1
            assert arith.jacobi(a1 * a2, b) == arith.jacobi(int(a1), b) * arith.jacobi(int(a2), b)

    def test_multiplicative_in_denominator(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = int(rng.integers(-50, 200))
            b1 = 2 * int(rng.integers(1, 100)) + 1
            b2 = 2 * int(rng.integers(1, 100)) + 1
            assert arith.jacobi(a, b1 * b2) == arith.jacobi(a, b1) * arith.jacobi(a, b2)

    def test_periodic_in_numerator(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = int(rng.integers(-100, 100))
            b = 2 * int(rng.integers(1, 200)) + 1
            assert arith.jacobi(a + b, b) == arith.jacobi(a, b)

    def test_square_is_one_when_coprime(self):
        for b in range(1, 200, 2):
            for a in range(b):
                if math.gcd(a, b) == 1:
                    assert arith.jacobi(a, b) ** 2 == 1


class TestEpsilon:
    """The reference quartic unit, against the table modulus_case reads it from."""

    def test_values(self):
        assert epsilon(1) == 1
        assert epsilon(3) == 1j
        assert epsilon(7) == 1j
        assert epsilon(13) == 1
        for a in range(-51, 52, 2):
            assert epsilon(a) == gauss_sums._EPS[a % 4], a

    def test_even_rejected(self):
        with pytest.raises(DomainError):
            epsilon(4)

    def test_square_is_plus_minus_one(self):
        for a in range(1, 50, 2):
            assert epsilon(a) ** 2 in (1 + 0j, -1 + 0j)


SMALL_PRIMES = list(sympy.primerange(2, 10**5))


@st.composite
def near_2_62(draw):
    """n <= 2^62 close to it: a drawn product s >= 10^9 of primes below 10^5, times
    the largest prime below 2^62 / s, so trial division stops below 10^5."""
    s = 1
    while s < 10**9:
        s *= draw(st.sampled_from(SMALL_PRIMES))
    return s * sympy.prevprime(2**62 // s + 1)


class TestAnalyzeModulus:
    def test_5012(self):
        phi, tau = arith.analyze_modulus(5012)
        assert arith.factorize(5012) == [(2, 2), (7, 1), (179, 1)]
        assert phi == 2136
        assert tau == 12
        assert not arith.is_perfect_square(5012)

    def test_5013(self):
        phi, _ = arith.analyze_modulus(5013)
        assert arith.factorize(5013) == [(3, 2), (557, 1)]
        assert phi == 3336

    def test_four(self):
        phi, tau = arith.analyze_modulus(4)
        assert arith.factorize(4) == [(2, 2)]
        assert phi == 2
        assert tau == 3
        assert arith.is_perfect_square(4)

    def test_one(self):
        assert arith.factorize(1) == []
        assert arith.analyze_modulus(1) == (1, 1) and arith.is_perfect_square(1)

    def test_result_is_a_pair_of_python_ints(self):
        for q in (1, 12, 5013, 3**40, 2**70):
            got = arith.analyze_modulus(q)
            assert type(got) is tuple and len(got) == 2
            assert all(type(v) is int for v in got), (q, got)

    def test_phi_tau_against_direct_count(self):
        for q in range(1, 2001):
            phi, tau = arith.analyze_modulus(q)
            assert phi == sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)
            assert tau == sum(1 for d in range(1, q + 1) if q % d == 0)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(n=st.integers(min_value=1, max_value=10**6) | near_2_62())
    def test_matches_sympy(self, n):
        phi, tau = arith.analyze_modulus(n)
        assert arith.factorize(n) == sorted(sympy.factorint(n).items())
        assert phi == sympy.totient(n)
        assert tau == sympy.divisor_count(n)
        assert arith.is_perfect_square(n) == sympy.integer_nthroot(n, 2)[1]

    def test_phi_recomputable_from_factorization(self):
        for q in (2, 36, 5012, 5013, 5014):
            phi = q
            for p, _ in arith.factorize(q):
                phi = phi // p * (p - 1)
            assert phi == arith.analyze_modulus(q)[0]

    def test_refuses_a_large_cofactor_without_small_factors(self):
        # a prime near 2**61 took about 111 s of trial division up to its square root
        with pytest.raises(BadModulus, match=r"2\*\*40"):
            arith.analyze_modulus(2**61 - 1)
        with pytest.raises(BadModulus, match=r"2\*\*40"):
            expsums.weil_bound(1, 1, 2**61 - 1)
        largest = sympy.prevprime(2**40)  # the largest cofactor trial division still proves prime
        assert arith.factorize(largest) == [(largest, 1)]


class TestUnits:
    def test_small(self):
        assert arith.units(8).tolist() == [1, 3, 5, 7]
        assert arith.units(1).tolist() == [1]

    def test_matches_gcd_definition(self):
        for q in range(1, 2001):
            r = np.arange(1, q + 1, dtype=np.int64)
            expected = r[np.gcd(r, q) == 1]
            got = arith.units(q)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), q

    def test_inverse_table(self):
        ps, invs = arith.inverse_table(12)
        assert ps.tolist() == [1, 5, 7, 11]
        for p, i in zip(ps.tolist(), invs.tolist()):
            assert (p * i) % 12 == 1
