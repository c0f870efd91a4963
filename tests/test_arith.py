"""Integer arithmetic layer: hand values, exhaustive small-range oracles."""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from gausslab import arith
from gausslab.errors import EvenArgument, EvenModulus, NotCoprime


def legendre_by_squaring(a, p):
    """Quadratic residue symbol mod an odd prime by exhaustive squaring."""
    a %= p
    if a == 0:
        return 0
    residues = {(x * x) % p for x in range(1, p)}
    return 1 if a in residues else -1


class TestModInverse:
    def test_three_mod_seven(self):
        assert arith.mod_inverse(3, 7) == 5

    @pytest.mark.parametrize("m", [2, 5, 12, 97])
    def test_one(self, m):
        assert arith.mod_inverse(1, m) == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            arith.mod_inverse(2, 4)

    @pytest.mark.parametrize("m", [5, 12, 97, 360])
    def test_involution(self, m):
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            inv = arith.mod_inverse(a, m)
            assert 1 <= inv < m
            assert (a * inv) % m == 1
            assert arith.mod_inverse(inv, m) == a % m


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
        with pytest.raises(EvenModulus):
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
    def test_values(self):
        assert arith.epsilon(1) == 1
        assert arith.epsilon(3) == 1j
        assert arith.epsilon(7) == 1j
        assert arith.epsilon(13) == 1

    def test_even_rejected(self):
        with pytest.raises(EvenArgument):
            arith.epsilon(4)

    def test_square_is_plus_minus_one(self):
        for a in range(1, 50, 2):
            assert arith.epsilon(a) ** 2 in (1 + 0j, -1 + 0j)


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
        m = arith.analyze_modulus(5012)
        assert m.factorization == ((2, 2), (7, 1), (179, 1))
        assert m.phi == 2136
        assert m.tau == 12
        assert not arith.is_perfect_square(m.q)

    def test_5013(self):
        m = arith.analyze_modulus(5013)
        assert m.factorization == ((3, 2), (557, 1))
        assert m.phi == 3336

    def test_four(self):
        m = arith.analyze_modulus(4)
        assert m.factorization == ((2, 2),)
        assert m.phi == 2
        assert m.tau == 3
        assert arith.is_perfect_square(m.q)

    def test_one(self):
        m = arith.analyze_modulus(1)
        assert m.factorization == ()
        assert m.phi == 1 and m.tau == 1 and arith.is_perfect_square(m.q)

    def test_phi_tau_against_direct_count(self):
        for q in range(1, 2001):
            m = arith.analyze_modulus(q)
            assert m.phi == sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)
            assert m.tau == sum(1 for d in range(1, q + 1) if q % d == 0)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(n=st.integers(min_value=1, max_value=10**6) | near_2_62())
    def test_matches_sympy(self, n):
        m = arith.analyze_modulus(n)
        assert m.factorization == tuple(sorted(sympy.factorint(n).items()))
        assert m.phi == sympy.totient(n)
        assert m.tau == sympy.divisor_count(n)
        assert arith.is_perfect_square(n) == sympy.integer_nthroot(n, 2)[1]

    def test_phi_recomputable_from_factorization(self):
        for q in (2, 36, 5012, 5013, 5014):
            m = arith.analyze_modulus(q)
            phi = q
            for p, _ in m.factorization:
                phi = phi // p * (p - 1)
            assert phi == m.phi


class TestUnits:
    def test_small(self):
        assert arith.units(8).tolist() == [1, 3, 5, 7]
        assert arith.units(1).tolist() == [1]

    def test_inverse_table(self):
        ps, invs = arith.inverse_table(12)
        assert ps.tolist() == [1, 5, 7, 11]
        for p, i in zip(ps.tolist(), invs.tolist()):
            assert (p * i) % 12 == 1
