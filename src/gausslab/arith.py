"""Exact integer and residue arithmetic.

Everything downstream (Gauss sums, Kloosterman sums, class statistics)
reduces to the primitives in this module: modular inverses, the
Jacobi symbol, the quartic unit factor of odd integers, and factored
modulus metadata.  All functions are pure.

The scalar functions take Python ints of any size.  The array forms
(residues, inverses, jacobi_array) answer one Python or numpy int exactly
through them, and an integer array with int64 arithmetic and no per-entry
loop; arrays refuse moduli above INT64_ROOT, whose products would wrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvenArgument, EvenModulus, NotCoprime

# largest n with n * n < 2**63: residues below it multiply without leaving int64
INT64_ROOT = math.isqrt(2**63 - 1)
# primes below this read Legendre symbols from a table of squares (at most 512 KiB)
SQUARES_TABLE_MAX = 1 << 16


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m, in [1, m).

    Raises NotCoprime if gcd(a, m) != 1.
    """
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    if math.gcd(a, m) != 1:
        raise NotCoprime(f"gcd({a}, {m}) = {math.gcd(a, m)} != 1")
    return pow(a, -1, m)


def jacobi(a: int, b: int) -> int:
    """Jacobi symbol (a/b) for odd b, extended to negative b.

    Binary reduction via quadratic reciprocity for b > 0; a negative
    lower argument contributes the sign of a, and (0/+-1) = 1.
    """
    if b % 2 == 0:
        raise EvenModulus(f"lower argument must be odd, got {b}")
    if b < 0:
        if a == 0:
            return 1 if b == -1 else 0
        return (1 if a > 0 else -1) * jacobi(a, -b)
    if b == 1:
        return 1
    a %= b
    j = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                j = -j
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            j = -j
        a %= b
    return j if b == 1 else 0


def epsilon(a: int) -> complex:
    """Quartic unit of an odd integer: 1 if a = 1 mod 4, i if a = 3 mod 4."""
    if a % 2 == 0:
        raise EvenArgument(f"argument must be odd, got {a}")
    return 1 + 0j if a % 4 == 1 else 1j


def is_perfect_square(n: int) -> bool:
    """Whether n is the square of an integer; False for negative n."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as sorted (prime, exponent) pairs."""
    if n < 1:
        raise DomainError(f"need a positive integer, got {n}")
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


@dataclass(frozen=True)
class Modulus:
    """A modulus q with its factorization, Euler's totient phi and divisor count tau.

    Whether q is a square is is_perfect_square(q), the package's one squareness rule.
    """

    q: int
    factorization: tuple[tuple[int, int], ...]
    phi: int
    tau: int


def analyze_modulus(q: int) -> Modulus:
    """Factor q and derive its totient and divisor count."""
    factors = factorize(q)
    phi = q
    tau = 1
    for p, e in factors:
        phi -= phi // p
        tau *= e + 1
    return Modulus(q, tuple(factors), phi, tau)


def units(q: int) -> np.ndarray:
    """Residues in [1, q] coprime to q, ascending; q <= INT64_ROOT, as for residues."""
    if not 1 <= q <= INT64_ROOT:
        raise DomainError(f"units need 1 <= q <= {INT64_ROOT}, got {q}")
    r = np.arange(1, q + 1, dtype=np.int64)
    return r[np.gcd(r, q) == 1]


def inverse_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(units of q, their inverses mod q), aligned arrays.

    For q = 1 the single unit is 1 with inverse 0 (the zero residue),
    which is the correct exponent convention e(0) = 1.
    """
    ps = units(q)
    return ps, _power_mod(ps, analyze_modulus(q).phi - 1, q)  # units(q) are already coprime to q


def residues(values, q: int):
    """values mod q: an exact int for a Python or numpy int, else an int64 array."""
    if q < 1:
        raise DomainError(f"modulus must be positive, got {q}")
    if isinstance(values, (int, np.integer)):
        return int(values) % q
    if q > INT64_ROOT:
        raise DomainError(f"residue arrays need q <= {INT64_ROOT}, got {q}; pass one int at a time")
    return (np.asarray(values) % q).astype(np.int64, copy=False)


def unit_residues(values, q: int):
    """residues(values, q), each required to be a unit of q (NotCoprime otherwise)."""
    ps = residues(values, q)
    shared = math.gcd(ps, q) if isinstance(ps, int) else np.gcd(ps, q).max(initial=1)
    if shared != 1:
        raise NotCoprime(f"a residue shares the factor {shared} with {q}")
    return ps


def inverses(a, m: int):
    """Inverses mod m, in [0, m), of a unit or an array of units of m.

    An array uses Euler's theorem, a^-1 = a^(phi(m) - 1) mod m, by
    square and multiply; m = 1 gives the zero residue.
    """
    if isinstance(a, (int, np.integer)):
        return 0 if m == 1 else mod_inverse(int(a), m)
    return _power_mod(unit_residues(a, m), analyze_modulus(m).phi - 1, m)


def _power_mod(base: np.ndarray, exponent: int, m: int) -> np.ndarray:
    """base ** exponent mod m entrywise, by square and multiply; needs m <= INT64_ROOT."""
    result = np.ones_like(base) % m
    while exponent:
        if exponent & 1:
            result = result * base % m
        base = base * base % m
        exponent >>= 1
    return result


def jacobi_array(a, n: int):
    """Jacobi symbols (a/n) of an int or an integer array over one odd n >= 1.

    Arrays multiply (a/p)^e over the factorization of n; (a/p) comes from
    a table of the squares mod p for p < SQUARES_TABLE_MAX, else from
    Euler's criterion a^((p-1)/2) mod p.
    """
    if n % 2 == 0:
        raise EvenModulus(f"modulus must be odd, got {n}")
    if isinstance(a, (int, np.integer)):
        return jacobi(int(a), n)
    a = residues(a, n)
    out = np.ones(a.shape, dtype=np.int64)
    for p, e in factorize(n):
        r = a % p
        if e % 2 == 0:
            out[r == 0] = 0
        elif p < SQUARES_TABLE_MAX:
            table = np.full(p, -1, dtype=np.int64)
            table[np.arange(p) ** 2 % p] = 1
            table[0] = 0
            out *= table[r]
        else:
            euler = _power_mod(r, (p - 1) // 2, p)  # 0, 1 or p - 1
            out *= np.where(euler == p - 1, -1, euler)
    return out
