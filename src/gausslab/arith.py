"""Exact integer and residue arithmetic.

Everything downstream (Gauss sums, Kloosterman sums, class statistics)
reduces to the primitives in this module: modular powers (and inverses by
Euler's theorem), the Jacobi symbol (an even lower argument is a
BadModulus), and the pair (totient, divisor count) of a modulus.  All pure.

The scalar functions take Python ints of any size.  residues and
jacobi_array answer one int exactly through them; they and power_mod take
an integer array in int64 with no per-entry loop, and refuse moduli above
INT64_ROOT, whose products would wrap, and entries that are not integers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadModulus, DomainError

# largest n with n * n < 2**63: residues below it multiply without leaving int64
INT64_ROOT = math.isqrt(2**63 - 1)
# primes below this read Legendre symbols from a table of squares (at most 512 KiB)
SQUARES_TABLE_MAX = 1 << 16


def jacobi(a: int, b: int) -> int:
    """Jacobi symbol (a/b) for odd b, extended to negative b.

    Binary reduction via quadratic reciprocity for b > 0; a negative
    lower argument contributes the sign of a, and (0/+-1) = 1.
    """
    if b % 2 == 0:
        raise BadModulus(f"lower argument must be odd, got {b}")
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


def is_perfect_square(n: int) -> bool:
    """The package's one squareness rule: whether n is the square of an integer (False if n < 0)."""
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


def analyze_modulus(q: int) -> tuple[int, int]:
    """(phi(q), tau(q)): Euler's totient and the divisor count of q, from its factorization."""
    phi = q
    tau = 1
    for p, e in factorize(q):
        phi -= phi // p
        tau *= e + 1
    return phi, tau


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
    return ps, power_mod(ps, ps.size - 1, q)  # Euler's theorem; phi(q) = ps.size, all coprime to q


def residues(values, q: int):
    """values mod q: exact for one int, else an int64 array; a non-integer entry is refused."""
    if q < 1:
        raise DomainError(f"modulus must be positive, got {q}")
    if isinstance(values, (int, np.integer)):
        return int(values) % q
    if q > INT64_ROOT:
        raise DomainError(f"residue arrays need q <= {INT64_ROOT}, got {q}; pass one int at a time")
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "biuO":  # a dtype test: O(1) on every hot path
        raise DomainError(f"residues need integers, got an array of dtype {values.dtype}")
    if values.dtype.kind == "O":  # already one Python operation per entry, so check each
        bad = [v for v in values.flat if not isinstance(v, (int, np.integer))]
        if bad:
            raise DomainError(f"residues need integers, got {bad[0]!r} in an object array")
    return (values % q).astype(np.int64, copy=False)


def power_mod(base, exponent: int, m: int) -> np.ndarray:
    """base ** exponent mod m entrywise; needs 1 <= m <= INT64_ROOT and exponent >= 0."""
    if not 1 <= m <= INT64_ROOT:
        raise DomainError(f"power_mod needs 1 <= m <= {INT64_ROOT}, got {m}")
    if exponent < 0:
        raise DomainError(f"power_mod needs an exponent >= 0, got {exponent}")
    base = residues(base, m)
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
        raise BadModulus(f"modulus must be odd, got {n}")
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
            euler = power_mod(r, (p - 1) // 2, p)  # 0, 1 or p - 1
            out *= np.where(euler == p - 1, -1, euler)
    return out
