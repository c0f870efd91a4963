"""Kloosterman, twisted Kloosterman, and Salie sums.

All three run over the unit group of q with p-bar the inverse of p:

  K(m, n, q)       = sum_p              e((m p + n p-bar)/q)
  S_theta(m, n, q) = sum_p eps_p (q/p)  e((m p + n p-bar)/q)   (q = 0 mod 4)
  S(m, n, q)       = sum_p (p/q)        e((m p + n p-bar)/q)   (q odd)

Each satisfies |sum| <= gcd(m, n, q)^{1/2} q^{1/2} tau(q) (Iwaniec and
Kowalski, Analytic Number Theory, ch. 11); the twists are the characters
of gauss_sums.modulus_case.  unit_sums computes every kind a modulus has
from one table of inverses, at most one modulus_case for the twist and
one row-wise inverse FFT per distinct m, read at n mod q; the Weyl
statistic K(m, n t, q)/phi(q) reads the same transform.  The statistic's
decay in q is what makes the pairs (p/q, t p-bar/q) equidistribute, and
the exact class counts here are the base case of that argument.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from . import arith
from .errors import BadModulus, DomainError
from .gauss_sums import modulus_case


KINDS = ("kloosterman", "twisted", "salie")
# the kinds a modulus q has, by q mod 4
_KINDS_OF = {0: ("kloosterman", "twisted"), 1: ("kloosterman", "salie"),
             2: ("kloosterman",), 3: ("kloosterman", "salie")}
_NEEDS = {"twisted": "twisted sum needs q = 0 mod 4", "salie": "Salie sum needs odd q"}


def unit_sums(m, n, q: int, kinds=None) -> dict:
    """{kind: sum_p chi(p) e((m p + n p-bar)/q)} for every pair of the broadcast m, n.

    kinds defaults to every kind q has (_KINDS_OF); one it lacks is a
    BadModulus.  For each distinct m mod q a kind's row holds chi(p)
    e(m p / q) at p-bar on the units and 0 elsewhere; its unnormalized
    inverse DFT holds the sum for every n at once, so a pair reads it at
    n mod q.  One row-wise FFT covers every kind and every distinct m.
    m and n are reduced mod q before any int64 product.
    """
    for kind in kinds or ():
        if kind not in KINDS:
            raise DomainError(f"unknown sum kind {kind!r}")
        if kind not in _KINDS_OF[q % 4]:
            raise BadModulus(f"{_NEEDS[kind]}, got {q}")
    kinds = _KINDS_OF[q % 4] if kinds is None else kinds
    m, n = np.broadcast_arrays(arith.residues(m, q), arith.residues(n, q))
    ms, rows = np.unique(m, return_inverse=True)
    ps, invs = arith.inverse_table(q)
    f = np.zeros((len(kinds), ms.size, q), dtype=np.complex128)
    f[..., invs] = np.exp(2j * np.pi * (np.multiply.outer(ms, ps) % q) / q)
    for row, kind in zip(f, kinds):
        if kind != "kloosterman":  # at most one: q has a twisted or a Salie sum, not both
            row[:, invs] *= modulus_case(q, ps).characters
    totals = np.fft.ifft(f, norm="forward")[:, rows.reshape(m.shape), n]
    return {kind: complex(t) if t.ndim == 0 else t for kind, t in zip(kinds, totals)}


def kloosterman(m, n, q: int):
    """K(m, n, q) for ints m, n, or for every pair of the broadcast arrays m, n."""
    return unit_sums(m, n, q, ["kloosterman"])["kloosterman"]


def weil_bound(m, n, q: int):
    """gcd(m, n, q)^{1/2} q^{1/2} tau(q), for integers m, n (Python or numpy) or arrays of them."""
    _, tau = arith.analyze_modulus(q)
    if isinstance(m, (int, np.integer)) and isinstance(n, (int, np.integer)):
        return math.sqrt(math.gcd(int(m), int(n), q)) * math.sqrt(q) * tau
    g = np.gcd(np.gcd(arith.residues(m, q), arith.residues(n, q)), q)
    return np.sqrt(g) * math.sqrt(q) * tau


def expsum_report(kind: str, m: int, n: int, q: int) -> tuple[complex, float]:
    """(value, bound): the named sum and its Weil bound, which is >= 1 for every q >= 1."""
    return unit_sums(m, n, q, [kind])[kind], weil_bound(m, n, q)


def weyl_statistics(q: int, ts, m: int, n: int) -> np.ndarray:
    """(1/phi(q)) sum_p e((m p + n t p-bar)/q) for every unit t of the array ts.

    This is K(m, n t, q)/phi(q): every t reads the one transform of
    kloosterman.  It must decay as q grows for (m, n) != (0, 0) mod q; the
    Weil bounds give the rate.  For (m, n) = (0, 0) mod q every t gives 1,
    so that trivial pair is rejected.
    """
    if arith.residues(m, q) == arith.residues(n, q) == 0:
        raise DomainError(f"(m, n) = (0, 0) mod {q} is the trivial statistic")
    ts = arith.residues(ts, q)
    if np.any(np.gcd(ts, q) != 1):
        modulus_case(q, ts)  # the package's unit check: NotCoprime, naming the shared factor
    return kloosterman(m, arith.residues(n, q) * ts % q, q) / arith.analyze_modulus(q)[0]


def class_counts(q: int) -> dict:
    """Exact sizes of the sigma-classes of the unit group, keyed by class value.

    The keys are sigma_class's: quarter values for non-square q = 0 mod 4,
    p mod 4 (+1 or -1) for square q = 0 mod 4, half values otherwise, and
    None when unclassified.
    """
    return dict(Counter(modulus_case(q, arith.units(q)).classes.tolist()))
