"""Kloosterman, twisted Kloosterman, and Salie sums.

All three run over the unit group of q with p-bar the inverse of p:

  K(m, n, q)       = sum_p              e((m p + n p-bar)/q)
  S_theta(m, n, q) = sum_p eps_p (q/p)  e((m p + n p-bar)/q)   (q = 0 mod 4)
  S(m, n, q)       = sum_p (p/q)        e((m p + n p-bar)/q)   (q odd)

Each satisfies |sum| <= gcd(m, n, q)^{1/2} q^{1/2} tau(q) (Iwaniec and
Kowalski, Analytic Number Theory, ch. 11); the twists are the characters
of gauss_sums.modulus_case.  All three, and the Weyl statistic
K(m, n t, q)/phi(q), come from one transform: one length-q inverse FFT
per distinct m, read at n mod q.  The statistic's decay in q is what
makes the pairs (p/q, t p-bar/q) equidistribute, and the exact class
counts here are the base case of that argument.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import arith
from .errors import BadModulus, DomainError
from .gauss_sums import modulus_case


@dataclass(frozen=True)
class ExpSumReport:
    """One evaluated sum next to its Weil bound."""

    kind: str  # "kloosterman" | "twisted" | "salie"
    m: int
    n: int
    q: int
    value: complex
    weil_bound: float

    @property
    def ratio(self) -> float:
        return abs(self.value) / self.weil_bound if self.weil_bound else math.inf


WEIL_SLACK = 1e-6  # float slack of the verify suite's Weil check: |value| <= bound + slack


def _unit_transform(m, n, q: int, twisted: bool):
    """sum_p chi(p) e((m p + n p-bar)/q) for every pair of the broadcast m, n; chi = 1 or the twist.

    For each distinct m mod q, f_m[p-bar] = chi(p) e(m p / q) on the units
    and 0 elsewhere; its unnormalized inverse DFT F_m holds the sum for
    every n at once, so a pair reads F_m[n mod q].  One row-wise FFT covers
    all distinct m.  m and n are reduced mod q before any int64 product.
    """
    m, n = np.broadcast_arrays(arith.residues(m, q), arith.residues(n, q))
    ms, rows = np.unique(m, return_inverse=True)
    ps, invs = arith.inverse_table(q)
    f = np.zeros((ms.size, q), dtype=np.complex128)
    f[:, invs] = np.exp(2j * np.pi * (np.multiply.outer(ms, ps) % q) / q)
    if twisted:
        f[:, invs] *= modulus_case(q, ps).characters
    total = np.fft.ifft(f, norm="forward")[rows.reshape(m.shape), n]
    return complex(total) if total.ndim == 0 else total


def kloosterman(m, n, q: int):
    """K(m, n, q) for ints m, n, or for every pair of the broadcast arrays m, n."""
    return _unit_transform(m, n, q, False)


def twisted_kloosterman(m, n, q: int):
    """Kloosterman sum twisted by eps_p (q/p); defined for q = 0 mod 4."""
    if q % 4 != 0:
        raise BadModulus(f"twisted sum needs q = 0 mod 4, got {q}")
    return _unit_transform(m, n, q, True)


def salie(m, n, q: int):
    """Kloosterman sum twisted by (p/q); defined for odd q."""
    if q % 2 == 0:
        raise BadModulus(f"Salie sum needs odd q, got {q}")
    return _unit_transform(m, n, q, True)


SUMS = {"kloosterman": kloosterman, "twisted": twisted_kloosterman, "salie": salie}


def weil_bound(m, n, q: int):
    """gcd(m, n, q)^{1/2} q^{1/2} tau(q), for integers m, n (Python or numpy) or arrays of them."""
    tau = arith.analyze_modulus(q).tau
    if isinstance(m, (int, np.integer)) and isinstance(n, (int, np.integer)):
        return math.sqrt(math.gcd(int(m), int(n), q)) * math.sqrt(q) * tau
    g = np.gcd(np.gcd(arith.residues(m, q), arith.residues(n, q)), q)
    return np.sqrt(g) * math.sqrt(q) * tau


def expsum_report(kind: str, m: int, n: int, q: int) -> ExpSumReport:
    """Evaluate the named sum and attach its bound."""
    if kind not in SUMS:
        raise DomainError(f"unknown sum kind {kind!r}")
    return ExpSumReport(kind, m, n, q, SUMS[kind](m, n, q), weil_bound(m, n, q))


def weyl_statistics(q: int, ts, m: int, n: int) -> np.ndarray:
    """(1/phi(q)) sum_p e((m p + n t p-bar)/q) for every unit t of the array ts.

    This is K(m, n t, q)/phi(q): every t reads the one transform of
    kloosterman.  It must decay as q grows for (m, n) != (0, 0) mod q; the
    Weil bounds give the rate.  For (m, n) = (0, 0) mod q every t gives 1,
    so that trivial pair is rejected.
    """
    if arith.residues(m, q) == arith.residues(n, q) == 0:
        raise DomainError(f"(m, n) = (0, 0) mod {q} is the trivial statistic")
    ts = modulus_case(q, np.asarray(ts)).units  # NotCoprime unless every t is a unit
    return kloosterman(m, arith.residues(n, q) * ts % q, q) / arith.analyze_modulus(q).phi


def class_counts(q: int) -> dict:
    """Exact sizes of the sigma-classes of the unit group, keyed by class value.

    The keys are sigma_class's: quarter values for non-square q = 0 mod 4,
    p mod 4 (+1 or -1) for square q = 0 mod 4, half values otherwise, and
    None when unclassified.
    """
    return dict(Counter(modulus_case(q, arith.units(q)).classes.tolist()))
