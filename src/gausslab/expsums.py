"""Kloosterman, twisted Kloosterman, and Salie sums.

All three run over the unit group of q with p-bar the inverse of p:

  K(m, n, q)       = sum_p              e((m p + n p-bar)/q)
  S_theta(m, n, q) = sum_p eps_p (q/p)  e((m p + n p-bar)/q)   (q = 0 mod 4)
  S(m, n, q)       = sum_p (p/q)        e((m p + n p-bar)/q)   (q odd)

Each satisfies |sum| <= gcd(m, n, q)^{1/2} q^{1/2} tau(q) (Iwaniec and
Kowalski, Analytic Number Theory, ch. 11); the twists are the characters
of gauss_sums.modulus_case.  The Weyl statistic divides a class-restricted
sum by phi(q); its decay in q is what makes the pairs (p/q, t p-bar/q)
equidistribute, and the exact class counts here are the base case of
that argument.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import arith
from .errors import BadModulus, NotCoprime
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


WEIL_SLACK = 1e-6  # float slack of the Weil check, in weil_check and the verify suite


def _phase_values(m, n, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(units p, e((m p + n p-bar)/q)), a row per pair for arrays m, n; both reduced mod q first."""
    ps, invs = arith.inverse_table(q)
    t = (np.multiply.outer(arith.residues(m, q), ps)
         + np.multiply.outer(arith.residues(n, q), invs)) % q
    return ps, np.exp(2j * np.pi * t / q)


def _unit_sum(m, n, q: int, twisted: bool):
    """The sum over the units, twisted by modulus_case's character or not: one value per pair."""
    ps, vals = _phase_values(m, n, q)
    total = (modulus_case(q, ps).characters * vals if twisted else vals).sum(axis=-1)
    return complex(total) if total.ndim == 0 else total


def kloosterman(m, n, q: int):
    """K(m, n, q) for ints m, n, or for every pair of the broadcast arrays m, n."""
    return _unit_sum(m, n, q, False)


def twisted_kloosterman(m, n, q: int):
    """Kloosterman sum twisted by eps_p (q/p); defined for q = 0 mod 4."""
    if q % 4 != 0:
        raise BadModulus(f"twisted sum needs q = 0 mod 4, got {q}")
    return _unit_sum(m, n, q, True)


def salie(m, n, q: int):
    """Kloosterman sum twisted by (p/q); defined for odd q."""
    if q % 2 == 0:
        raise BadModulus(f"Salie sum needs odd q, got {q}")
    return _unit_sum(m, n, q, True)


SUMS = {"kloosterman": kloosterman, "twisted": twisted_kloosterman, "salie": salie}


def weil_bound(m, n, q: int, tau: int | None = None):
    """gcd(m, n, q)^{1/2} q^{1/2} tau(q), for ints m, n or arrays of them."""
    if tau is None:
        tau = arith.analyze_modulus(q).tau
    if isinstance(m, int) and isinstance(n, int):
        return math.sqrt(math.gcd(m, n, q)) * math.sqrt(q) * tau
    g = np.gcd(np.gcd(arith.residues(m, q), arith.residues(n, q)), q)
    return np.sqrt(g) * math.sqrt(q) * tau


def expsum_report(kind: str, m: int, n: int, q: int) -> ExpSumReport:
    """Evaluate the named sum and attach its bound."""
    if kind not in SUMS:
        raise ValueError(f"unknown sum kind {kind!r}")
    return ExpSumReport(kind, m, n, q, SUMS[kind](m, n, q), weil_bound(m, n, q))


def weil_check(report: ExpSumReport, slack: float = WEIL_SLACK) -> bool:
    """True iff the value respects its Weil bound up to float slack."""
    return abs(report.value) <= report.weil_bound + slack


def weyl_statistic(q: int, t: int, m: int, n: int, class_filter=None) -> complex:
    """(1/phi(q)) sum over p (optionally one sigma-class) of e((m p + n t p-bar)/q).

    class_filter is a sigma-class value of modulus_case: 1, -1, i or -i.
    Must decay as q grows for (m, n) != (0, 0); the Weil bounds give the
    rate.  The normalization is by the full phi(q) even when a class
    filter keeps only a quarter or half of the units.
    """
    if (m, n) == (0, 0):
        raise ValueError("(m, n) = (0, 0) is the trivial statistic")
    if math.gcd(t, q) != 1:
        raise NotCoprime(f"gcd({t}, {q}) != 1")
    ps, vals = _phase_values(m, n * t, q)
    if class_filter is not None:
        vals = vals[modulus_case(q, ps).classes == class_filter]
    return complex(vals.sum() / ps.size)


def weyl_statistics(q: int, ts, m: int, n: int) -> np.ndarray:
    """weyl_statistic(q, t, m, n) for every unit t of the array ts, from one FFT.

    With f[p-bar] = e(m p / q) on the units and 0 elsewhere,
    sum_p e((m p + n t p-bar)/q) = F[n t mod q] for F the unnormalized
    inverse DFT of f, so every t reads one entry of F.  weyl_statistic's
    O(phi(q)) sum per t stays the reference.
    """
    if (m, n) == (0, 0):
        raise ValueError("(m, n) = (0, 0) is the trivial statistic")
    ts = arith.unit_residues(np.asarray(ts), q)
    ps, invs = arith.inverse_table(q)
    f = np.zeros(q, dtype=np.complex128)
    f[invs] = np.exp(2j * np.pi * (arith.residues(m, q) * ps % q) / q)
    spectrum = np.fft.ifft(f, norm="forward")
    return spectrum[arith.residues(n, q) * ts % q] / ps.size


def class_counts(q: int, by_mod4: bool = False) -> dict:
    """Exact sizes of the sigma-classes of the unit group, keyed by class value.

    Default keying follows sigma_class (quarter values for non-square
    q = 0 mod 4, half values otherwise, None when unclassified).  With
    by_mod4=True the units of q = 0 mod 4 are counted by p mod 4
    instead (+1 for p = 1, -1 for p = 3), which is exact for squares
    and non-squares alike.
    """
    if by_mod4 and q % 4 != 0:
        raise BadModulus(f"mod-4 classes need q = 0 mod 4, got {q}")
    case = modulus_case(q, arith.units(q))
    if by_mod4:
        # the character eps_p (q/p) squares to eps_p^2: +1 for p = 1 and -1 for p = 3 mod 4
        return dict(Counter((case.characters * case.characters).real.astype(np.int64).tolist()))
    return dict(Counter(case.classes.tolist()))
