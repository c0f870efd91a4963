"""Batch verification suites.

Each suite re-checks one family of identities over an exhaustive desk-
scale range and reports every violation with the offending tuple.  The
CLI `verify` command wraps these; the acceptance tests call them
directly.  A suite takes only its size q_max, functional_eq also n_weights
and a seed >= 0 (a negative one is a DomainError).  All suites are
deterministic: the two that draw use distlab.seeded_rng, the package's
seeded random.Random, reduction with the fixed seed 20260810.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import arith
from .distlab import seeded_rng, uniform_words
from .errors import DomainError
from .expsums import unit_sums, weil_bound
from .gauss_sums import DirectEvaluator, gauss_sum_closed, gauss_sum_fast_batch, modulus_case
from .weights import WeightFunction, constant_weight, fourier_weight, reduce_weight

CLOSED_FORM_TOL = FUNCTIONAL_EQ_TOL = 1e-6  # gaps stay below TOL * sqrt(q); a test may tighten
REDUCTION_TOL = 1e-8  # gaps stay below TOL * q
WEIL_SLACK = 1e-6  # float slack of the Weil check: |value| <= bound + slack


@dataclass
class SuiteResult:
    name: str
    checked: int
    failures: list[str] = field(default_factory=list)
    # largest ratio of a gap to what its check allows (|sum| / (bound + slack) for
    # weil, over (m, n) != (0, 0) mod q); above 1 is a violation, an exact identity 0 or inf
    worst: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return f"{self.name}: {self.checked} checks, {len(self.failures)} violations"

    def record(self, failed, ratios, describe) -> None:
        """Count one check per entry of failed; describe(i) names the i-th violation."""
        self.checked += np.size(failed)
        top = float(np.max(ratios, initial=0.0))  # a NaN ratio counts as inf, not as nothing
        self.worst = max(self.worst, math.inf if math.isnan(top) else top)
        self.failures.extend(describe(i) for i in np.flatnonzero(failed))


def closed_form_suite(q_max: int = 512) -> SuiteResult:
    """Direct O(q) summation against the closed form, weight 1, all units."""
    res = SuiteResult("closed_form", 0)
    for q in range(1, q_max + 1):
        ps = arith.units(q)
        gaps = np.abs(DirectEvaluator(constant_weight(), q)(ps) - gauss_sum_closed(ps, q))
        scale = CLOSED_FORM_TOL * math.sqrt(q)
        res.record(~(gaps < scale), gaps / scale,
                   lambda i: f"p={ps[i]} q={q} |direct-closed|={gaps[i]:.3e}")
    return res


def functional_eq_suite(q_max: int = 400, n_weights: int = 50, seed: int = 20260809) -> SuiteResult:
    """Fast functional-equation path against direct summation.

    Random finite-series weights on the frequencies -8..8, every modulus
    up to q_max (all three classes mod 4), a few random units each.  All
    draws come from random.Random(seed), seed >= 0.  The weights are drawn
    first, as the rows of one batch weight, each coefficient a complex of
    two gauss draws; then each modulus
    draws one uint64 key per (weight, unit) from uniform_words, and row w
    checks the min(5, phi(q)) units of its smallest keys in ascending
    order.  Per modulus one gauss_sum_fast_batch call, the library's fast
    path, and one direct call serve all weights, so violations are listed
    q by q.  The direct side stays the O(q) definition for every (weight, p).
    """
    rng = seeded_rng(seed)
    draws = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(17 * n_weights)]
    weights = WeightFunction(np.arange(-8, 9), np.array(draws, dtype=np.complex128).reshape(-1, 17))
    res = SuiteResult("functional_eq", 0)
    for q in range(3, q_max + 1):
        units = arith.units(q)
        keys = uniform_words(rng, n_weights * units.size).reshape(n_weights, units.size)
        order = np.argsort(keys, axis=1)
        ps = np.sort(units[order[:, :5]], axis=1)
        gaps = np.abs(gauss_sum_fast_batch(weights, ps, q) - DirectEvaluator(weights, q)(ps))
        scale = FUNCTIONAL_EQ_TOL * math.sqrt(q)
        res.record(~(gaps < scale), gaps / scale,
                   lambda j: f"p={ps.flat[j]} q={q} |fast-direct|={gaps.flat[j]:.3e}")
    return res


def weil_suite(q_max: int = 1000) -> SuiteResult:
    """Weil bound for every sum kind of each q <= q_max (unit_sums') and 0 <= m, n <= 4."""
    res = SuiteResult("weil", 0)
    ms, ns = np.divmod(np.arange(25), 5)
    for q in range(1, q_max + 1):
        nontrivial = (ms % q != 0) | (ns % q != 0)  # K(0, 0, 1) = 1 would read 1 at any q_max
        bounds = weil_bound(ms, ns, q)
        allowed = bounds + WEIL_SLACK
        for kind, sums in unit_sums(ms, ns, q).items():
            sizes = np.abs(sums)
            res.record(~(sizes <= allowed), (sizes / allowed)[nontrivial],
                       lambda i: f"{kind} m={ms[i]} n={ns[i]} q={q} "
                                 f"|value|={sizes[i]:.6f} bound={bounds[i]:.6f}")
    return res


def class_count_suite(q_max: int = 2000) -> SuiteResult:
    """Exact integer class-size identities over every applicable modulus.

    Quarter classes (q = 0 mod 4, non-square) each hold phi(q)/4 units;
    the two p mod 4 classes (any q = 0 mod 4) and the half classes of
    odd non-squares each hold phi(q)/2.  The p mod 4 classes are read from
    the twist eps_p (q/p), whose square is +1 for p = 1 and -1 for p = 3 mod 4.
    """
    res = SuiteResult("class_counts", 0)
    for q in range(3, q_max + 1):
        square = arith.is_perfect_square(q)
        if q % 4 == 2 or (q % 2 == 1 and square):  # no class identity to check
            continue
        case = modulus_case(q, arith.units(q))
        classes = dict(Counter(case.classes.tolist()))
        if q % 4 == 0:  # checks: (label, counts, number of classes)
            mod4 = dict(Counter((case.characters ** 2).real.astype(np.int64).tolist()))
            checks = [("mod4", mod4, 2)] + [("quarter", classes, 4)] * (not square)
        else:
            checks = [("half", classes, 2)]
        for label, counts, k in checks:
            bad = sorted(counts.values()) != [case.units.size // k] * k
            res.record([bad], [math.inf if bad else 0.0],
                       lambda _: f"q={q} {label} counts {counts}")
    return res


def reduction_suite(q_max: int = 200) -> SuiteResult:
    """Non-coprime reduction identity checked by direct summation twice.

    The weight's coefficients are gauss draws of random.Random(20260810).
    """
    rng = seeded_rng(20260810)
    w = fourier_weight({k: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                        for k in range(-6, 7)})
    res = SuiteResult("reduction", 0)
    for q in range(2, q_max + 1):
        ps = np.arange(1, q + 1, dtype=np.int64)
        rs = np.gcd(ps, q)
        ps, rs = ps[rs > 1], rs[rs > 1]
        reduced = np.empty(ps.shape, dtype=np.complex128)
        for r in sorted(set(rs.tolist())):
            # every p of the group shares gcd(p, q) = r, so one reduction serves them all
            group = rs == r
            reduced[group] = DirectEvaluator(reduce_weight(w, r), q // r)(ps[group] // r)
        gaps = np.abs(DirectEvaluator(w, q)(ps) - reduced)
        res.record(~(gaps < REDUCTION_TOL * q), gaps / (REDUCTION_TOL * q),
                   lambda i: f"p={ps[i]} q={q} gap={gaps[i]:.3e}")
    return res


SUITES = {"closed_form": closed_form_suite, "functional_eq": functional_eq_suite,
          "weil": weil_suite, "class_counts": class_count_suite, "reduction": reduction_suite}


def run_suite(name: str, **overrides) -> SuiteResult:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    # called by its module-level name, so a wrapper set on the module (perfbench's tracer) runs
    return globals()[SUITES[name].__name__](**overrides)
