"""Workloads of the gausslab benchmark and the oracles that check them.

A workload turns a seed into a list of ops.  One op is one child Python
process, `python -m gausslab.cli ...` or `python perfbench/suite.py ...`
(a verify suite at a size the CLI does not offer),
together with a check that reads the op's output and returns the
problems it found (an empty list when the output is correct).  The
oracles never import gausslab: expected values are recomputed with
numpy from the definitions.  NOTES.md says why each workload is there.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
CLI = ("-m", "gausslab.cli")
SUITE = (str(HERE / "suite.py"),)

WORKLOADS = ("figures", "moments_sweep", "moments_large_q", "verify_suites")

# figure -> limit samples (an eighth of the reference counts) and the units of its modulus
FIGURES = {"fig1": (37_500, 2136), "fig2": (37_500, 3336), "fig3": (62_500, 2376)}
KS_LIMIT = 0.06

SWEEP_QS = range(5010, 5016)  # every residue class of q mod 4, twice for q = 2, 3 mod 4
SWEEP_KS = (0.0, 2.0, 4.0)
SWEEP_TRUNC = 600
LARGE_Q = 15013  # prime, so the Parseval oracle below applies
LARGE_Q_TRUNC = 500
GAP_LIMIT = 0.1
REL_TOL = 1e-9

# suite -> run_suite sizes; `gausslab verify` runs the suites whose sizes are its defaults
SUITES = {
    "closed_form": {"q_max": 512},
    "functional_eq": {"q_max": 400, "n_weights": 10},
    "weil": {"q_max": 300},
    "class_counts": {"q_max": 1000},
    "reduction": {"q_max": 200},
}
CLI_SUITES = ("closed_form", "reduction")


@dataclass(frozen=True)
class Op:
    """One child process and the check of its output."""

    label: str
    argv: tuple[str, ...]  # after the interpreter
    outputs: tuple[Path, ...]  # files or directories the op writes
    check: Callable[[str], list[str]]  # stdout -> problems


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def check_figure(which: str, summary: dict) -> list[str]:
    units = FIGURES[which][1]
    problems = []
    if summary.get("total_samples") != units:
        problems.append(f"{which}: total_samples {summary.get('total_samples')} != {units}")
    for key in ("ks_re", "ks_im"):
        value = summary.get(key)
        if not (isinstance(value, float) and value < KS_LIMIT):
            problems.append(f"{which}: {key} = {value} is not below {KS_LIMIT}")
    return problems


def indicator_mean_square(a: float, b: float, cutoff: int, q: int) -> float:
    """|c_0|^2 + sum_{n>=1} |c_n + c_{-n}|^2 for the series variant of q.

    c_k are the analytic Fourier coefficients of the indicator of [a, b)
    up to |k| <= cutoff.  q = 0 mod 4 keeps the even k, q = 2 mod 4 the
    odd k, odd q all k; only the odd-q and 0-mod-4 series have a c_0 term.
    """
    k = np.arange(1, cutoff + 1, dtype=np.float64)

    def coeff(s):
        return (np.exp(-2j * np.pi * s * a) - np.exp(-2j * np.pi * s * b)) / (2j * np.pi * s)

    folded = np.abs(coeff(k) + coeff(-k)) ** 2  # folded[j] belongs to k = j + 1
    c0 = (b - a) ** 2
    if q % 4 == 0:
        return float(c0 + folded[1::2].sum())
    if q % 2 == 1:
        return float(c0 + folded.sum())
    return float(folded[0::2].sum())


def indicator_second_moment(q: int, a: float, b: float) -> float:
    """Normalized mean of |g(w, p, q)|^2 over p = 1..q-1, for prime q.

    With B_a the sum of w(h/q) over the h with h^2 = a mod q and T the
    sum of all w(h/q), Parseval over p = 0..q-1 gives
    sum_{p=1}^{q-1} |g|^2 = q sum_a |B_a|^2 - T^2; the CLI divides by
    phi(q) = q - 1 and by q.
    """
    h = np.arange(q, dtype=np.int64)
    x = h.astype(np.float64) / q
    w = ((x >= a) & (x < b)).astype(np.float64)
    bins = np.bincount(h * h % q, weights=w, minlength=q)
    total = float(w.sum())
    return (q * float(bins @ bins) - total * total) / ((q - 1) * q)


def _close(value: float, expected: float, tol: float = REL_TOL) -> bool:
    return abs(value - expected) <= tol * max(abs(expected), 1e-300)


def read_moment_rows(path: Path) -> list[tuple[int, float, float, float, float]]:
    """(q, k, empirical, limit, gap) rows of a `moments --out` CSV."""
    rows = []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("q,"):
            continue
        q, k, emp, lim, gap = line.split(",")
        rows.append((int(q), float(k), float(emp), float(lim), float(gap)))
    return rows


def _gap_problems(q, k, emp, lim, gap) -> list[str]:
    own = abs(emp - lim) / max(lim, 1e-12)
    problems = []
    if not _close(gap, own, 1e-12):
        problems.append(f"q={q} k={k}: gap {gap!r} != |empirical-limit|/limit {own!r}")
    if not gap < GAP_LIMIT:
        problems.append(f"q={q} k={k}: gap {gap!r} is not below {GAP_LIMIT}")
    return problems


def check_moments_sweep(rows, a: float, b: float) -> list[str]:
    expected = [(q, k) for q in SWEEP_QS for k in SWEEP_KS]
    got = [(q, k) for q, k, *_ in rows]
    if got != expected:
        return [f"expected (q, k) rows {expected}, got {got}"]
    problems = []
    for q, k, emp, lim, gap in rows:
        if k == 0.0 and not (_close(emp, 1.0, 1e-12) and _close(lim, 1.0, 1e-12)):
            problems.append(f"q={q} k=0: empirical {emp!r}, limit {lim!r} are not 1.0")
        if k == 2.0:
            want = indicator_mean_square(a, b, SWEEP_TRUNC, q)
            if not _close(lim, want):
                problems.append(f"q={q} k=2: limit {lim!r} != coefficient sum {want!r}")
        problems += _gap_problems(q, k, emp, lim, gap)
    return problems


def check_moments_large_q(rows, q: int, a: float, b: float) -> list[str]:
    got = [(rq, k) for rq, k, *_ in rows]
    if got != [(q, 2.0)]:
        return [f"expected one row q={q} k=2, got {got}"]
    _, k, emp, lim, gap = rows[0]
    problems = []
    want = indicator_second_moment(q, a, b)
    if not _close(emp, want):
        problems.append(f"q={q}: empirical {emp!r} != Parseval value {want!r}")
    return problems + _gap_problems(q, k, emp, lim, gap)


def totients(n: int) -> np.ndarray:
    """phi(0..n) by sieve; phi(0) is unused."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] -= phi[p::p] // p
    return phi


def expected_checked(suite: str, q_max: int, n_weights: int = 50, n_p: int = 5,
                     mn_max: int = 4) -> int:
    """How many checks a verify suite makes, counted from its definition."""
    phi = totients(q_max)
    qs = np.arange(q_max + 1)
    if suite == "closed_form":  # every unit of every q >= 1
        return int(phi[1:].sum())
    if suite == "functional_eq":  # up to n_p units of every q >= 3, per weight
        return n_weights * int(np.minimum(phi[3:], n_p).sum())
    if suite == "weil":  # every (m, n); Kloosterman always, twisted for 4 | q, Salie for odd q
        kinds = 1 + (qs[1:] % 4 == 0) + (qs[1:] % 2 == 1)
        return (mn_max + 1) ** 2 * int(kinds.sum())
    if suite == "class_counts":  # per q >= 3: mod-4 and quarter classes, or half classes
        square = np.isin(qs, np.arange(q_max + 1) ** 2)
        per_q = np.where(qs % 4 == 0, 1 + ~square, (qs % 2 == 1) & ~square)
        return int(per_q[3:].sum())
    if suite == "reduction":  # every non-unit p in 1..q of every q >= 2
        return int((qs[2:] - phi[2:]).sum())
    raise ValueError(f"unknown suite {suite!r}")


def check_suite(suite: str, expected: int, stdout: str) -> list[str]:
    line = f"{suite}: {expected} checks, 0 violations"
    if line in stdout.splitlines():
        return []
    first = stdout.splitlines()[0] if stdout else "<no output>"
    return [f"expected {line!r}, got {first!r}"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def derived_seed(seed: int, use: str) -> int:
    """An independent seed in [0, 2^31) for one input of the workload."""
    return random.Random(f"{seed}:{use}").randrange(2 ** 31)


def interval_end(seed: int) -> float:
    """Right end b of the moments weight [0, b); the series work does not depend on b."""
    return random.Random(f"{seed}:interval").uniform(0.25, 0.45)


def _figure_ops(seed: int, work: Path) -> list[Op]:
    ops = []
    for which, (samples, _) in FIGURES.items():
        out = work / which

        def check(stdout, which=which, out=out):
            return check_figure(which, json.loads((out / f"{which}_summary.json").read_text()))

        argv = (*CLI, "figure", which, "--out-dir", str(out), "--samples", str(samples),
                "--seed", str(derived_seed(seed, which)))
        ops.append(Op(f"figure {which}", argv, (out,), check))
    return ops


def _moments_op(label: str, q_args: tuple[str, ...], k_list: str, trunc: int, seed: int,
                work: Path, check_rows: Callable[[list, float], list[str]]) -> Op:
    b = interval_end(seed)
    out = work / f"{label}.csv"
    argv = (*CLI, "moments", *q_args, "--weight", f"interval:0,{b!r}", "--k-list", k_list,
            "--trunc", str(trunc), "--out", str(out))
    return Op(label, argv, (out,), lambda stdout: check_rows(read_moment_rows(out), b))


def _suite_ops(seed: int) -> list[Op]:
    ops = []
    for suite, sizes in SUITES.items():
        if suite in CLI_SUITES:
            argv = (*CLI, "verify", suite)
        else:
            params = dict(sizes)
            if suite == "functional_eq":  # its random weights come from the workload seed
                params["seed"] = derived_seed(seed, suite)
            argv = (*SUITE, suite, *(f"{k}={v}" for k, v in params.items()))
        expected = expected_checked(suite, **sizes)
        ops.append(Op(f"verify {suite}", argv, (),
                      lambda stdout, suite=suite, expected=expected: check_suite(suite, expected, stdout)))
    return ops


def build_ops(workload: str, seed: int, work: Path) -> list[Op]:
    """The ops of one workload, with outputs under `work`."""
    if workload == "figures":
        return _figure_ops(seed, work)
    if workload == "moments_sweep":
        return [_moments_op(
            "moments_sweep", ("--q-range", f"{SWEEP_QS[0]}..{SWEEP_QS[-1]}"), "0,2,4", SWEEP_TRUNC,
            seed, work, lambda rows, b: check_moments_sweep(rows, 0.0, b))]
    if workload == "moments_large_q":
        return [_moments_op(
            "moments_large_q", ("--q", str(LARGE_Q)), "2", LARGE_Q_TRUNC, seed, work,
            lambda rows, b: check_moments_large_q(rows, LARGE_Q, 0.0, b))]
    if workload == "verify_suites":
        return _suite_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def output_bytes(op: Op) -> int:
    """Size of everything the op wrote."""
    total = 0
    for path in op.outputs:
        if path.is_dir():
            total += sum(f.stat().st_size for f in path.iterdir() if f.is_file())
        elif path.is_file():
            total += path.stat().st_size
    return total
