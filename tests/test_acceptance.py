"""Acceptance gate: every criterion at its stated size and tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  The expensive experiment reproductions (criterion 7)
run at the full reference scale and take a couple of minutes.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gausslab import arith, cli, distlab, gauss_sums, verify, weights
from gausslab.gauss_sums import G_MINUS
from reference import discrete_factor_counts

B7 = 1 / math.sqrt(7)


def report(ok: bool, label: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_closed_form_equivalence():
    result = verify.closed_form_suite(q_max=512)
    report(result.passed and result.checked > 75_000,
           f"criterion 1: closed form vs direct, q <= 512, "
           f"{result.checked} pairs, {len(result.failures)} violations")


def test_criterion_2_functional_equation_equivalence():
    result = verify.functional_eq_suite(q_max=400, n_weights=50)
    report(result.passed,
           f"criterion 2: functional equations, 50 weights x q <= 400, "
           f"{result.checked} evaluations, {len(result.failures)} violations")


def test_criterion_3_noncoprime_reduction():
    result = verify.reduction_suite(q_max=200)
    report(result.passed,
           f"criterion 3: non-coprime reduction, q <= 200, "
           f"{result.checked} pairs, {len(result.failures)} violations")


def test_criterion_4_weil_bounds():
    result = verify.weil_suite(q_max=1000)
    report(result.passed,
           f"criterion 4: Weil bounds, q <= 1000, m,n <= 4, "
           f"{result.checked} sums, {len(result.failures)} violations")


def test_criterion_5_exact_class_counts():
    result = verify.class_count_suite(q_max=2000)
    report(result.passed,
           f"criterion 5: exact class counts, q <= 2000, "
           f"{result.checked} moduli checks, {len(result.failures)} violations")


def test_criterion_6_discrete_factor_law():
    from fractions import Fraction

    quarter_values = {1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j}
    failures = []
    checked = 0
    for q in range(4, 2001, 4):
        counts = discrete_factor_counts(q)
        checked += 1
        if arith.is_perfect_square(q):
            if counts != {1 + 1j: Fraction(1, 2), 1 - 1j: Fraction(1, 2)}:
                failures.append(q)
        else:
            if set(counts) != quarter_values or set(counts.values()) != {Fraction(1, 4)}:
                failures.append(q)
    report(not failures,
           f"criterion 6: discrete factor law, {checked} moduli = 0 mod 4, "
           f"failures at {failures[:5]}")


def test_criterion_7_figure_reproduction(tmp_path):
    expectations = {
        "fig1": (5012, 2136),
        "fig2": (5013, 3336),
        "fig3": (5014, 2376),
    }
    lines = []
    ok = True
    for which, (q, total) in expectations.items():
        out_dir = tmp_path / which
        code = cli.main(["figure", which, "--out-dir", str(out_dir)])
        summary = json.loads((out_dir / f"{which}_summary.json").read_text())
        this_ok = (code == 0 and summary["total_samples"] == total
                   and summary["ks_re"] < 0.06 and summary["ks_im"] < 0.06)
        ok = ok and this_ok
        lines.append(f"{which}: n={summary['total_samples']} (want {total}), "
                     f"KS re={summary['ks_re']:.4f} im={summary['ks_im']:.4f}")
    report(ok, "criterion 7: figure reproduction; " + "; ".join(lines))


def test_criterion_8_moment_convergence():
    w = weights.interval_indicator(0.0, B7, cutoff=4000)
    empirical, limit = distlab.empirical_moment(5013, w, k=2.0)
    relative_gap = abs(empirical - limit) / max(limit, 1e-12)
    # two oracles outside limit_moment: the folded Parseval sum of the analytic
    # coefficients, and the rectangle rule on a prime grid above 2 * 4000, where
    # n1^2 = n2^2 mod 65537 only for n1 = n2, so k = 2 does not alias
    c = w.coefficients
    folded = [c[0]] + [c[n] + c[-n] for n in range(1, 4001)]  # c_n + c_{-n} share e(n^2 x)
    closed = sum(abs(x) ** 2 for x in folded)
    grid = gauss_sums.quadratic_grid(np.arange(4001), np.array(folded), 65537)
    quad = float(np.mean(np.abs(grid) ** 2))
    gap = max(abs(limit - closed), abs(limit - quad))
    report(relative_gap < 0.1 and gap < 1e-6,
           f"criterion 8: k=2 moment at q=5013, relative gap "
           f"{relative_gap:.4f} < 0.1; |limit - coefficient form| = "
           f"{abs(limit - closed):.2e}, |limit - 65537-point quadrature| = "
           f"{abs(limit - quad):.2e}, both < 1e-6")


def test_criterion_9_symmetry_properties():
    # a) G_minus vanishes identically for a half-shift-symmetric weight
    rng = np.random.default_rng(90)
    coeffs = {0: complex(rng.normal())}
    for n in range(1, 9):
        c = complex(rng.normal(), rng.normal())
        coeffs[n] = c
        coeffs[-n] = (-1) ** n * c
    symmetric = weights.fourier_weight(coeffs)
    gm = distlab.sample_limit_law(G_MINUS, symmetric, None, 100_000, seed=91)
    minus_vanishes = float(np.max(np.abs(gm))) < 1e-9

    # b) real and imaginary parts of the odd series share one law
    w = weights.interval_indicator(0.0, B7, cutoff=5000)
    vals = distlab.sample_limit_law(G_MINUS, weights.as_fourier_series(w),
                                    5000, 100_000, seed=92)
    ks = distlab.ks_distance(vals.real, vals.imag)
    report(minus_vanishes and ks < 0.02,
           f"criterion 9: odd series vanishes under symmetry "
           f"(max {float(np.max(np.abs(gm))):.1e}); Re/Im KS = {ks:.4f} < 0.02")


def test_criterion_10_cli_determinism(tmp_path):
    def hashes(out_dir):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out_dir.iterdir())}

    argv = ["figure", "fig1", "--trunc", "400", "--samples", "20000", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out-dir", str(a)]) == 0
    assert cli.main(argv + ["--out-dir", str(b)]) == 0
    fig_same = hashes(a) == hashes(b)

    fa, fb = tmp_path / "ma.csv", tmp_path / "mb.csv"
    margv = ["moments", "--q-range", "12..40", "--weight", "interval:0,0.5",
             "--trunc", "600", "--k-list", "0,2,4"]
    assert cli.main(margv + ["--out", str(fa)]) == 0
    assert cli.main(margv + ["--out", str(fb)]) == 0
    moments_same = fa.read_bytes() == fb.read_bytes()

    ea, eb = tmp_path / "ea.csv", tmp_path / "eb.csv"
    eargv = ["expsum", "--kind", "kloosterman", "--m", "1", "--n", "1",
             "--sweep-q", "2..200"]
    assert cli.main(eargv + ["--out", str(ea)]) == 0
    assert cli.main(eargv + ["--out", str(eb)]) == 0
    expsum_same = ea.read_bytes() == eb.read_bytes()

    report(fig_same and moments_same and expsum_same,
           f"criterion 10: byte-identical reruns "
           f"(figure={fig_same}, moments={moments_same}, expsum={expsum_same})")


def test_readme_library_quickstart_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
