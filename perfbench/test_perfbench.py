"""Tests of the benchmark's own code: tracer arithmetic, output checks, metric names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    # outer [0, 10] encloses inner [1, 3] and inner [4, 7]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    inner = t.wrap("m.inner", lambda: None)

    def body():
        inner()
        inner()

    t.wrap("m.outer", body)()
    assert dict(t.calls) == {"m.outer": 1, "m.inner": 2}
    assert t.self_s["m.inner"] == 5.0
    assert t.self_s["m.outer"] == 5.0


def test_raising_span_is_closed():
    # outer [0, 6] encloses a failing inner [2, 5]
    ticks = iter([0.0, 2.0, 5.0, 6.0])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def fail():
        raise KeyError("x")

    inner = t.wrap("m.inner", fail)

    def body():
        with pytest.raises(KeyError):
            inner()

    t.wrap("m.outer", body)()
    assert t.self_s["m.inner"] == 3.0
    assert t.self_s["m.outer"] == 3.0
    assert t._child_s == [6.0]


def _traced_stats(tmp_path, *target):
    stats_path = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(Path(tracer.__file__)), str(stats_path), *target]
    done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == [stats_path]
    return json.loads(stats_path.read_text())


def test_traced_cli_reaches_names_bound_in_other_modules(tmp_path):
    stats = _traced_stats(tmp_path, *wl.CLI, "moments", "--q", "101", "--weight", "const", "--k-list", "2")
    calls = stats["calls"]
    assert calls["cli.cmd_moments"] == 1  # bound by build_parser
    assert calls["distlab.empirical_moment"] == 1  # imported by name into cli
    assert calls["distlab.limit_moment"] == 1
    assert calls["gauss_sums.DirectEvaluator.call"] == 100
    assert stats["counters"]["gauss_sums.DirectEvaluator.call.terms"] == 100 * 101


def test_traced_suite_counts_its_checks(tmp_path):
    stats = _traced_stats(tmp_path, *wl.SUITE, "reduction", "q_max=20")
    assert stats["calls"]["verify.reduction_suite"] == 1
    assert stats["counters"]["verify.reduction_suite.checked"] == wl.expected_checked("reduction", 20)


def test_series_indices_fold_by_variant():
    coeffs = {k: 1.0 for k in range(-6, 7)}
    assert tracer.series_indices(coeffs, "G_full", None) == set(range(7))
    assert tracer.series_indices(coeffs, "G_plus", None) == {0, 1, 2, 3}
    assert tracer.series_indices(coeffs, "G_minus", None) == {1, 3, 5}
    assert tracer.series_indices(coeffs, "G_full", 4) == set(range(5))


def test_large_q_is_prime():
    assert tracer.next_prime(wl.LARGE_Q) == wl.LARGE_Q


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _brute_mean_square(q, b):
    """(1/((q-1) q)) sum_{p=1}^{q-1} |sum_h w(h/q) e(p h^2/q)|^2, term by term."""
    h = np.arange(q)
    w = (h / q < b).astype(float)
    total = 0.0
    for p in range(1, q):
        total += abs(np.sum(w * np.exp(2j * np.pi * (p * h * h % q) / q))) ** 2
    return total / ((q - 1) * q)


def test_parseval_oracle_matches_brute_force():
    assert wl.indicator_second_moment(101, 0.0, 0.3) == pytest.approx(_brute_mean_square(101, 0.3), rel=1e-12)


def test_mean_square_oracle_folds_by_variant():
    a, b, cutoff = 0.1, 0.35, 6

    def c(k):
        if k == 0:
            return b - a
        return (np.exp(-2j * np.pi * k * a) - np.exp(-2j * np.pi * k * b)) / (2j * np.pi * k)

    def fold(ks):
        return sum(abs(c(k) + c(-k)) ** 2 for k in ks)

    full = abs(c(0)) ** 2 + fold(range(1, 7))
    plus = abs(c(0)) ** 2 + fold((2, 4, 6))
    minus = fold((1, 3, 5))
    assert wl.indicator_mean_square(a, b, cutoff, 5013) == pytest.approx(full, rel=1e-12)
    assert wl.indicator_mean_square(a, b, cutoff, 5012) == pytest.approx(plus, rel=1e-12)
    assert wl.indicator_mean_square(a, b, cutoff, 5014) == pytest.approx(minus, rel=1e-12)


# ---------------------------------------------------------------------------
# each check rejects a perturbed value
# ---------------------------------------------------------------------------

def _summary(**changes):
    summary = {"total_samples": 2136, "ks_re": 0.012, "ks_im": 0.009}
    summary.update(changes)
    return summary


@pytest.mark.parametrize("changes", [{"total_samples": 2135}, {"ks_re": 0.061}, {"ks_im": 0.06}])
def test_figure_check(changes):
    assert wl.check_figure("fig1", _summary()) == []
    assert wl.check_figure("fig1", _summary(**changes))


def _row(q, k, emp, lim):
    return (q, k, emp, lim, abs(emp - lim) / lim)


def _sweep_rows(b):
    rows = []
    for q in wl.SWEEP_QS:
        for k in wl.SWEEP_KS:
            lim = {0.0: 1.0, 2.0: wl.indicator_mean_square(0.0, b, wl.SWEEP_TRUNC, q), 4.0: 0.05}[k]
            emp = lim if k == 0.0 else lim * 1.004
            rows.append(_row(q, k, emp, lim))
    return rows


def _perturb(rows, index, row):
    rows = list(rows)
    rows[index] = row
    return rows


def test_sweep_check_rejects_each_perturbation():
    b = 0.3
    rows = _sweep_rows(b)
    assert wl.check_moments_sweep(rows, 0.0, b) == []
    q, k, emp, lim, gap = rows[1]  # q = 5010, k = 2
    bad = [
        rows[:-1],  # a row missing
        _perturb(rows, 0, (5010, 0.0, 0.999, 1.0, 0.001)),  # k = 0 empirical is not 1
        _perturb(rows, 1, _row(q, k, emp, lim * (1 + 1e-8))),  # k = 2 limit off the coefficient sum
        _perturb(rows, 1, (q, k, emp, lim, gap * 2)),  # gap column inconsistent
        _perturb(rows, 2, _row(5010, 4.0, 0.06, 0.05)),  # gap 0.2 is too large
    ]
    for perturbed in bad:
        assert wl.check_moments_sweep(perturbed, 0.0, b)


def test_large_q_check_rejects_perturbed_empirical():
    q, b = 101, 0.3
    want = wl.indicator_second_moment(q, 0.0, b)
    lim = want * 1.01
    assert wl.check_moments_large_q([_row(q, 2.0, want, lim)], q, 0.0, b) == []
    assert wl.check_moments_large_q([_row(q, 2.0, want * (1 + 1e-8), lim)], q, 0.0, b)
    assert wl.check_moments_large_q([_row(q, 4.0, want, lim)], q, 0.0, b)


def test_suite_check():
    assert wl.check_suite("weil", 43750, "weil: 43750 checks, 0 violations\n") == []
    assert wl.check_suite("weil", 43750, "weil: 43749 checks, 0 violations\n")
    assert wl.check_suite("weil", 43750, "weil: 43750 checks, 1 violations\nviolations:\n")
    assert wl.check_suite("weil", 43750, "")


def test_check_counts_match_the_cli_suites():
    # counts printed by `gausslab verify <suite>` at the suites' default sizes
    cli = {"closed_form": (79852, 512), "functional_eq": (98850, 400), "weil": (43750, 1000),
           "class_counts": (1956, 2000), "reduction": (7868, 200)}
    for suite, (checked, q_max) in cli.items():
        assert wl.expected_checked(suite, q_max) == checked, suite


def test_workload_inputs_follow_the_seed(tmp_path):
    first = [op.argv for op in wl.build_ops("moments_sweep", 7, tmp_path)]
    assert first == [op.argv for op in wl.build_ops("moments_sweep", 7, tmp_path)]
    assert first != [op.argv for op in wl.build_ops("moments_sweep", 8, tmp_path)]


# ---------------------------------------------------------------------------
# printed metrics match BENCHMARK.json
# ---------------------------------------------------------------------------

def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_end_to_end_names_match_benchmark_json():
    metrics = run.end_to_end_metrics([run.Pass([1.0], 2.0, [], 0, 0)], [0.5])
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared("end_to_end")


def test_per_layer_names_match_benchmark_json():
    metrics = run.layer_metrics(run.merge_stats([]), 1.0, 1.0, 0)
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared("per_layer")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
