"""CLI surface: commands, schemas, exit codes, determinism."""

import argparse
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import gausslab
from gausslab import arith, cli, distlab, errors, gauss_sums, verify, weights
from gausslab.expsums import expsum_report
from test_expsums import weyl_statistic

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return cli.main(argv)


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_calls(monkeypatch, fn):
    """Wrap fn wherever a gausslab module binds it by name; returns the args of each call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gausslab":
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls


def flip_one_class(monkeypatch, at_q):
    """verify.modulus_case with the sign of its first unit's class flipped at the modulus at_q."""
    real = verify.modulus_case

    def faulty(q, ps=()):
        case = real(q, ps)
        if q != at_q:
            return case
        classes = np.array(case.classes)  # a copy: for q = 0 mod 4 classes is characters
        classes[0] = -classes[0]
        return case._replace(classes=classes)

    monkeypatch.setattr(verify, "modulus_case", faulty)


class TestVerifyCommand:
    def test_reduction_passes(self, capsys):
        assert run(["verify", "reduction"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    @pytest.mark.parametrize("suite", ["functional_eq"])
    def test_negative_seed_refused(self, suite):
        # random.Random would read it as |seed|, an alias of another seed's draws
        with pytest.raises(errors.DomainError, match="seed must be >= 0, got -1"):
            verify.run_suite(suite, q_max=10, seed=-1)

    def test_unknown_suite_rejected(self):
        assert run(["verify", "bogus"]) == 2
        with pytest.raises(errors.DomainError, match="unknown suite 'bogus'"):
            verify.run_suite("bogus")

    def test_suites_run_through_the_module_namespace(self, monkeypatch):
        # a wrapper set on the module, as the benchmark's tracer sets one, is what runs
        assert set(verify.SUITES) == {"closed_form", "functional_eq", "weil", "class_counts",
                                      "reduction"}
        sizes = []
        monkeypatch.setattr(verify, "reduction_suite", lambda **kw: sizes.append(kw) or "traced")
        assert verify.run_suite("reduction", q_max=5) == "traced" and sizes == [{"q_max": 5}]

    def test_suites_take_only_what_callers_set(self):
        # q_max is run_suite's size override; the benchmark also sets functional_eq's
        # n_weights and seed.  Tolerances and the other sizes are fixed in verify
        params = {name: list(inspect.signature(suite).parameters)
                  for name, suite in verify.SUITES.items()}
        assert params == {name: ["q_max"] + ["n_weights", "seed"] * (name == "functional_eq")
                          for name in verify.SUITES}

    def test_fault_injection_fails(self, monkeypatch, capsys):
        flip_one_class(monkeypatch, 15)  # one unit moves between the half classes of 15
        assert run(["verify", "class_counts"]) == 1
        out = capsys.readouterr().out
        assert "violations" in out and "q=15 half counts" in out

    def test_worst_margin_on_its_own_line(self, capsys):
        assert run(["verify", "reduction"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "reduction: 7868 checks, 0 violations"
        assert lines[1].startswith("reduction: worst gap/allowed ")
        assert 0 < float(lines[1].rsplit(" ", 1)[1]) < 1

    def test_weil_worst_matches_scalar_reports(self):
        result = verify.weil_suite(q_max=40)
        kinds = lambda q: ["kloosterman"] + ["twisted"] * (q % 4 == 0) + ["salie"] * (q % 2)
        cases = [(m, n, q, *expsum_report(kind, m, n, q)) for q in range(1, 41)
                 for kind in kinds(q) for m in range(5) for n in range(5)]
        ratios = [abs(value) / (bound + verify.WEIL_SLACK) for *_, value, bound in cases]
        # every pair is checked, and the worst ratio is over (m, n) != (0, 0) mod q, which
        # leaves out K(0, 0, 1) = 1 at its bound
        assert result.checked == len(cases)
        assert result.worst == pytest.approx(
            max(x for x, (m, n, q, *_) in zip(ratios, cases) if m % q or n % q), rel=1e-12)
        assert max(ratios) == ratios[0] > result.worst

    def test_weil_margin_line_at_cli_size(self, capsys):
        # Salie at q = 997, m = n = 1; the trivial K(0, 0, 1) = 1 would read 0.999999
        assert run(["verify", "weil"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "weil: worst gap/allowed 0.999921"


def totients(n):
    """phi(0..n) by a sieve."""
    phi = np.arange(n + 1)
    for p in range(2, n + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] -= phi[p::p] // p
    return phi


class TestSuiteCounts:
    """Each suite makes the number of checks its definition gives, counted per modulus."""

    SIZES = {"closed_form": {"q_max": 60}, "functional_eq": {"q_max": 40, "n_weights": 3},
             "weil": {"q_max": 40}, "class_counts": {"q_max": 150}, "reduction": {"q_max": 50}}

    @staticmethod
    def expected(suite, q_max, n_weights=50, n_p=5, mn_max=4):
        phi = totients(q_max)
        square = lambda q: math.isqrt(q) ** 2 == q
        per_q = {
            "closed_form": lambda q: phi[q],  # every unit
            "functional_eq": lambda q: n_weights * min(n_p, phi[q]) * (q >= 3),
            # Kloosterman always, twisted for q = 0 mod 4, Salie for odd q
            "weil": lambda q: (mn_max + 1) ** 2 * (1 + (q % 4 == 0) + (q % 2)),
            # q = 0 mod 4: p mod 4 classes, and quarter classes unless square; odd: half classes
            "class_counts": lambda q: (q >= 3) * (2 - square(q) if q % 4 == 0
                                                  else q % 2 * (not square(q))),
            "reduction": lambda q: q - phi[q],  # every non-unit p in 1..q
        }[suite]
        return sum(int(per_q(q)) for q in range(1, q_max + 1))

    @pytest.mark.parametrize("suite", sorted(SIZES))
    def test_small_sizes(self, suite):
        result = verify.run_suite(suite, **self.SIZES[suite])
        assert result.passed and result.checked == self.expected(suite, **self.SIZES[suite])

    def test_cli_sizes(self):
        # the counts `gausslab verify` prints at its default sizes, for every suite
        assert set(self.SIZES) == set(verify.SUITES)
        assert [self.expected(*args) for args in [("closed_form", 512), ("functional_eq", 400),
                                                  ("weil", 1000), ("class_counts", 2000),
                                                  ("reduction", 200)]] == [
            79852, 98850, 43750, 1956, 7868]

    def test_weil_analyzes_each_modulus_once(self, monkeypatch):
        # tau(q) of the Weil bound; inverse_table counts the units it builds instead
        analyzed = count_calls(monkeypatch, arith.analyze_modulus)
        assert verify.weil_suite(q_max=40).passed
        assert [args[0] for args in analyzed] == list(range(1, 41))

    def test_trusted_callers_make_no_gcd_pass(self, monkeypatch, tmp_path):
        # modulus_case reads the unit check from its characters and points() inverts the
        # units it has checked; moments takes phi(q) from its units
        analyzed = count_calls(monkeypatch, arith.analyze_modulus)
        assert run(["moments", "--q-range", "5010..5015", "--weight", "interval:0,0.3",
                    "--k-list", "0,2", "--trunc", "100", "--domain", "interval:0.1,0.6"]) == 0
        assert analyzed == []
        for which in sorted(cli.FIGURES):
            assert run(["figure", which, "--trunc", "50", "--samples", "500",
                        "--out-dir", str(tmp_path)]) == 0
        assert verify.class_count_suite(q_max=300).passed
        assert verify.functional_eq_suite(q_max=60, n_weights=4).passed
        w = weights.fourier_weight({-3: 0.5, 0: 1.0, 4: 0.25j, 9: -0.75})
        for q in (5012, 5013, 5014):
            ps = arith.units(q)
            gaps = gauss_sums.gauss_sum_fast_batch(w, ps, q) - gauss_sums.DirectEvaluator(w, q)(ps)
            assert np.abs(gaps).max() < 1e-10 * math.sqrt(q), q

    def test_functional_eq_folds_once_per_variant(self, monkeypatch):
        folds = count_calls(monkeypatch, gauss_sums.series_terms)
        assert verify.functional_eq_suite(q_max=60, n_weights=4).passed
        assert sorted(args[1] for args in folds) == sorted(gauss_sums.VARIANTS)

    def test_weil_builds_one_table_per_modulus(self, monkeypatch):
        # all kinds of a modulus share one inverse table; the moduli with a twist add one case
        tables = count_calls(monkeypatch, arith.inverse_table)
        cases = count_calls(monkeypatch, gauss_sums.modulus_case)
        assert verify.weil_suite(q_max=40).passed
        assert [args[0] for args in tables] == list(range(1, 41))
        assert [args[0] for args in cases] == [q for q in range(1, 41) if q % 4 != 2]

    def test_class_counts_build_one_case_per_checked_modulus(self, monkeypatch):
        analyzed = count_calls(monkeypatch, arith.analyze_modulus)
        cases = count_calls(monkeypatch, gauss_sums.modulus_case)
        assert verify.class_count_suite(q_max=150).passed
        checked = [q for q in range(3, 151)
                   if q % 4 == 0 or (q % 2 == 1 and math.isqrt(q) ** 2 != q)]
        assert len(checked) == 106 and [args[0] for args in cases] == checked
        assert analyzed == []


class TestBatchedSuiteFaults:
    """One wrong value at one known tuple gives exactly one violation, named by that tuple.

    The batched suites compare whole arrays per modulus; each test moves one
    entry of one array, so a masking or indexing slip cannot hide it.
    """

    @staticmethod
    def bump(values, ps, q, at):
        """values with 10 added where (p, q) == at."""
        if q != at[1]:
            return values
        values = np.array(values, dtype=np.complex128)
        values[np.asarray(ps) == at[0]] += 10
        return values

    def check(self, suite, sizes, prefix, capsys):
        result = verify.run_suite(suite, **sizes)
        assert len(result.failures) == 1, result.failures
        assert result.failures[0].startswith(prefix)
        assert result.worst > 1
        assert run(["verify", suite]) == 1
        listed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  ")]
        assert len(listed) == 1 and listed[0].startswith(f"  {prefix}")

    def test_class_counts(self, monkeypatch, capsys):
        flip_one_class(monkeypatch, 12)  # one unit moves between the quarter classes of 12
        self.check("class_counts", {"q_max": 20}, "q=12 quarter counts ", capsys)

    def test_closed_form(self, monkeypatch, capsys):
        real = verify.gauss_sum_closed
        monkeypatch.setattr(verify, "gauss_sum_closed",
                            lambda ps, q: self.bump(real(ps, q), ps, q, (5, 12)))
        self.check("closed_form", {"q_max": 20}, "p=5 q=12 |direct-closed|=", capsys)

    def test_closed_form_nan(self, monkeypatch, capsys):
        # a NaN gap is a violation and an infinite margin, not a margin below 1
        real = verify.gauss_sum_closed

        def faulty(ps, q):
            values = np.array(real(ps, q))
            if q == 12:
                values[ps == 5] = math.nan
            return values

        monkeypatch.setattr(verify, "gauss_sum_closed", faulty)
        self.check("closed_form", {"q_max": 20}, "p=5 q=12 |direct-closed|=nan", capsys)
        assert verify.run_suite("closed_form", q_max=20).worst == math.inf

    def test_functional_eq(self, monkeypatch, capsys):
        real = verify.modulus_case

        def faulty(q, ps=()):
            # one case per modulus covers every weight; only row 0, the first weight, is hit
            case = real(q, ps)
            normalizers = np.array(case.normalizers)
            normalizers[0] = self.bump(normalizers[0], ps[0], q, (7, 12))
            return case._replace(normalizers=normalizers)

        monkeypatch.setattr(verify, "modulus_case", faulty)
        self.check("functional_eq", {"q_max": 20, "n_weights": 3}, "p=7 q=12 |fast-direct|=", capsys)

    def test_weil(self, monkeypatch, capsys):
        real = verify.unit_sums

        def faulty(ms, ns, q, kinds=None):
            sums = real(ms, ns, q, kinds)
            pair = np.flatnonzero((ms == 2) & (ns == 3))
            sums["kloosterman"] = self.bump(sums["kloosterman"], np.arange(len(ms)), q, (pair[0], 7))
            return sums

        monkeypatch.setattr(verify, "unit_sums", faulty)
        self.check("weil", {"q_max": 20}, "kloosterman m=2 n=3 q=7 |value|=", capsys)

    def test_reduction(self, monkeypatch, capsys):
        outer = self

        class Faulty(verify.DirectEvaluator):
            def __call__(self, p):
                return outer.bump(super().__call__(p), p, self.q, (8, 12))

        monkeypatch.setattr(verify, "DirectEvaluator", Faulty)
        self.check("reduction", {"q_max": 30}, "p=8 q=12 gap=", capsys)


def reference_line(row):
    """One CSV data line formatted cell by cell: repr for a float, str for anything else."""
    return ",".join(repr(c) if isinstance(c, float) else str(c) for c in row)


def reference_sample_lines(batch, q):
    """The samples CSV rows written one (p, label, re, im) row at a time, with scalar classes."""
    labels = {1: "1", -1: "-1", 1j: "i", -1j: "-i", None: ""}
    rows = [(p, labels[gauss_sums.sigma_class(p, q)], float(v.real), float(v.imag))
            for p, v in zip(batch.case.units.tolist(), batch.values.tolist())]
    return list(map(reference_line, rows))


class TestFigureCommand:
    def test_small_fig1(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["figure", "fig1", "--trunc", "150", "--samples", "2000",
                    "--out-dir", str(out)])
        assert code == 0
        samples = (out / "fig1_samples.csv").read_text().splitlines()
        header_idx = next(i for i, l in enumerate(samples) if not l.startswith("#"))
        assert samples[header_idx] == "p,sigma,re,im"
        rows = samples[header_idx + 1:]
        assert len(rows) == 2136
        summary = json.loads((out / "fig1_summary.json").read_text())
        assert summary["total_samples"] == 2136
        assert summary["mean_bin_count"] == pytest.approx(53.4)
        assert summary["q"] == 5012
        assert (out / "fig1_hist_re.csv").exists()
        assert (out / "fig1_hist_im.csv").exists()
        limit = np.load(out / "fig1_limit.npy")
        assert limit.dtype == np.complex128 and limit.shape == (2000,)
        assert sorted(os.listdir(out)) == [f"fig1_{name}" for name in (
            "hist_im.csv", "hist_re.csv", "limit.npy", "samples.csv", "summary.json")]

    @pytest.mark.parametrize("which", ["fig1", "fig2", "fig3"])
    def test_phi_is_the_number_of_samples(self, tmp_path, monkeypatch, which):
        # the batch holds every unit of q, so phi(q) needs no factorization
        analyzed = count_calls(monkeypatch, arith.analyze_modulus)
        assert run(["figure", which, "--trunc", "20", "--samples", "100",
                    "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / f"{which}_summary.json").read_text())
        assert summary["phi_q"] == summary["total_samples"] == totients(summary["q"])[-1]
        assert analyzed == []

    def test_samples_file_equals_row_wise_reference(self, tmp_path):
        out = tmp_path / "out"
        assert run(["figure", "fig1", "--trunc", "50", "--samples", "100",
                    "--out-dir", str(out)]) == 0
        lines = (out / "fig1_samples.csv").read_text().splitlines()
        batch = distlab.empirical_batch(5012, weights.interval_indicator(0.0, 1 / math.sqrt(7), 100))
        assert lines[lines.index("p,sigma,re,im") + 1:] == reference_sample_lines(batch, 5012)

    # quarter, half (odd and 2 mod 4), mod4 and none (odd and 2 mod 4) classes
    @pytest.mark.parametrize("q", [5012, 5013, 5014, 16, 9, 18])
    def test_sample_lines_equal_row_wise_reference(self, tmp_path, monkeypatch, q):
        # fig1 rerun at modulus q, so the writer also meets the classes no figure has
        monkeypatch.setitem(cli.FIGURES, "fig1", (q, 8, 10))
        assert run(["figure", "fig1", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "fig1_samples.csv").read_text().splitlines()
        batch = distlab.empirical_batch(q, weights.interval_indicator(0.0, 1 / math.sqrt(7), 16))
        assert lines[lines.index("p,sigma,re,im") + 1:] == reference_sample_lines(batch, q)

    @pytest.mark.parametrize("which,center", [("fig1", "tq"), ("fig2", "tq"), ("fig3", "none")])
    def test_real_part_centered_on_t_over_q_iff_the_series_has_c0(self, tmp_path, which, center):
        assert run(["figure", which, "--trunc", "20", "--samples", "100",
                    "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / f"{which}_summary.json").read_text())
        assert summary["center"] == center
        shift = summary["t_over_q"] if center == "tq" else 0.0
        samples = (tmp_path / f"{which}_samples.csv").read_text().splitlines()
        re_min = min(float(l.split(",")[2]) for l in samples[samples.index("p,sigma,re,im") + 1:])
        hist = (tmp_path / f"{which}_hist_re.csv").read_text().splitlines()
        first_bin = hist[hist.index("bin_lo,bin_hi,count,density") + 1]
        assert float(first_bin.split(",")[0]) == re_min - shift

    def test_center_is_not_an_option(self, tmp_path, capsys):
        # the centering follows from the series variant alone
        assert run(["figure", "fig1", "--center", "tq", "--trunc", "10", "--samples", "10",
                    "--out-dir", str(tmp_path)]) == 2
        assert "--center" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_fig3_limit_is_single_column(self, tmp_path):
        # one column of complex samples, as for the other variants: the KS reads its imag part
        out = tmp_path / "out"
        assert run(["figure", "fig3", "--trunc", "101", "--samples", "1500",
                    "--out-dir", str(out)]) == 0
        limit = np.load(out / "fig3_limit.npy")
        summary = json.loads((out / "fig3_summary.json").read_text())
        assert summary["total_samples"] == 2376
        assert summary["variant"] == "G_minus"
        w = weights.interval_indicator(0.0, 1 / math.sqrt(7), 101)
        expected = distlab.sample_limit_law("G_minus", w, 101, 1500, 1)
        assert limit.dtype == expected.dtype and limit.shape == (1500,)
        assert limit.tobytes() == expected.tobytes()
        batch = distlab.empirical_batch(5014, w)
        assert summary["ks_re"] == distlab.ks_distance(batch.values.real, limit.imag)

    def test_sample_count_off_the_lattice(self, tmp_path):
        # 1000 is no multiple of the 31 shifts per base point: the draw keeps the first 1000
        assert run(["figure", "fig3", "--samples", "1000", "--trunc", "200",
                    "--out-dir", str(tmp_path)]) == 0
        assert np.load(tmp_path / "fig3_limit.npy").shape == (1000,)

    def test_histogram_counts_sum_to_total(self, tmp_path):
        out = tmp_path / "out"
        run(["figure", "fig2", "--trunc", "100", "--samples", "1000",
             "--out-dir", str(out)])
        lines = (out / "fig2_hist_re.csv").read_text().splitlines()
        rows = [l for l in lines if not l.startswith("#") and not l.startswith("bin_lo")]
        assert sum(int(r.split(",")[2]) for r in rows) == 3336

    @pytest.mark.parametrize("flag", ["--samples", "--trunc", "--bins"])
    def test_zero_is_a_usage_error(self, tmp_path, capsys, flag):
        # 0 must not fall back to the preset (300000 samples, truncation 4000)
        out = tmp_path / "out"
        assert run(["figure", "fig2", flag, "0", "--out-dir", str(out)]) == 2
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        # refused with the size checks, before any work and before --out-dir is made
        out = tmp_path / "out"
        assert run(["figure", "fig2", "--samples", "10", "--trunc", "10", "--seed", "-1",
                    "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_zero_bins_leaves_out_dir_empty(self, tmp_path):
        # the check runs before the batch and the sampling, so no CSV is half written
        out = tmp_path / "out"
        out.mkdir()
        assert run(["figure", "fig2", "--samples", "10", "--trunc", "10", "--bins", "0",
                    "--out-dir", str(out)]) == 2
        assert list(out.iterdir()) == []

    def test_fast_interval_weight(self, tmp_path, capsys):
        # the numerators have one route, the numerator grid, and no option selects it
        out = tmp_path / "out"
        argv = ["figure", "fig2", "--trunc", "100", "--samples", "1000", "--out-dir", str(out)]
        assert run(argv + ["--fast"]) == 2
        assert "unrecognized arguments: --fast" in capsys.readouterr().err
        assert not out.exists()
        assert run(argv) == 0
        summary = json.loads((out / "fig2_summary.json").read_text())
        assert "method" not in summary
        assert summary["total_samples"] == 3336

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["figure", "fig1", "--trunc", "120", "--samples", "1000", "--seed", "3"]
        assert run(argv + ["--out-dir", str(a)]) == 0
        assert run(argv + ["--out-dir", str(b)]) == 0
        for name in ("fig1_samples.csv", "fig1_limit.npy", "fig1_hist_re.csv",
                     "fig1_hist_im.csv", "fig1_summary.json"):
            assert file_hash(a / name) == file_hash(b / name), name

    def test_traced_peak_is_bounded_and_the_weight_untouched(self, tmp_path, monkeypatch):
        # fig3 at 200k limit samples: one sample array, with its inverse DFT, the CSV rows
        # and the KS points in blocks.  Whole-run copies (the joined CSV text, a concatenated
        # sample array, a merged KS grid) peaked at 33 MB here, and a whole-array DFT with
        # 2^16-point KS blocks at 8.2 MB.
        made = []

        def recorded(*args):
            w = weights.interval_indicator(*args)
            made.append((w, w.ks.copy(), w.cs.copy()))
            return w

        monkeypatch.setattr(cli, "interval_indicator", recorded)
        tracemalloc.start()
        try:
            assert run(["figure", "fig3", "--trunc", "50", "--samples", "200000",
                        "--out-dir", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20, peak
        (w, ks, cs), = made
        series = weights.as_fourier_series(w)
        assert series.ks is w.ks and series.cs is w.cs
        assert w.ks.tobytes() == ks.tobytes() and w.cs.tobytes() == cs.tobytes()

    @pytest.mark.parametrize("variant", ["G_plus", "G_minus"])
    def test_limit_lines_match_row_writer(self, tmp_path, monkeypatch, variant):
        # every bit of every sample survives, the sign of -0.0 and the least subnormal too
        which = {"G_plus": "fig1", "G_minus": "fig3"}[variant]
        parts = [1e-05, 1e16, -0.0, 5e-324, 1.0, -1.0, 0.1, -2.5e-300, 123456.789]
        limit = np.array(parts) + 1j * np.array(parts[::-1])
        monkeypatch.setattr(cli, "sample_limit_law", lambda *args: limit)
        assert run(["figure", which, "--trunc", "8", "--samples", "9",
                    "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / f"{which}_summary.json").read_text())
        assert summary["variant"] == variant
        saved = np.load(tmp_path / f"{which}_limit.npy")
        assert saved.dtype == np.complex128
        assert np.array_equal(saved.view(np.uint64), limit.view(np.uint64))
        assert saved.real.tolist() == parts and saved.imag.tolist() == parts[::-1]

    @pytest.mark.parametrize("n_samples", [100, 5000])
    def test_text_rows_do_not_grow_with_the_limit_samples(self, tmp_path, monkeypatch, n_samples):
        # the units' values and the two histograms are text; the limit samples are not
        rows = []
        real = cli._write_csv

        def counted(stream, meta, header, columns):
            rows.append(len(columns[0]))
            real(stream, meta, header, columns)

        monkeypatch.setattr(cli, "_write_csv", counted)
        assert run(["figure", "fig2", "--trunc", "20", "--samples", str(n_samples),
                    "--bins", "7", "--out-dir", str(tmp_path)]) == 0
        assert sum(rows) == totients(5013)[-1] + 2 * 7
        assert np.load(tmp_path / "fig2_limit.npy").shape == (n_samples,)


class TestMomentsCommand:
    # |G| = 10 everywhere: 10^400 is no float, and inf - inf made the gap nan; the
    # exact orders 2 and 4 of a coefficient 1e200 overflowed with a RuntimeWarning too
    @pytest.mark.parametrize("row,k,mean", [("0,10,0", "400", "inf"), ("0,1e200,0", "2", "inf"),
                                            ("0,1e200,0", "4", "nan")])
    def test_overflowing_order_is_a_usage_error(self, tmp_path, capsys, row, k, mean):
        path = tmp_path / "w.csv"
        path.write_text(row + "\n")
        assert run(["moments", "--q", "5013", "--k-list", k, "--weight", f"fourier:{path}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: the limit moment of order k={k}.0 leaves the float range: {mean}\n"

    def test_underflowing_order_is_a_usage_error(self, capsys):
        # max |g/D| = 0.507 at q = 5013: both moments read 0.0, a gap of 0.0
        assert run(["moments", "--q", "5013", "--k-list", "2000", "--trunc", "50",
                    "--weight", "interval:0,0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: the limit moment of order k=2000.0 leaves the float range: 0.0\n"

    def test_constant_odd_q(self, capsys):
        assert run(["moments", "--q", "15", "--weight", "const", "--k-list", "0,2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "q,k,empirical,limit,gap"
        for line in out[1:]:
            q, k, emp, lim, gap = line.split(",")
            assert float(emp) == pytest.approx(1.0, abs=1e-9)
            assert float(gap) == pytest.approx(0.0, abs=1e-9)

    def test_range_to_file(self, tmp_path):
        path = tmp_path / "m.csv"
        assert run(["moments", "--q-range", "13..17", "--k-list", "2",
                    "--out", str(path)]) == 0
        rows = [l for l in path.read_text().splitlines()
                if not l.startswith("#") and not l.startswith("q,")]
        assert len(rows) == 5

    def test_requires_exactly_one_q(self):
        assert run(["moments"]) == 2
        assert run(["moments", "--q", "5", "--q-range", "3..9"]) == 2

    def test_moduli_below_3(self, tmp_path, capsys):
        for q in ("1", "2"):
            assert run(["moments", "--q", q]) == 2
            assert capsys.readouterr() == ("", f"error: modulus must be >= 3, got {q}\n")
        path = tmp_path / "m.csv"
        assert run(["moments", "--q-range", "1..4", "--k-list", "2", "--out", str(path)]) == 0
        rows = [l for l in path.read_text().splitlines() if l[0].isdigit()]
        assert [int(r.split(",")[0]) for r in rows] == [3, 4]

    def test_fast_interval_weight(self, tmp_path, capsys):
        # the numerators have one route, the numerator grid, and no option selects it
        path = tmp_path / "m.json"
        argv = ["moments", "--q", "101", "--weight", "interval:0,0.3", "--trunc", "200",
                "--format", "json", "--out", str(path)]
        assert run(argv + ["--fast"]) == 2
        assert "unrecognized arguments: --fast" in capsys.readouterr().err
        assert not path.exists()
        assert run(argv) == 0
        table = json.loads(path.read_text())
        assert "method" not in table and len(table["rows"]) == 2

    @staticmethod
    def count_grids(monkeypatch):
        calls = []
        real = distlab.quadratic_grid

        def counted(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(distlab, "quadratic_grid", counted)
        return calls

    def test_one_limit_grid_per_variant_and_one_numerator_grid_per_modulus(self, monkeypatch, capsys):
        calls = self.count_grids(monkeypatch)
        assert run(["moments", "--q-range", "13..18", "--k-list", "0,2,4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 6 * 3
        # k = 0, 2, 4 are exact from the coefficients: only the numerators of each q on its grid
        assert calls == list(range(13, 19))
        calls.clear()
        assert run(["moments", "--q-range", "13..18", "--k-list", "0,1,2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 6 * 3
        # k = 1 takes the limit grid, once for each of G_full (13), G_minus (14) and G_plus (16),
        # right before the numerator grid of the first modulus of its variant
        assert calls == [65537, 13, 65537, 14, 15, 65537, 16, 17, 18]

    def test_one_modulus_case_per_modulus(self, monkeypatch, capsys):
        cases = []
        real = distlab.modulus_case
        monkeypatch.setattr(distlab, "modulus_case", lambda q, *args: cases.append(q) or real(q, *args))
        assert run(["moments", "--q-range", "1..6", "--k-list", "0,2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4 * 2
        assert cases == [3, 4, 5, 6]

    def test_moduli_below_3_build_no_grid(self, monkeypatch, capsys):
        calls = self.count_grids(monkeypatch)
        assert run(["moments", "--q-range", "1..4", "--k-list", "1,2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 2
        assert calls == [65537, 3, 65537, 4]

    def test_limits_once_per_variant_and_rows_as_for_one_modulus(self, monkeypatch, capsys):
        variants = []
        real = distlab._limit_moments
        monkeypatch.setattr(distlab, "_limit_moments", lambda v, *args: variants.append(v) or real(v, *args))
        argv = ["--weight", "interval:0,0.3", "--trunc", "600", "--k-list", "0,2,4"]
        assert run(["moments", "--q-range", "5010..5015", *argv]) == 0
        sweep = capsys.readouterr().out.splitlines()
        assert sorted(variants) == ["G_full", "G_minus", "G_plus"]
        assert run(["moments", "--q", "5013", *argv]) == 0
        single = capsys.readouterr().out.splitlines()
        assert [line for line in sweep if line.startswith("5013,")] == single[1:]
        assert len(single) == 4

    @pytest.mark.parametrize("k_list", ["2,-1", "nan", "inf", "2,nan,4", "-inf"])
    def test_bad_orders_rejected_before_any_work(self, tmp_path, monkeypatch, capsys, k_list):
        calls = self.count_grids(monkeypatch)
        path = tmp_path / "m.csv"
        assert run(["moments", "--q", "15", f"--k-list={k_list}", "--out", str(path)]) == 2
        assert calls == [] and not path.exists()
        assert "orders must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("k_list", ["nan", "-1"])
    def test_bad_orders_rejected_with_no_modulus_above_2(self, capsys, k_list):
        # a range with no modulus >= 3 still checks the orders
        assert run(["moments", "--q-range", "1..2", f"--k-list={k_list}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "moment orders must be finite and >= 0" in err

    def test_bad_weight_spec(self):
        assert run(["moments", "--q", "15", "--weight", "nope"]) == 2
        assert run(["moments", "--q", "15", "--weight", "interval:0.9,0.1"]) == 2


class TestExpsumCommand:
    def test_kloosterman_row(self, capsys):
        assert run(["expsum", "--kind", "kloosterman", "--m", "1", "--n", "1",
                    "--q", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "q,m,n,re,im,abs,weil_bound,ratio"
        cols = out[1].split(",")
        assert float(cols[5]) == pytest.approx(0.3819660112501051, abs=1e-9)
        value, bound = expsum_report("kloosterman", 1, 1, 5)
        assert [float(c) for c in cols[5:]] == [abs(value), bound, abs(value) / bound]

    def test_argument_beyond_int64(self, capsys):
        assert run(["expsum", "--kind", "kloosterman", "--m", "10000000000000000000",
                    "--n", "1", "--q", "7"]) == 0
        cols = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(cols[3]) == pytest.approx(-1.6038754716096761, abs=1e-9)

    def test_requires_exactly_one_q(self):
        argv = ["expsum", "--kind", "kloosterman", "--m", "1", "--n", "1"]
        assert run(argv) == 2
        assert run(argv + ["--q", "5", "--sweep-q", "3..9"]) == 2

    def test_salie_even_modulus_exit_2(self, capsys):
        assert run(["expsum", "--kind", "salie", "--m", "0", "--n", "0", "--q", "4"]) == 2
        assert "odd" in capsys.readouterr().err

    def test_sweep_skips_inapplicable(self, tmp_path):
        path = tmp_path / "s.csv"
        assert run(["expsum", "--kind", "twisted", "--m", "1", "--n", "1",
                    "--sweep-q", "4..20", "--out", str(path)]) == 0
        rows = [l for l in path.read_text().splitlines()
                if not l.startswith("#") and not l.startswith("q,")]
        assert [int(r.split(",")[0]) for r in rows] == [4, 8, 12, 16, 20]


class TestEquidistCommand:
    def test_prime_101(self, capsys):
        assert run(["equidist", "--q", "101", "--t", "all", "--m", "1", "--n", "1"]) == 0
        out, err = capsys.readouterr()
        assert not any(l.startswith("max") for l in out.splitlines())
        max_line, = err.splitlines()
        assert max_line.startswith("max |statistic| = ")
        assert float(max_line.split("=")[1]) <= 2 * math.sqrt(101) / 100

    def test_json_stdout_parses(self, capsys):
        assert run(["equidist", "--q", "11", "--t", "random:2", "--m", "1", "--n", "1",
                    "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["command"] == "equidist" and len(obj["rows"]) == 2

    def test_random_t_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["equidist", "--q", "997", "--t", "random:20", "--m", "1", "--n", "2",
                "--seed", "4"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_t(self):
        assert run(["equidist", "--q", "11", "--t", "sometimes", "--m", "1", "--n", "0"]) == 2

    @pytest.mark.parametrize("t", ["random:3", "all", "5"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, t):
        path = tmp_path / "e.csv"
        assert run(["equidist", "--q", "997", "--t", t, "--m", "1", "--n", "1",
                    "--seed", "-3", "--out", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --seed must be >= 0, got -3\n"
        assert not path.exists()

    def test_random_t_are_sorted_distinct_units(self, tmp_path):
        path = tmp_path / "e.csv"
        assert run(["equidist", "--q", "1000", "--t", "random:30", "--m", "1", "--n", "1",
                    "--seed", "8", "--out", str(path)]) == 0
        ts = [int(r[1]) for r in self.rows(path)]
        assert len(ts) == 30 and ts == sorted(set(ts))
        assert set(ts) <= set(arith.units(1000).tolist())

    @pytest.mark.parametrize("t", ["random:x", "random:-3", "random:0", "random:", "random:1.5"])
    def test_bad_random_count_is_a_usage_error(self, capsys, t):
        assert run(["equidist", "--q", "11", "--t", t, "--m", "1", "--n", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bad --t value {t!r}: N must be a positive integer\n"

    def test_random_count_beyond_units_takes_all(self, tmp_path):
        path = tmp_path / "e.csv"
        assert run(["equidist", "--q", "11", "--t", "random:50", "--m", "1", "--n", "0",
                    "--out", str(path)]) == 0
        assert [int(r[1]) for r in self.rows(path)] == list(range(1, 11))

    @staticmethod
    def rows(path):
        return [l.split(",") for l in path.read_text().splitlines()
                if not l.startswith("#") and not l.startswith("q,")]

    @pytest.mark.parametrize("m,n", [(2**62 + 3, 2**62 - 1), (0, 2**62 + 11)])
    def test_all_t_match_per_t_statistic(self, tmp_path, m, n):
        path = tmp_path / "e.csv"
        for q in list(range(1, 201)) + [4000, 4001]:
            argv = ["equidist", "--q", str(q), "--t", "all", "--m", str(m), "--n", str(n),
                    "--out", str(path)]
            if m % q == n % q == 0:  # q = 1 for both pairs, q = 3, 5 and 15 for the second
                assert run(argv) == 2
                continue
            assert run(argv) == 0
            rows = self.rows(path)
            ts = [int(r[1]) for r in rows]
            assert ts == arith.units(q).tolist()
            stride = 1 if q <= 200 else 40  # the per-t oracle is O(phi(q)) a call
            for t, r in zip(ts[::stride], rows[::stride]):
                want = weyl_statistic(q, t, m, n)
                assert abs(complex(float(r[4]), float(r[5])) - want) <= 1e-12, (q, t)

    def test_single_t_errors(self):
        assert run(["equidist", "--q", "12", "--t", "4", "--m", "1", "--n", "1"]) == 2
        assert run(["equidist", "--q", "12", "--t", "5", "--m", "0", "--n", "0"]) == 2
        assert run(["equidist", "--q", "12", "--t", "5", "--m", "1", "--n", "1"]) == 0


class TestWeightParsing:
    def test_fourier_csv(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("k,re,im\n0,1.0,0.0\n1,0.5,-0.5\n")
        assert run(["moments", "--q", "13", "--weight", f"fourier:{path}",
                    "--k-list", "0"]) == 0

    def test_index_beyond_int64_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text(f"k,re,im\n{10**30},0.5,0\n")
        assert run(["moments", "--q", "13", "--weight", f"fourier:{path}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: frequencies must be below 2**63 in size, got {10**30}\n"

    @staticmethod
    def refused(argv, capsys):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: cannot read coefficient file ")

    def test_missing_fourier_file(self, tmp_path, capsys):
        self.refused(["moments", "--q", "13", "--weight", f"fourier:{tmp_path / 'missing.csv'}"],
                     capsys)

    def test_fourier_path_to_a_directory(self, tmp_path, capsys):
        # was an IsADirectoryError traceback
        self.refused(["moments", "--q", "13", "--weight", f"fourier:{tmp_path}"], capsys)

    def test_fourier_file_not_utf8(self, tmp_path, capsys):
        # was a UnicodeDecodeError traceback: 0xe9 is e-acute in Latin-1
        path = tmp_path / "w.csv"
        path.write_bytes(b"# poids \xe9\n0,1,0\n")
        self.refused(["moments", "--q", "13", "--weight", f"fourier:{path}"], capsys)


class TestOutputFormats:
    def test_json_format(self, tmp_path):
        path = tmp_path / "m.json"
        assert run(["moments", "--q", "15", "--k-list", "2", "--format", "json",
                    "--out", str(path)]) == 0
        obj = json.loads(path.read_text())
        assert obj["rows"][0]["empirical"] == pytest.approx(1.0)
        assert obj["command"] == "moments"

    def test_csv_metadata_header(self, tmp_path):
        path = tmp_path / "e.csv"
        assert run(["expsum", "--kind", "kloosterman", "--m", "1", "--n", "1",
                    "--q", "5", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# command=expsum")
        assert any(l.startswith("# kind=kloosterman") for l in lines)

    @staticmethod
    def table(capsys):
        return capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("argv", [
        ["moments", "--q-range", "13..17", "--k-list", "0,2", "--weight", "interval:0,0.3"],
        ["expsum", "--kind", "kloosterman", "--m", str(2**70), "--n", "3", "--sweep-q", "5..30"],
        ["equidist", "--q", "101", "--t", "random:7", "--m", "1", "--n", "2"],
    ], ids=["moments", "expsum", "equidist"])
    def test_stdout_and_out_carry_the_same_rows(self, tmp_path, capsys, argv):
        assert run(argv) == 0
        printed = self.table(capsys)
        csv_path, json_path = tmp_path / "t.csv", tmp_path / "t.json"
        assert run(argv + ["--out", str(csv_path)]) == 0
        assert self.table(capsys) == []
        lines = csv_path.read_text().splitlines()
        meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
        assert meta["command"] == argv[0]
        # the file is the printed table after one comment line per metadata entry
        assert lines[len(meta):] == printed and len(printed) > 1
        assert run(argv + ["--format", "json"]) == 0
        printed_json = "\n".join(self.table(capsys)) + "\n"
        assert run(argv + ["--format", "json", "--out", str(json_path)]) == 0
        assert json_path.read_text() == printed_json
        obj = json.loads(printed_json)
        header = printed[0].split(",")
        assert [reference_line(r[h] for h in header) for r in obj.pop("rows")] == printed[1:]
        assert {k: str(v) for k, v in obj.items()} == meta


class TestCsvWriter:
    """_write_csv at the edges of its row blocks, and never one string for a whole table."""

    HEADER = ["p", "sigma", "re", "im"]
    PARTS = [1e-05, 1e16, -0.0, 5e-324, 1.0, -1.0, 0.1, -2.5e-300, 123456.789]

    @classmethod
    def columns(cls, n):
        """An int64 array, a list of str labels and two float arrays of special values."""
        floats = np.resize(np.array(cls.PARTS), n)
        labels = [("1", "-1", "i", "-i", "")[i % 5] for i in range(n)]
        return [np.arange(n, dtype=np.int64) * 7919 - 2**40, labels, floats, -floats[::-1]]

    @staticmethod
    def reference_text(meta, header, columns):
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        lines = [f"# {k}={v}" for k, v in meta.items()] + [",".join(header)]
        return "".join(line + "\n" for line in lines + list(map(reference_line, rows)))

    # (blocks, extra): a table of blocks * _CSV_BLOCK + extra rows
    @pytest.mark.parametrize("size", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
    def test_bytes_at_block_edges(self, size):
        columns = self.columns(size[0] * cli._CSV_BLOCK + size[1])
        meta = {"command": "test", "q": 5012}
        stream = io.StringIO()
        cli._write_csv(stream, meta, self.HEADER, columns)
        assert stream.getvalue() == self.reference_text(meta, self.HEADER, columns)

    def test_longest_write_is_one_block(self):
        class Recorder(io.StringIO):
            longest = 0

            def write(self, text):
                self.longest = max(self.longest, len(text))
                return super().write(text)

        block = cli._CSV_BLOCK
        stream = Recorder()
        cli._write_csv(stream, {"command": "test"}, self.HEADER, self.columns(10 * block))
        text = stream.getvalue()
        rows = text.splitlines(keepends=True)[2:]
        assert len(rows) == 10 * block
        longest_block = max(len("".join(rows[lo:lo + block])) for lo in range(0, len(rows), block))
        assert stream.longest <= longest_block < len(text) / 5

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_moments_csv_bytes(self, tmp_path, capsys, to_file):
        argv = ["moments", "--q-range", "13..17", "--k-list", "0,2", "--weight", "interval:0,0.3"]
        json_path, csv_path = tmp_path / "m.json", tmp_path / "m.csv"
        assert run(argv + ["--format", "json", "--out", str(json_path)]) == 0
        obj = json.loads(json_path.read_text())
        header = ["q", "k", "empirical", "limit", "gap"]
        columns = list(zip(*([row[h] for h in header] for row in obj.pop("rows"))))
        assert run(argv + ["--out", str(csv_path)] * to_file) == 0
        written = csv_path.read_text() if to_file else capsys.readouterr().out
        # the JSON keys are sorted, so the metadata lines are compared as a map
        meta_text, head, body = written.partition(",".join(header) + "\n")
        assert head + body == self.reference_text({}, header, columns)
        meta = dict(line[2:].split("=", 1) for line in meta_text.splitlines())
        assert meta_text == "".join(f"# {k}={v}\n" for k, v in meta.items())
        assert meta == ({k: str(v) for k, v in obj.items()} if to_file else {})


class TestExitCodes:
    """2 for a DomainError, the usage-error root; any other exception propagates as a bug."""

    FOURIER_FILES = {"repeated_k.csv": "1,0.5,0\n1,0.25,0\n", "nan.csv": "0,1,0\n1,nan,0\n",
                     "inf.csv": "1,0.5,inf\n"}

    # each is refused by a library check that only its DomainError type maps to exit 2
    @pytest.mark.parametrize("argv", [
        ["equidist", "--q", "0", "--m", "1", "--n", "1"],
        ["expsum", "--kind", "kloosterman", "--m", "1", "--n", "1", "--q", "0"],
        # refused by arith.residues before any O(q) array is allocated
        ["moments", "--q", str(arith.INT64_ROOT + 2)],
        ["equidist", "--q", "12", "--t", "5", "--m", "0", "--n", "0"],
        ["moments", "--q", "7", "--domain", "interval:0.5,0.2"],
        ["moments", "--q", "7", "--domain", "interval:x"],
        # fourier:NAME reads the file NAME of FOURIER_FILES
        ["moments", "--q", "13", "--k-list", "2", "--weight", "fourier:repeated_k.csv"],
        ["moments", "--q", "13", "--k-list", "2", "--weight", "fourier:nan.csv"],
        ["moments", "--q", "13", "--k-list", "2", "--weight", "fourier:inf.csv"],
    ])
    def test_domain_errors_exit_2_with_one_line(self, capsys, tmp_path, argv):
        for name, text in self.FOURIER_FILES.items():
            (tmp_path / name).write_text(text)
        argv = [a.replace("fourier:", f"fourier:{tmp_path}{os.sep}") for a in argv]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["moments", "--q", "7", "--out", "MISSING/x.csv"],
        ["equidist", "--q", "7", "--m", "1", "--n", "1", "--out", "MISSING/y.csv"],
        ["expsum", "--kind", "kloosterman", "--m", "1", "--n", "1", "--q", "7", "--out", "FILE/x.csv"],
        ["moments", "--q", "7", "--out", "DIR"],
        ["figure", "fig1", "--out-dir", "FILE"],
        ["figure", "fig1", "--out-dir", "FILE/sub"],
    ], ids=["moments", "equidist", "expsum", "out-is-a-dir", "figure", "figure-under-file"])
    def test_unwritable_output_path_refused_before_any_work(self, monkeypatch, capsys, tmp_path,
                                                            argv):
        (tmp_path / "FILE").write_text("kept\n")
        (tmp_path / "DIR").mkdir()
        for name in ("cmd_moments", "cmd_equidist", "cmd_expsum", "cmd_figure"):
            monkeypatch.setattr(cli, name, lambda args: pytest.fail("the command ran"))
        argv = [str(tmp_path / a) if a.startswith(("MISSING", "FILE", "DIR")) else a for a in argv]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert (tmp_path / "FILE").read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["DIR", "FILE"]

    @staticmethod
    def raise_in_suite(monkeypatch, exc):
        def raising(name):
            raise exc

        monkeypatch.setattr(cli, "run_suite", raising)

    @pytest.mark.parametrize("cls", [
        v for v in vars(errors).values() if isinstance(v, type) and v.__module__ == errors.__name__
    ], ids=lambda cls: cls.__name__)
    def test_every_error_type(self, monkeypatch, capsys, cls):
        self.raise_in_suite(monkeypatch, cls("boom"))
        if cls is errors.IndicatorKind:
            assert not issubclass(cls, (errors.DomainError, ValueError))
            with pytest.raises(errors.IndicatorKind):
                run(["verify", "reduction"])
            return
        assert issubclass(cls, errors.DomainError) and issubclass(cls, ValueError)
        assert run(["verify", "reduction"]) == 2
        assert capsys.readouterr().err == "error: boom\n"

    def test_bare_value_error_propagates(self, monkeypatch):
        self.raise_in_suite(monkeypatch, ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            run(["verify", "reduction"])

    @staticmethod
    def child(*argv, preexec_fn=None):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        env.update(dict.fromkeys(["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"], "1"))
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                              timeout=120, preexec_fn=preexec_fn)

    @pytest.mark.parametrize("argv", [
        ["expsum", "--kind", "kloosterman", "--m", "1", "--n", "1", "--q"],
        ["equidist", "--m", "1", "--n", "1", "--q"],
        ["moments", "--q"],
    ], ids=["expsum", "equidist", "moments"])
    def test_modulus_beyond_int64_root_refused_before_any_array(self, argv):
        # the units of this q would take 22.6 GiB of int64; the address-space
        # limit, set in the child alone, turns an attempt into a MemoryError
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        done = self.child("-m", "gausslab.cli", *argv, str(arith.INT64_ROOT + 2),
                          preexec_fn=limit_memory)
        assert done.returncode == 2 and "Traceback" not in done.stderr, done.stderr
        assert done.stderr.startswith("error: ") and str(arith.INT64_ROOT) in done.stderr

    @pytest.fixture(scope="class")
    def lazy_imports(self, tmp_path_factory):
        """(step, loaded) pairs from one child that runs every command and verify suite:
        which of numpy.random and numpy.ma are in sys.modules after each step."""
        # numpy loads both lazily: numpy.random with 11 extension modules and hashlib,
        # numpy.ma (about 0.5 MB and 15-30 ms per process) from np.unique.  Every seeded
        # draw goes through random.Random, so no command may load either
        out_dir = tmp_path_factory.mktemp("figures")
        commands = [["figure", which, "--trunc", "50", "--samples", "2000",
                     "--out-dir", str(out_dir)] for which in sorted(cli.FIGURES)]
        commands += [
            # k = 1 takes limit_moment's grid path
            ["moments", "--q-range", "13..15", "--k-list", "0,1,2,4",
             "--weight", "interval:0,0.3", "--trunc", "50"],
            ["expsum", "--kind", "salie", "--m", "1", "--n", "1", "--sweep-q", "3..30"],
            ["equidist", "--q", "101", "--t", "random:5", "--m", "1", "--n", "1"],
        ]
        done = self.child("-c", "import io, json, sys\n"
                          "from contextlib import redirect_stdout\n"
                          "from gausslab import cli, verify\n"
                          "log = []\n"
                          "def note(step):\n"
                          "    log.append([step, sorted({'numpy.random', 'numpy.ma'} & set(sys.modules))])\n"
                          "with redirect_stdout(io.StringIO()):\n"
                          f"    for argv in {commands!r}:\n"
                          "        assert cli.main(argv) == 0, argv\n"
                          "        note(' '.join(argv[:2]))\n"
                          f"    for name, sizes in {TestSuiteCounts.SIZES!r}.items():\n"
                          "        assert verify.run_suite(name, **sizes).passed, name\n"
                          "        note('verify ' + name)\n"
                          "print(json.dumps(log))\n")
        assert done.returncode == 0, done.stderr
        assert {f"{which}_limit.npy" for which in cli.FIGURES} <= set(os.listdir(out_dir))
        log = json.loads(done.stdout)
        assert len(log) == len(commands) + len(TestSuiteCounts.SIZES)
        return log

    def test_no_command_imports_numpy_random(self, lazy_imports):
        assert [(step, mods) for step, mods in lazy_imports if "numpy.random" in mods] == []

    def test_figure_does_not_import_numpy_ma(self, lazy_imports):
        figures = [(step, mods) for step, mods in lazy_imports if step.startswith("figure ")]
        assert len(figures) == len(cli.FIGURES)
        assert [(step, mods) for step, mods in figures if "numpy.ma" in mods] == []

    def test_no_command_imports_numpy_ma(self, lazy_imports):
        assert [(step, mods) for step, mods in lazy_imports if "numpy.ma" in mods] == []

    def test_child_process_exit_codes(self):
        done = self.child("-m", "gausslab.cli", "equidist", "--q", "0", "--m", "1", "--n", "1")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
        done = self.child("-c", "import sys\n"
                          "from gausslab import cli\n"
                          "def boom(name):\n"
                          "    raise ValueError('boom')\n"
                          "cli.run_suite = boom\n"
                          "sys.exit(cli.main(['verify', 'reduction']))\n")
        assert done.returncode == 1
        assert "Traceback" in done.stderr and "ValueError: boom" in done.stderr


class TestReadme:
    README = SRC.parent / "README.md"

    def command_lines(self):
        """The `gausslab ...` lines of the README's sh blocks, continuations joined."""
        blocks = re.findall(r"^```sh\n(.*?)^```", self.README.read_text(), re.M | re.S)
        lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
        return [shlex.split(l, comments=True) for l in lines if l.startswith("gausslab ")]

    def test_example_command_lines_parse(self):
        parsed = [cli.build_parser().parse_args(argv[1:]) for argv in self.command_lines()]
        assert {args.command for args in parsed} == {"verify", "figure", "moments", "expsum",
                                                     "equidist"}

    def test_options_are_exactly_the_parsers(self):
        # every --option the README names outside Installation is a subcommand option, and back
        text = self.README.read_text()
        start = text.index("## Installation")
        text = text[:start] + text[text.index("\n## ", start + 1):]
        named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {s for p in subparsers.choices.values() for a in p._actions
                   for s in a.option_strings if s.startswith("--")} - {"--help"}
        assert named == options

    def test_package_exports_the_quickstart_imports(self):
        # the names `from gausslab import (...)` of the library quickstart are the package's API
        section = self.README.read_text().split("\n## Library quickstart\n", 1)[1]
        block = re.search(r"^from gausslab import \((.*?)\)", section, re.M | re.S).group(1)
        imported = {name.strip() for name in block.split(",") if name.strip()}
        exported = {name for name, value in vars(gausslab).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType)}
        assert len(imported) == 12 and exported == imported


class TestOutputDigest:
    TOOL = SRC.parent / "tools" / "output_digest.py"

    def load(self):
        spec = importlib.util.spec_from_file_location("output_digest", self.TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_command_lines_parse(self):
        # every command line of the digest set is one the CLI accepts, without running it
        commands = self.load().COMMANDS
        parsed = [cli.build_parser().parse_args(argv) for _, argv in commands]
        assert len({name for name, _ in commands}) == len(commands) == 19
        assert {args.command for args in parsed} == {"verify", "figure", "moments", "expsum",
                                                     "equidist"}
        assert {args.suite for args in parsed if args.command == "verify"} == set(verify.SUITES)
        assert sorted(args.which for args in parsed if args.command == "figure") == sorted(
            cli.FIGURES)
