"""Command-line driver.

Subcommands:
  verify    run a named identity suite; exit 1 on any violation
  figure    reproduce one of the three reference experiments (CSV + JSON)
  moments   empirical vs limit moments over a range of moduli
  expsum    Kloosterman / twisted / Salie sums with Weil bounds
  equidist  Weyl equidistribution statistic over t

Outputs are deterministic byte-for-byte for a fixed configuration: all
metadata is the config echo itself (no timestamps), and row order is
canonical.  Every CSV table is written by _csv_text and every JSON text
by _json_text; a CSV cell is str of a Python scalar, so a float is its
shortest round-trip repr, as in JSON.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import arith
from .errors import BadInterval, BadModulus, EmptyInput, EvenModulus, IndicatorKind, NotCoprime
from .expsums import expsum_report, weyl_statistics
from .distlab import (
    DomainWindow,
    empirical_batch,
    empirical_moment,
    histogram,
    ks_distance,
    sample_limit_law,
)
from .gauss_sums import G_MINUS, G_PLUS, modulus_case
from .verify import SUITES, run_suite
from .weights import (
    WeightFunction,
    as_fourier_series,
    constant_weight,
    fourier_weight,
    interval_indicator,
)

USAGE_ERROR = 2

FIGURES = {
    # which: (q, series truncation, limit samples, center); the variant is modulus_case(q)'s
    "fig1": (5012, 4000, 300_000, "tq"),
    "fig2": (5013, 4000, 300_000, "tq"),
    "fig3": (5014, 5000, 500_000, "none"),
}


class CommandError(Exception):
    """Domain-level usage error; maps to exit code 2."""


# CSV label of a sigma-class value (modulus_case's classes; None for kind "none")
SIGMA_LABELS = {1: "1", -1: "-1", 1j: "i", -1j: "-i", None: ""}


def _csv_text(meta: dict, header: list[str], columns) -> str:
    """CSV text: a `# key=value` line per metadata entry, the header, then one line per row.

    columns holds one sequence per header field, of Python scalars (from
    .tolist()); a cell is written as str(cell), which for a Python float is
    its shortest round-trip repr.  str of a numpy scalar is not guaranteed
    to match, so no column may hold one.
    """
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*(map(str, column) for column in columns))))
    return "\n".join(lines) + "\n"


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_table(args, meta: dict, header: list[str], rows: list[tuple]) -> None:
    """Write rows as CSV or JSON to --out, or print them to stdout (CSV without the metadata)."""
    if args.format == "json":
        text = _json_text({**meta, "rows": [dict(zip(header, row)) for row in rows]})
    else:
        text = _csv_text(meta if args.out else {}, header, list(zip(*rows)))
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")


def _parse_weight(spec: str, cutoff: int) -> WeightFunction:
    if spec == "const":
        return constant_weight()
    if spec.startswith("interval:"):
        try:
            a_str, b_str = spec[len("interval:"):].split(",")
            return interval_indicator(float(a_str), float(b_str), cutoff)
        except (ValueError, BadInterval) as exc:
            raise CommandError(f"bad interval weight {spec!r}: {exc}") from exc
    if spec.startswith("fourier:"):
        path = Path(spec[len("fourier:"):])
        if not path.exists():
            raise CommandError(f"coefficient file not found: {path}")
        coeffs: dict[int, complex] = {}
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("k,"):
                continue
            try:
                k_str, re_str, im_str = line.split(",")
                coeffs[int(k_str)] = complex(float(re_str), float(im_str))
            except ValueError as exc:
                raise CommandError(f"bad coefficient row {line!r} in {path}") from exc
        if not coeffs:
            raise CommandError(f"no coefficients in {path}")
        return fourier_weight(coeffs)
    raise CommandError(f"unknown weight spec {spec!r} (const | interval:a,b | fourier:PATH)")


def _parse_domain(spec: str) -> DomainWindow:
    if spec == "full":
        return DomainWindow.full()
    if spec.startswith("interval:"):
        try:
            a_str, b_str = spec[len("interval:"):].split(",")
            return DomainWindow.interval(float(a_str), float(b_str))
        except ValueError as exc:
            raise CommandError(f"bad domain spec {spec!r}: {exc}") from exc
    raise CommandError(f"unknown domain spec {spec!r} (full | interval:a,b)")


def _parse_range(spec: str) -> range:
    """The moduli A..B, inclusive."""
    try:
        a_str, b_str = spec.split("..")
        a, b = int(a_str), int(b_str)
    except ValueError as exc:
        raise CommandError(f"bad range {spec!r}, expected A..B") from exc
    if a < 1 or b < a:
        raise CommandError(f"bad range {spec!r}")
    return range(a, b + 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    result = run_suite(args.suite)
    print(result.summary())
    print(f"{result.name}: worst gap/allowed {result.worst:.6g}")
    if result.failures:
        print("violations:")
        for line in result.failures[:50]:
            print(f"  {line}")
        if len(result.failures) > 50:
            print(f"  ... and {len(result.failures) - 50} more")
        return 1
    return 0


def cmd_figure(args) -> int:
    which = args.which
    q, trunc_default, samples_default, center_default = FIGURES[which]
    trunc = trunc_default if args.trunc is None else args.trunc
    n_samples = samples_default if args.samples is None else args.samples
    bins = args.bins
    if trunc < 1 or n_samples < 1 or bins < 1:
        raise CommandError(f"--trunc, --samples and --bins must be positive, "
                           f"got {trunc}, {n_samples} and {bins}")
    variant = modulus_case(q).variant
    # the even-index series at truncation K reads coefficients up to 2K
    coeff_cutoff = 2 * trunc if variant == G_PLUS else trunc
    center = args.center or center_default
    b = 1.0 / math.sqrt(7.0)

    weight = interval_indicator(0.0, b, coeff_cutoff)
    series = as_fourier_series(weight)
    # --fast evaluates the truncated series; meta records trunc and method
    batch = empirical_batch(q, series if args.fast else weight, fast=args.fast)
    values = batch.values
    t_over_q = batch.grid_mass / q

    limit = sample_limit_law(variant, series, trunc, n_samples, args.seed)
    shift = {"tq": t_over_q, "phihat0": weight.mean.real, "none": 0.0}[center]

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {
        "command": f"figure {which}",
        "q": q,
        "weight": f"interval:0,{b!r}",
        "variant": variant,
        "trunc": trunc,
        "coefficient_cutoff": coeff_cutoff,
        "samples": n_samples,
        "seed": args.seed,
        "bins": bins,
        "center": center,
        "method": "fast" if args.fast else "direct",
    }

    def write(name: str, header: list[str], columns: list[list]) -> None:
        (out_dir / f"{which}_{name}").write_text(_csv_text(meta, header, columns))

    labels = [SIGMA_LABELS[c] for c in batch.case.classes.tolist()]
    write("samples.csv", ["p", "sigma", "re", "im"],
          [batch.case.units.tolist(), labels, values.real.tolist(), values.imag.tolist()])
    for part, vals in (("re", values.real - shift), ("im", values.imag)):
        h = histogram(vals, bins=bins)
        write(f"hist_{part}.csv", ["bin_lo", "bin_hi", "count", "density"],
              [h.bin_edges[:-1].tolist(), h.bin_edges[1:].tolist(), h.counts.tolist(),
               h.density.tolist()])

    # G_minus: real and imaginary parts share one law; one component suffices
    if variant == G_MINUS:
        limit_re = limit.imag
        write("limit.csv", ["im"], [limit.imag.tolist()])
    else:
        limit_re = limit.real
        write("limit.csv", ["re", "im"], [limit.real.tolist(), limit.imag.tolist()])
    ks_re = ks_distance(values.real, limit_re)
    ks_im = ks_distance(values.imag, limit.imag)

    summary = {
        **meta,
        "normalization": batch.case.label,
        "total_samples": len(values),
        "phi_q": batch.modulus.phi,
        "grid_mass": batch.grid_mass,
        "t_over_q": t_over_q,
        "mean_bin_count": len(values) / bins,
        "ks_re": ks_re,
        "ks_im": ks_im,
    }
    (out_dir / f"{which}_summary.json").write_text(_json_text(summary))
    print(f"{which}: {len(values)} samples, KS re={ks_re:.4f} im={ks_im:.4f} -> {out_dir}")
    return 0


def cmd_moments(args) -> int:
    if (args.q is None) == (args.q_range is None):
        raise CommandError("need exactly one of --q or --q-range")
    qs = [args.q] if args.q is not None else _parse_range(args.q_range)
    weight = _parse_weight(args.weight, args.trunc)
    if args.fast:
        weight = as_fourier_series(weight)
    window = _parse_domain(args.domain)
    try:
        k_list = [float(k) for k in args.k_list.split(",")]
    except ValueError as exc:
        raise CommandError(f"bad k list {args.k_list!r}") from exc
    meta = {
        "command": "moments",
        "weight": args.weight,
        "domain": args.domain,
        "trunc": args.trunc,
        "k_list": args.k_list,
        "method": "fast" if args.fast else "direct",
    }
    rows = []
    for q in qs:
        if q < 3:
            continue
        for k in k_list:
            rep = empirical_moment(q, weight, window, k, fast=args.fast)
            rows.append((q, float(k), float(rep.empirical), float(rep.limit), float(rep.relative_gap)))
    _emit_table(args, meta, ["q", "k", "empirical", "limit", "gap"], rows)
    return 0


def cmd_expsum(args) -> int:
    if (args.q is None) == (args.sweep_q is None):
        raise CommandError("need exactly one of --q or --sweep-q")
    sweep = args.q is None
    qs = _parse_range(args.sweep_q) if sweep else [args.q]
    rows = []
    for q in qs:
        try:
            rep = expsum_report(args.kind, args.m, args.n, q)
        except BadModulus:
            if sweep:
                continue  # a sweep skips the moduli the sum kind is not defined for
            raise
        rows.append((q, args.m, args.n, float(rep.value.real), float(rep.value.imag),
                     float(abs(rep.value)), float(rep.weil_bound), float(rep.ratio)))
    meta = {"command": "expsum", "kind": args.kind, "m": args.m, "n": args.n}
    _emit_table(args, meta, ["q", "m", "n", "re", "im", "abs", "weil_bound", "ratio"], rows)
    return 0


def cmd_equidist(args) -> int:
    q = args.q
    if args.t == "all":
        ts = arith.units(q).tolist()
    elif args.t.startswith("random:"):
        count = args.t[len("random:"):]
        if not count.isdecimal() or int(count) < 1:
            raise CommandError(f"bad --t value {args.t!r}: N must be a positive integer")
        pool = arith.units(q)
        rng = np.random.default_rng(args.seed)
        ts = sorted(int(t) for t in rng.choice(pool, min(int(count), len(pool)), replace=False))
    else:
        try:
            ts = [int(args.t)]
        except ValueError as exc:
            raise CommandError(f"bad --t value {args.t!r} (all | random:N | integer)") from exc
    vals = weyl_statistics(q, ts, args.m, args.n)
    rows = [(q, t, args.m, args.n, float(v.real), float(v.imag), float(abs(v)))
            for t, v in zip(ts, vals.tolist())]
    max_abs = max((row[-1] for row in rows), default=0.0)
    meta = {"command": "equidist", "q": q, "m": args.m, "n": args.n, "t": args.t, "seed": args.seed}
    _emit_table(args, meta, ["q", "t", "m", "n", "re", "im", "abs"], rows)
    print(f"max |statistic| = {max_abs!r}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gausslab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named identity suite")
    p.add_argument("suite", choices=SUITES)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("figure", help="reproduce a reference experiment")
    p.add_argument("which", choices=sorted(FIGURES))
    p.add_argument("--out-dir", default="out")
    p.add_argument("--trunc", type=int, default=None, help="series truncation index")
    p.add_argument("--samples", type=int, default=None, help="limit-law sample count")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--center", choices=["tq", "phihat0", "none"], default=None)
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("moments", help="empirical vs limit moments")
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--q-range", default=None, help="A..B inclusive")
    p.add_argument("--weight", default="const")
    p.add_argument("--domain", default="full")
    p.add_argument("--k-list", default="0,2")
    p.add_argument("--trunc", type=int, default=4000)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("expsum", help="exponential sums with Weil bounds")
    p.add_argument("--kind", choices=["kloosterman", "twisted", "salie"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--sweep-q", default=None, help="A..B inclusive")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_expsum)

    p = sub.add_parser("equidist", help="Weyl equidistribution statistic")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", default="all", help="all | random:N | integer")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_equidist)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (CommandError, BadModulus, BadInterval, NotCoprime, EvenModulus,
            IndicatorKind, EmptyInput, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
