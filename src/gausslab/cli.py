"""Command-line driver.

Subcommands:
  verify    run a named identity suite; exit 1 on any violation
  figure    reproduce one of the three reference experiments (CSV + JSON)
  moments   empirical vs limit moments over a range of moduli
  expsum    Kloosterman / twisted / Salie sums with Weil bounds
  equidist  Weyl equidistribution statistic over t

Outputs are deterministic byte-for-byte for a fixed configuration: all
metadata is the config echo itself (no timestamps), and row order is
canonical.  Every CSV table is streamed by _write_csv, _CSV_BLOCK rows
per write, so no table is ever held as one string; every JSON text comes
from _json_text.  A CSV cell is str of a Python scalar, so a float is its
shortest round-trip repr, as in JSON.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error (a DomainError).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import arith, weights
from .errors import BadModulus, DomainError
from .expsums import expsum_report, weyl_statistics
from .distlab import (
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

FIGURES = {
    # which: (q, series truncation, limit samples, center); the variant is modulus_case(q)'s
    "fig1": (5012, 4000, 300_000, "tq"),
    "fig2": (5013, 4000, 300_000, "tq"),
    "fig3": (5014, 5000, 500_000, "none"),
}


class CommandError(DomainError):
    """A command line the subcommand cannot run; maps to exit code 2."""


# CSV label of a sigma-class value (modulus_case's classes; None for kind "none")
SIGMA_LABELS = {1: "1", -1: "-1", 1j: "i", -1j: "-i", None: ""}


# rows per write of _write_csv: bounds the text and Python cells held at once
_CSV_BLOCK = 4096


def _write_csv(stream, meta: dict, header: list[str], columns) -> None:
    """Write a CSV table to stream: a `# key=value` line per metadata entry, the header, the rows.

    columns holds one sequence per header field, all of one length: a
    numpy array, or a list or tuple of Python scalars.  The rows go out in
    blocks of _CSV_BLOCK, each block's slice of an array turned into
    Python scalars by .tolist(); a cell is written as str(cell), which for
    a Python float is its shortest round-trip repr.  str of a numpy scalar
    is not guaranteed to match, so no list may hold one.
    """
    stream.write("".join(f"# {k}={v}\n" for k, v in meta.items()) + ",".join(header) + "\n")
    for lo in range(0, len(columns[0]) if columns else 0, _CSV_BLOCK):
        block = [column[lo:lo + _CSV_BLOCK] for column in columns]
        cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in block]
        stream.write("\n".join(map(",".join, zip(*(map(str, c) for c in cells)))) + "\n")


def _json_text(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit_table(args, meta: dict, header: list[str], rows: list[tuple]) -> None:
    """Write rows as CSV or JSON to --out, or print them to stdout (CSV without the metadata)."""
    def emit(stream) -> None:
        if args.format == "json":
            stream.write(_json_text({**meta, "rows": [dict(zip(header, row)) for row in rows]}))
        else:
            _write_csv(stream, meta if args.out else {}, header, list(zip(*rows)))

    if args.out:
        with open(args.out, "w") as stream:
            emit(stream)
    else:
        emit(sys.stdout)


def _parse_interval(spec: str) -> tuple[float, float]:
    """The pair (a, b) of an `interval:a,b` spec, checked by weights.check_interval."""
    try:
        a, b = map(float, spec[len("interval:"):].split(","))
        weights.check_interval(a, b)
    except ValueError as exc:  # BadInterval too, so the message names the spec
        raise CommandError(f"bad interval {spec!r}: {exc}") from exc
    return a, b


def _parse_weight(spec: str, cutoff: int) -> WeightFunction:
    if spec == "const":
        return constant_weight()
    if spec.startswith("interval:"):
        return interval_indicator(*_parse_interval(spec), cutoff)
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
                k, c = int(k_str), complex(float(re_str), float(im_str))
            except ValueError as exc:
                raise CommandError(f"bad coefficient row {line!r} in {path}") from exc
            if k in coeffs or not np.isfinite(c):
                problem = f"repeats k={k}" if k in coeffs else "is not finite"
                raise CommandError(f"coefficient row {line!r} in {path} {problem}")
            coeffs[k] = c
        if not coeffs:
            raise CommandError(f"no coefficients in {path}")
        return fourier_weight(coeffs)
    raise CommandError(f"unknown weight spec {spec!r} (const | interval:a,b | fourier:PATH)")


def _parse_domain(spec: str) -> tuple[float, float] | None:  # None for full
    if spec == "full":
        return None
    if spec.startswith("interval:"):
        return _parse_interval(spec)
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


def _per_modulus(q: int | None, spec: str | None, compute):
    """(m, compute(m)) for the modulus q, or for each modulus m of the range spec A..B.

    A range skips the moduli that compute is not defined for (BadModulus).
    """
    for m in [q] if spec is None else _parse_range(spec):
        try:
            yield m, compute(m)
        except BadModulus:
            if spec is None:
                raise


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
    # --fast evaluates the truncated series; meta records trunc and method
    batch = empirical_batch(q, as_fourier_series(weight) if args.fast else weight, fast=args.fast)
    values = batch.values
    t_over_q = batch.grid_mass / q

    limit = sample_limit_law(variant, weight, trunc, n_samples, args.seed)
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

    def write(name: str, header: list[str], columns: list) -> None:
        with open(out_dir / f"{which}_{name}", "w") as stream:
            _write_csv(stream, meta, header, columns)

    labels = [SIGMA_LABELS[c] for c in batch.case.classes.tolist()]
    write("samples.csv", ["p", "sigma", "re", "im"],
          [batch.case.units, labels, values.real, values.imag])
    for part, vals in (("re", values.real - shift), ("im", values.imag)):
        h = histogram(vals, bins=bins)
        write(f"hist_{part}.csv", ["bin_lo", "bin_hi", "count", "density"],
              [h.bin_edges[:-1], h.bin_edges[1:], h.counts, h.density])

    # G_minus: real and imaginary parts share one law; one component suffices
    if variant == G_MINUS:
        limit_re = limit.imag
        write("limit.csv", ["im"], [limit.imag])
    else:
        limit_re = limit.real
        write("limit.csv", ["re", "im"], [limit.real, limit.imag])
    ks_re = ks_distance(values.real, limit_re)
    ks_im = ks_distance(values.imag, limit.imag)

    summary = {
        **meta,
        "normalization": batch.case.label,
        "total_samples": len(values),
        "phi_q": arith.analyze_modulus(q).phi,
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
    # a range skips the moduli below 3, which have no normalized law
    reports = _per_modulus(args.q, args.q_range,
                           lambda q: empirical_moment(q, weight, window, k_list, fast=args.fast))
    rows = [(q, r.k, float(r.empirical), float(r.limit), float(r.relative_gap))
            for q, reps in reports for r in reps]
    _emit_table(args, meta, ["q", "k", "empirical", "limit", "gap"], rows)
    return 0


def cmd_expsum(args) -> int:
    reports = _per_modulus(args.q, args.sweep_q, lambda q: expsum_report(args.kind, args.m, args.n, q))
    rows = [(q, args.m, args.n, float(rep.value.real), float(rep.value.imag),
             float(abs(rep.value)), float(rep.weil_bound), float(rep.ratio)) for q, rep in reports]
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
    print(f"max |statistic| = {max_abs!r}", file=sys.stderr)
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
    q_arg = p.add_mutually_exclusive_group(required=True)
    q_arg.add_argument("--q", type=int)
    q_arg.add_argument("--q-range", help="A..B inclusive")
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
    q_arg = p.add_mutually_exclusive_group(required=True)
    q_arg.add_argument("--q", type=int)
    q_arg.add_argument("--sweep-q", help="A..B inclusive")
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
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
