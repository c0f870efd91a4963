"""Command-line driver.

Subcommands:
  verify    run a named identity suite; exit 1 on any violation
  figure    reproduce one of the three reference experiments (CSV + JSON + .npy)
  moments   empirical vs limit moments over a range of moduli
  expsum    Kloosterman / twisted / Salie sums with Weil bounds
  equidist  Weyl equidistribution statistic over t

Outputs are deterministic byte-for-byte for a fixed configuration: all
metadata is the config echo itself (no timestamps), and row order is
canonical.  Every CSV table is streamed by _write_csv, _CSV_BLOCK rows
per write, so no table is ever held as one string; every JSON text comes
from _json_text.  A CSV cell is str of a Python scalar, so a float is its
shortest round-trip repr, as in JSON.  The one binary file, a figure's
<fig>_limit.npy, is np.save of the complex128 limit-law samples, bit for
bit; its configuration is that of the <fig>_summary.json next to it.

Exit codes: 0 success, 1 verification failure, 2 usage/domain error (a DomainError).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import arith, weights
from .errors import BadModulus, DomainError
from .expsums import KINDS, expsum_report, weyl_statistics
from .distlab import (
    empirical_batch,
    histogram,
    ks_distance,
    moment_reports,
    sample_limit_law,
    seeded_rng,
)
from .gauss_sums import G_MINUS, G_PLUS, modulus_case
from .verify import SUITES, run_suite
from .weights import (
    WeightFunction,
    constant_weight,
    fourier_weight,
    interval_indicator,
)

FIGURES = {
    # which: (q, series truncation, limit samples); the variant is modulus_case(q)'s
    "fig1": (5012, 4000, 300_000),
    "fig2": (5013, 4000, 300_000),
    "fig3": (5014, 5000, 500_000),
}


# CSV label of a sigma-class value (modulus_case's classes; None for an odd square)
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


def _emit_table(args, meta: dict, header: list[str], columns) -> None:
    """Write _write_csv's columns as CSV or JSON to --out, or to stdout (CSV without metadata)."""
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as stream:
        if args.format == "json":
            rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
            stream.write(_json_text({**meta, "rows": [dict(zip(header, row)) for row in rows]}))
        else:
            _write_csv(stream, meta if args.out else {}, header, columns)


def _parse_interval(spec: str) -> tuple[float, float]:
    """The pair (a, b) of an `interval:a,b` spec, checked by weights.check_interval."""
    try:
        a, b = map(float, spec[len("interval:"):].split(","))
        weights.check_interval(a, b)
    except ValueError as exc:  # BadInterval too, so the message names the spec
        raise DomainError(f"bad interval {spec!r}: {exc}") from exc
    return a, b


def _parse_weight(spec: str, cutoff: int) -> WeightFunction:
    if spec == "const":
        return constant_weight()
    if spec.startswith("interval:"):
        return interval_indicator(*_parse_interval(spec), cutoff)
    if spec.startswith("fourier:"):
        path = Path(spec[len("fourier:"):])
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
            raise DomainError(f"cannot read coefficient file {path}: {exc}") from exc
        coeffs: dict[int, complex] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("k,"):
                continue
            try:
                k_str, re_str, im_str = line.split(",")
                k, c = int(k_str), complex(float(re_str), float(im_str))
            except ValueError as exc:
                raise DomainError(f"bad coefficient row {line!r} in {path}") from exc
            if k in coeffs:
                raise DomainError(f"coefficient row {line!r} in {path} repeats k={k}")
            coeffs[k] = c
        if not coeffs:
            raise DomainError(f"no coefficients in {path}")
        return fourier_weight(coeffs)
    raise DomainError(f"unknown weight spec {spec!r} (const | interval:a,b | fourier:PATH)")


def _parse_domain(spec: str) -> tuple[float, float] | None:  # None for full
    if spec == "full":
        return None
    if spec.startswith("interval:"):
        return _parse_interval(spec)
    raise DomainError(f"unknown domain spec {spec!r} (full | interval:a,b)")


def _parse_range(spec: str) -> range:
    """The moduli A..B, inclusive."""
    try:
        a_str, b_str = spec.split("..")
        a, b = int(a_str), int(b_str)
    except ValueError as exc:
        raise DomainError(f"bad range {spec!r}, expected A..B") from exc
    if a < 1 or b < a:
        raise DomainError(f"bad range {spec!r}")
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
    q, trunc_default, samples_default = FIGURES[which]
    trunc = trunc_default if args.trunc is None else args.trunc
    n_samples = samples_default if args.samples is None else args.samples
    bins = args.bins
    if trunc < 1 or n_samples < 1 or bins < 1:
        raise DomainError(f"--trunc, --samples and --bins must be positive, "
                          f"got {trunc}, {n_samples} and {bins}")
    if args.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {args.seed}")
    variant = modulus_case(q).variant
    # the even-index series at truncation K reads coefficients up to 2K
    coeff_cutoff = 2 * trunc if variant == G_PLUS else trunc
    # the real part is shifted by t/q exactly when the series has the constant term c_0
    center = "none" if variant == G_MINUS else "tq"
    b = 1.0 / math.sqrt(7.0)

    weight = interval_indicator(0.0, b, coeff_cutoff)
    batch = empirical_batch(q, weight)
    values = batch.values
    t_over_q = batch.grid_mass / q

    limit = sample_limit_law(variant, weight, trunc, n_samples, args.seed)
    shift = t_over_q if center == "tq" else 0.0

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

    # the complex samples as they are, bit for bit; their configuration is the summary's
    np.save(out_dir / f"{which}_limit.npy", limit)
    # G_minus: real and imaginary parts share one law, that of the imaginary part
    ks_re = ks_distance(values.real, limit.imag if variant == G_MINUS else limit.real)
    ks_im = ks_distance(values.imag, limit.imag)

    summary = {
        **meta,
        "normalization": batch.case.label,
        "total_samples": len(values),
        "phi_q": batch.case.units.size,
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
    window = _parse_domain(args.domain)
    try:
        k_list = [float(k) for k in args.k_list.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad k list {args.k_list!r}") from exc
    meta = {
        "command": "moments",
        "weight": args.weight,
        "domain": args.domain,
        "trunc": args.trunc,
        "k_list": args.k_list,
    }
    # a range skips the moduli below 3 (no normalized law)
    reports = _per_modulus(args.q, args.q_range, moment_reports(weight, window, k_list))
    rows = [(q, r.k, float(r.empirical), float(r.limit), float(r.relative_gap))
            for q, reps in reports for r in reps]
    _emit_table(args, meta, ["q", "k", "empirical", "limit", "gap"], list(zip(*rows)))
    return 0


def cmd_expsum(args) -> int:
    reports = _per_modulus(args.q, args.sweep_q, lambda q: expsum_report(args.kind, args.m, args.n, q))
    columns = list(zip(*[(q, args.m, args.n, float(value.real), float(value.imag),
                          float(abs(value)), float(bound), float(abs(value) / bound))
                         for q, (value, bound) in reports]))
    meta = {"command": "expsum", "kind": args.kind, "m": args.m, "n": args.n}
    _emit_table(args, meta, ["q", "m", "n", "re", "im", "abs", "weil_bound", "ratio"], columns)
    return 0


def cmd_equidist(args) -> int:
    q = args.q
    if args.seed < 0:  # refused for every --t, so no output echoes a seed no draw accepts
        raise DomainError(f"--seed must be >= 0, got {args.seed}")
    if args.t == "all":
        ts = arith.units(q)
    elif args.t.startswith("random:"):
        count = args.t[len("random:"):]
        if not count.isdecimal() or int(count) < 1:
            raise DomainError(f"bad --t value {args.t!r}: N must be a positive integer")
        units = arith.units(q)
        # ascending indices into the ascending units, drawn without a list of the pool
        picks = seeded_rng(args.seed).sample(range(units.size), min(int(count), units.size))
        ts = units[sorted(picks)]
    else:
        try:
            ts = [int(args.t)]
        except ValueError as exc:
            raise DomainError(f"bad --t value {args.t!r} (all | random:N | integer)") from exc
    vals = weyl_statistics(q, ts, args.m, args.n)
    sizes = np.abs(vals)
    meta = {"command": "equidist", "q": q, "m": args.m, "n": args.n, "t": args.t, "seed": args.seed}
    n_ts = len(ts)  # q, m and n repeat as Python ints: m and n may exceed int64
    _emit_table(args, meta, ["q", "t", "m", "n", "re", "im", "abs"],
                [[q] * n_ts, ts, [args.m] * n_ts, [args.n] * n_ts, vals.real, vals.imag, sizes])
    print(f"max |statistic| = {float(sizes.max(initial=0.0))!r}", file=sys.stderr)
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
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("expsum", help="exponential sums with Weil bounds")
    p.add_argument("--kind", choices=KINDS, required=True)
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


def _check_outputs(args) -> None:
    """Refuse an --out or --out-dir that cannot be written, before any work."""
    out, out_dir = getattr(args, "out", None), getattr(args, "out_dir", None)
    if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        raise DomainError(f"--out {out}: not a file in an existing directory")
    # mkdir starts at the nearest of out_dir and its parents that exists
    if out_dir and not next(filter(Path.exists, (Path(out_dir), *Path(out_dir).parents))).is_dir():
        raise DomainError(f"--out-dir {out_dir}: it or a parent is an existing non-directory")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    try:
        _check_outputs(args)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
