"""Run a fixed set of gausslab commands and print the sha256 of every file they write.

    PYTHONPATH=src python tools/output_digest.py OUT_DIR

Each command of COMMANDS runs as a child `python -m gausslab.cli` with
OUT_DIR as its working directory and the current PYTHONPATH (relative
entries made absolute).  Its stdout goes to OUT_DIR/NAME.stdout, and the
three figures write their files under OUT_DIR/figures; OUT_DIR/weight.csv
holds FOURIER_WEIGHT for the `fourier:` weight spec.  Then one line
`sha256  path` per file under OUT_DIR, sorted by path, goes to stdout, so
two source trees are byte-identical on this set when the lines of their
runs match.  OUT_DIR must be new or empty (exit 2 otherwise), so the
list holds these outputs only.  Exits 1 if a command exits non-zero.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

FIGURE_WEIGHT = "interval:0,0.3779644730092272"  # the figures' [0, 1/sqrt(7))
# a plain series, which takes evaluate_grid's FFT route where an interval takes the 0/1 grid
FOURIER_WEIGHT = "k,re,im\n0,1,0\n1,0.5,0.25\n-3,0.125,-0.5\n4,0,0.75\n"

# (name, command line after `gausslab`): every subcommand, all five verify suites
COMMANDS = [
    *[(f"figure_{which}", ["figure", which, "--samples", samples, "--seed", "3",
                           "--out-dir", "figures"])
      for which, samples in (("fig1", "37500"), ("fig2", "37500"), ("fig3", "62500"))],
    ("moments_sweep", ["moments", "--q-range", "5010..5015", "--weight", FIGURE_WEIGHT,
                       "--k-list", "0,1,2,4", "--trunc", "600"]),
    ("moments_large_q", ["moments", "--q", "15013", "--weight", "interval:0,0.3",
                         "--k-list", "0,2", "--trunc", "500"]),
    ("moments_fourier", ["moments", "--q-range", "3..60", "--weight", "fourier:weight.csv",
                         "--k-list", "0,2,3,4"]),
    ("moments_window", ["moments", "--q-range", "1..20", "--k-list", "2,3",
                        "--weight", "interval:0.1,0.6", "--trunc", "50",
                        "--domain", "interval:0.2,0.9", "--format", "json"]),
    ("expsum_kloosterman", ["expsum", "--kind", "kloosterman", "--m", "2", "--n", "3",
                            "--sweep-q", "1..400"]),
    ("expsum_salie", ["expsum", "--kind", "salie", "--m", "1", "--n", "1",
                      "--sweep-q", "3..999"]),
    ("expsum_twisted", ["expsum", "--kind", "twisted", "--m", "1", "--n", "3",
                        "--sweep-q", "1..400"]),
    ("equidist", ["equidist", "--q", "4001", "--t", "random:100", "--m", "1", "--n", "2",
                  "--seed", "7"]),
    *[(f"equidist_{q}", ["equidist", "--q", q, "--t", "all", "--m", "1", "--n", "3"])
      for q in ("4002", "4004")],
    ("equidist_4002_json", ["equidist", "--q", "4002", "--t", "all", "--m", "1", "--n", "3",
                            "--format", "json"]),
    *[(f"verify_{suite}", ["verify", suite])
      for suite in ("closed_form", "functional_eq", "weil", "class_counts", "reduction")],
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        print(f"{out_dir} is not empty", file=sys.stderr)
        return 2
    (out_dir / "weight.csv").write_text(FOURIER_WEIGHT)
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(Path(p).resolve()) for p in paths if p)}
    failed = 0
    for name, command in COMMANDS:
        with open(out_dir / f"{name}.stdout", "w") as stdout:
            code = subprocess.run([sys.executable, "-m", "gausslab.cli", *command],
                                  cwd=out_dir, env=env, stdout=stdout).returncode
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            failed = 1
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out_dir)}")
    return failed


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
