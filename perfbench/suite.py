"""Run one gausslab verify suite at a chosen size, like `gausslab verify`.

    PYTHONPATH=src python3 perfbench/suite.py weil q_max=300

Arguments after the suite name are integer keyword overrides for
`gausslab.verify.run_suite`.  Prints the suite summary and its first
violations; exits 1 on any violation, as the CLI does.
"""

from __future__ import annotations

import sys

from gausslab.verify import run_suite


def main(argv: list[str]) -> int:
    name, *pairs = argv
    overrides = {key: int(value) for key, value in (pair.split("=", 1) for pair in pairs)}
    result = run_suite(name, **overrides)
    print(result.summary())
    for line in result.failures[:50]:
        print(f"  {line}")
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
