"""External tracer: wraps public gausslab functions from outside `src/`.

Run as a script it traces one command and writes its statistics:

    PYTHONPATH=src python3 perfbench/tracer.py STATS.json -m gausslab.cli figure fig1
    PYTHONPATH=src python3 perfbench/tracer.py STATS.json perfbench/suite.py weil q_max=300

Each wrapped function `<module>.<function>` is a layer boundary.  A
span's self time is its duration minus the durations of the spans it
directly encloses; calls nest strictly in this single-threaded program,
so the enclosed spans never overlap.  Spans are folded into per-name
totals as they close rather than kept as a list: the five verify suites
at CLI size open 7.5 million `jacobi` spans, which as span tuples would
take about a gigabyte.  Counters with their own hooks record work at the
same boundaries.  Statistics go to the named file, never into a
`--out-dir`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import runpy
import sys
import time
from collections import defaultdict

# module -> wrapped public functions; methods are written Class.method
LAYERS = {
    "arith": ("units", "inverse_table", "analyze_modulus", "jacobi"),
    "weights": ("evaluate_grid", "interval_indicator"),
    "gauss_sums": ("DirectEvaluator.__init__", "DirectEvaluator.__call__",
                   "gauss_sum_closed", "sigma_class", "gauss_sum_fast_batch"),
    "expsums": ("expsum_report", "class_counts"),
    "distlab": ("sample_limit_law", "limit_moment", "empirical_batch",
                "empirical_moment", "histogram", "ks_distance"),
    "verify": ("closed_form_suite", "functional_eq_suite", "weil_suite",
               "class_count_suite", "reduction_suite"),
    "cli": ("cmd_figure", "cmd_moments", "cmd_verify"),
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__init__', 'init').replace('__call__', 'call')}"


SPAN_NAMES = tuple(span_name(m, a) for m, attrs in LAYERS.items() for a in attrs)


class Tracer:
    """Per-name call counts and self times, plus counters and distinct keys."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        # time covered by child spans, one entry per open span, plus a root
        self._child_s = [0.0]

    def wrap(self, name: str, fn, hook=None):
        """fn wrapped in a span; hook(tracer, name, args, kwargs, result) runs after it returns."""
        clock, child_s = self.clock, self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = child_s.pop()
                child_s[-1] += span
                self.calls[name] += 1
                self.self_s[name] += span - inner
            if hook is not None:
                hook(self, name, args, kwargs, result)
            return result

        return traced

    def stats(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "keys": {name: sorted(keys) for name, keys in self.keys.items()},
        }


# ---------------------------------------------------------------------------
# counters computed at the boundaries
# ---------------------------------------------------------------------------

def next_prime(n: int) -> int:
    n = max(n, 2)
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def series_indices(coefficients, variant: str, cutoff: int | None) -> set[int]:
    """The |n| of the quadratic series a weight's coefficients fold into.

    G_plus takes c_{2n}, G_minus the odd c_n, G_full every c_n; n and -n
    share the term e(n^2 x).
    """
    if variant == "G_plus":
        ns = {abs(k) // 2 for k in coefficients if k % 2 == 0}
    elif variant == "G_minus":
        ns = {abs(k) for k in coefficients if k % 2}
    else:
        ns = {abs(k) for k in coefficients}
    return ns if cutoff is None else {n for n in ns if n <= cutoff}


def _weight_digest(w) -> str:
    items = sorted(w.coefficients.items())
    return hashlib.sha1(repr(items).encode()).hexdigest()[:16]


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _hooks(modules) -> dict:
    distlab = modules["distlab"]

    def inverse_table(tracer, name, args, kwargs, result):
        tracer.keys[name].add(args[0] if args else kwargs["q"])

    def direct_call(tracer, name, args, kwargs, result):
        tracer.counters[f"{name}.terms"] += args[0].q

    def sample_limit_law(tracer, name, args, kwargs, result):
        a = _bind(distlab.sample_limit_law, args, kwargs)
        terms = len(series_indices(a["w"].coefficients, a["variant"], a["cutoff"]))
        tracer.counters[f"{name}.term_evals"] += terms * a["n_samples"]

    def limit_moment(tracer, name, args, kwargs, result):
        a = _bind(distlab.limit_moment, args, kwargs)
        ns = series_indices(a["w"].coefficients, a["variant"], None)
        # limit_moment's default grid: the first prime above twice the largest index
        grid = a["grid_size"] or next_prime(max(65537, 2 * max(ns, default=0) + 1))
        tracer.counters[f"{name}.term_evals"] += len(ns) * grid
        tracer.keys[name].add(f"{a['variant']}|{_weight_digest(a['w'])}|{float(a['k'])!r}|{grid}")

    def suite(tracer, name, args, kwargs, result):
        tracer.counters[f"{name}.checked"] += result.checked

    hooks = {
        "arith.inverse_table": inverse_table,
        "gauss_sums.DirectEvaluator.call": direct_call,
        "distlab.sample_limit_law": sample_limit_law,
        "distlab.limit_moment": limit_moment,
    }
    for attr in LAYERS["verify"]:
        hooks[span_name("verify", attr)] = suite
    return hooks


def install(tracer: Tracer) -> None:
    """Wrap every LAYERS function wherever a gausslab module bound it by name.

    Must run before `gausslab.cli.main` builds its parser, which binds the
    `cmd_*` functions as subcommand defaults.
    """
    importlib.import_module("gausslab.cli")
    modules = {m: importlib.import_module(f"gausslab.{m}") for m in LAYERS}
    namespaces = [mod for name, mod in sys.modules.items()
                  if name == "gausslab" or name.startswith("gausslab.")]
    hooks = _hooks(modules)
    for module, attrs in LAYERS.items():
        for attr in attrs:
            name = span_name(module, attr)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                cls = getattr(modules[module], owner_name)
                setattr(cls, member, tracer.wrap(name, cls.__dict__[member], hooks.get(name)))
                continue
            original = getattr(modules[module], member)
            traced = tracer.wrap(name, original, hooks.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, traced)


def main(argv: list[str]) -> int:
    """tracer.py STATS.json -m gausslab.cli ARG... | tracer.py STATS.json SCRIPT ARG..."""
    if len(argv) < 2:
        print(main.__doc__, file=sys.stderr)
        return 2
    stats_path, target = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        if target[:2] == ["-m", "gausslab.cli"]:
            return importlib.import_module("gausslab.cli").main(target[2:])
        sys.argv = target
        runpy.run_path(target[0], run_name="__main__")
        return 0
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.stats(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
