"""The layers the benchmark's external tracer wraps still exist in gausslab.

perfbench/tracer.py wraps every `<module>.<function>` (or
`<module>.<Class>.<method>`) of its LAYERS table by name, and
`perfbench/run.py --trace 1` fails if one of them is gone.  Its hooks
also read arguments and attributes by name, which one test checks.  The
layer tests read the table without installing the tracer, so nothing is
patched; one test runs the tracer in a child process on a small
`moments` command, so a hook that rejects what the CLI passes fails here.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("gausslab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = [(module, attr) for module, attrs in load_layers().items() for attr in attrs]


@pytest.mark.parametrize("module,attr", LAYERS, ids=[f"{m}.{a}" for m, a in LAYERS])
def test_layer_resolves_to_a_callable(module, attr):
    owner = importlib.import_module(f"gausslab.{module}")
    *classes, member = attr.split(".")
    for name in classes:
        owner = getattr(owner, name)
    # methods are wrapped through the class dict, functions through the module
    found = owner.__dict__[member] if classes else getattr(owner, member)
    assert callable(found)


def test_table_is_not_empty():
    assert len(LAYERS) > 20


def test_names_the_hooks_read_exist():
    """The hooks bind limit_moment's and sample_limit_law's arguments by name, read
    DirectEvaluator(...).q and the .checked count of every verify suite's result."""
    from gausslab import distlab, verify
    from gausslab.gauss_sums import DirectEvaluator
    from gausslab.weights import constant_weight

    def parameters(fn):
        return set(inspect.signature(fn).parameters)

    assert {"variant", "w", "k", "grid_size"} <= parameters(distlab.limit_moment)
    assert {"variant", "w", "cutoff", "n_samples"} <= parameters(distlab.sample_limit_law)
    assert DirectEvaluator(constant_weight(), 7).q == 7
    assert "checked" in {f.name for f in dataclasses.fields(verify.SuiteResult)}
    for module, attr in LAYERS:
        if module == "verify":
            assert typing.get_type_hints(getattr(verify, attr))["return"] is verify.SuiteResult


def test_traced_moments_run(tmp_path):
    """The tracer's hooks accept what the moments command passes: one weight grid per modulus.

    The command takes its rows from one moment_reports function, which shares the limit
    moments per series variant, so it never calls empirical_moment, which the tracer wraps.
    """
    stats = tmp_path / "stats.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    argv = ["moments", "--q-range", "13..15", "--k-list", "0,2", "--weight", "interval:0,0.3"]
    done = subprocess.run([sys.executable, str(TRACER), str(stats), "-m", "gausslab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 1 + 3 * 2
    calls = json.loads(stats.read_text())["calls"]
    assert calls["cli.cmd_moments"] == 1
    assert calls["weights.evaluate_grid"] == 3
    assert calls.get("distlab.empirical_moment", 0) == 0
