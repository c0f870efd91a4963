"""The layers the benchmark's external tracer wraps still exist in gausslab.

perfbench/tracer.py wraps every `<module>.<function>` (or
`<module>.<Class>.<method>`) of its LAYERS table by name, and
`perfbench/run.py --trace 1` fails if one of them is gone.  This reads
the table without installing the tracer, so nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
