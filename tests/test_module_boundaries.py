"""No gausslab module reaches into another module's private names, and no public name is idle.

A name that starts with one underscore belongs to its module.  For every
module of the package the test collects each relative `from .m import _x`
and each `m._x` read through a sibling bound by `from . import m`; the list
must be empty.  Dunder names are exempt.

Every public top-level function and class has a caller in the package: some
package code outside its own definition reads it as a name or an attribute,
or the package exports it, or the benchmark's tracer wraps it.  A reference
that only the tests need lives in the tests.  Every exception type of
errors.py is named by some raise statement of the package.  Importing
the CLI, which every command does, loads none of fractions, decimal or
numpy.ma.  The CLI imports nothing from gauss_sums and reads neither G_PLUS
nor G_MINUS: distlab.compare_laws holds a figure's series-variant rules.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_tracer_layers import load_layers

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gausslab"
MODULES = sorted(PACKAGE.glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_imports(source: str) -> list[str]:
    """The other modules' private names a module's source imports or reads, as `m._x`."""
    tree = ast.parse(source)
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:  # from . import m
                siblings.update(alias.asname or alias.name for alias in node.names)
            else:
                found += [f"{node.module}.{alias.name}" for alias in node.names
                          if is_private(alias.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and is_private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_of_another_module(path):
    assert private_imports(path.read_text()) == []


def test_checker_finds_both_forms():
    source = ("from . import arith\n"
              "from .distlab import _points, seeded_rng, __doc__\n"
              "x = arith._helper(arith.units, arith.__name__)\n"
              "y = random._inst\n")
    assert private_imports(source) == ["distlab._points", "arith._helper"]


def references(node: ast.AST) -> set[str]:
    """The names a piece of code reads, bare (`f`) or as an attribute (`m.f`)."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def idle_names(sources: dict[str, str], kept: set[str]) -> list[str]:
    """Each module's public top-level defs and classes, as `m.f`, that no other code reads.

    sources maps a module name to its source; a name in kept (as `m.f`) is never idle.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(node, references(node)) for tree in trees.values() for node in tree.body]
    idle = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or f"{module}.{node.name}" in kept):
                continue
            if not any(node.name in names for other, names in reads if other is not node):
                idle.append(f"{module}.{node.name}")
    return idle


def test_every_public_name_has_a_caller():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {f"{node.module}.{alias.name}" for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    pinned = {f"{module}.{attr.split('.')[0]}" for module, attrs in load_layers().items()
              for attr in attrs}
    sources = {path.stem: path.read_text() for path in MODULES}
    assert idle_names(sources, exported | pinned) == []


def test_census_finds_both_reference_forms():
    sources = {"a": ("def used_bare(): pass\n"
                     "def used_as_attribute(): pass\n"
                     "def kept(): pass\n"
                     "def idle(): return idle()\n"
                     "def _private(): pass\n"
                     "class Idle: pass\n"),
               "b": "x = used_bare() + a.used_as_attribute()\n"}
    assert idle_names(sources, {"a.kept"}) == ["a.idle", "a.Idle"]


def series_rule_reads(source: str) -> list[str]:
    """A module's gauss_sums imports, in any import form, then the G_PLUS and G_MINUS it reads."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if (node.module or "").endswith("gauss_sums"):  # from .gauss_sums import x
                found += [f"gauss_sums.{name}" for name in names]
            else:  # from . import gauss_sums
                found += [name for name in names if name == "gauss_sums"]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.endswith("gauss_sums")]
    return found + sorted(references(tree) & {"G_PLUS", "G_MINUS"})


def test_cli_holds_no_series_variant_rule():
    # distlab.compare_laws picks a figure's series variant and applies its rules
    assert series_rule_reads((PACKAGE / "cli.py").read_text()) == []


def test_series_rule_census_finds_every_form():
    source = ("from .gauss_sums import G_PLUS, modulus_case\n"
              "from . import arith, gauss_sums\n"
              "import gausslab.gauss_sums\n"
              "x = law.variant == distlab.G_MINUS\n")
    assert series_rule_reads(source) == ["gauss_sums.G_PLUS", "gauss_sums.modulus_case",
                                         "gauss_sums", "gausslab.gauss_sums", "G_MINUS"]


def unraised(errors_source: str, sources: list[str]) -> list[str]:
    """The classes of errors_source that no raise statement of sources names."""
    raised = set().union(*(references(node) for source in sources
                           for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)))
    return [node.name for node in ast.parse(errors_source).body
            if isinstance(node, ast.ClassDef) and node.name not in raised]


def test_every_exception_type_is_raised():
    errors = (PACKAGE / "errors.py").read_text()
    assert unraised(errors, [path.read_text() for path in MODULES]) == []


def test_exception_census_reads_raise_statements_only():
    errors = "class Raised(ValueError): pass\nclass Caught(Raised): pass\nclass Bare: pass\n"
    source = ("try:\n    raise errors.Raised('x')\nexcept Caught:\n    raise\n"
              "def f():\n    raise Bare\n")
    assert unraised(errors, [source]) == ["Caught"]


def test_cli_import_loads_no_fractions_decimal_or_numpy_ma():
    # grid_in_interval takes ceil(a q) in integers: fractions (and decimal, which it
    # imports) cost 1.8-5.8 ms per process after numpy, numpy.ma 15 ms and 1.25 MB
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", "import sys, gausslab.cli\n"
                           "print(sorted({'fractions', 'decimal', 'numpy.ma'} & set(sys.modules)))"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
