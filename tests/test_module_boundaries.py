"""No gausslab module reaches into another module's private names.

A name that starts with one underscore belongs to its module.  For every
module of the package the test collects each relative `from .m import _x`
and each `m._x` read through a sibling bound by `from . import m`; the list
must be empty.  Dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

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
