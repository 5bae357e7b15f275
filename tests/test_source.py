"""Source rules for every module of src/pzbeam: only public numpy.

pyproject.toml admits every numpy from 1.23 on, and only numpy's public
names keep their meaning across those releases, so no module imports or
reads a name of numpy that starts with an underscore (dunders such as
__version__ are public).
"""

import ast
from pathlib import Path

import pytest

import pzbeam

SRC = Path(pzbeam.__file__).resolve().parent


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_numpy_names(source):
    """Every private name of numpy that source imports or reads, in walk order."""
    tree = ast.parse(source)
    bound, found = set(), []     # bound: local names of numpy, its modules and its names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    found += filter(_private, alias.name.split("."))
                    bound.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += filter(_private, node.module.split("."))
            found += filter(_private, (alias.name for alias in node.names))
            bound.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(node.attr)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_uses_a_private_numpy_name(path):
    assert _private_numpy_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, names", [
    ("from numpy.linalg import LinAlgError, _umath_linalg", ["_umath_linalg"]),
    ("import numpy as np\nnp.linalg._umath_linalg.solve(a, b)", ["_umath_linalg"]),
    ("from numpy import linalg as la\nla._umath_linalg.solve1", ["_umath_linalg"]),
    ("import numpy._core.multiarray as m\nm._reconstruct", ["_core", "_reconstruct"]),
    ("from numpy._core import umath", ["_core"]),
    ("def f():\n    import numpy\n    return numpy._NoValue", ["_NoValue"]),
    ("import numpy as np\nnp.linalg.solve(a, b)\nnp.__version__\nx._private", []),
])
def test_the_scan_finds_each_form(source, names):
    assert _private_numpy_names(source) == names
