"""Every import in the package and the test suite is used.

No linter ships with the project, so this walks the syntax tree: a name
bound by an import must occur somewhere else in its module as a name (an
attribute chain `np.linalg` starts with the name `np`).  Names listed in
`__all__` and the re-exports of `__init__.py` are exempt.
"""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "sysgeo").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the module never uses."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used | exported]


def test_checker_flags_only_unused_names():
    src = ("from __future__ import annotations\n"
           "import os, numpy as np\n"
           "from math import pi, tau\n"
           "import scipy.sparse\n"
           "__all__ = ['tau']\n"
           "x = np.zeros(1) + scipy.sparse.eye(1).sum()\n")
    assert unused_imports(src) == [(2, "os"), (3, "pi")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
