"""Every import in the package and the test suite is used, every name
in an `__all__` is defined, and every definition of the package is used.

No linter ships with the project, so this walks the syntax tree: a name
bound by an import must occur somewhere else in its module as a name (an
attribute chain `np.linalg` starts with the name `np`).  Names listed in
`__all__` and the re-exports of `__init__.py` are exempt, so a second
check asks that each `__all__` name be bound at module level; a stale
entry would otherwise break `from module import *` unseen.  A third
check asks that each function, class and method of the package, and
each private module-level name it binds by assignment (a table such as
`_LEVEL_RESOLUTION`), be referenced somewhere in the package or the
tests, so a helper or a table whose last reader went away goes with it.

The last tests run fresh interpreters to check the import boundary:
`import sysgeo` loads scipy's HiGHS binding without importing
scipy.optimize, shares that one module with a scipy.optimize imported
before or after it, and the MILP fallback imports scipy.optimize itself.
"""
import ast
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "sysgeo").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def unbound_exports(source: str) -> list:
    """Names in `__all__` that no module-level def, class, assignment or
    import binds."""
    bound, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {e.id for t in targets for e in ast.walk(t) if isinstance(e, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [e.value for e in ast.walk(node.value)
                            if isinstance(e, ast.Constant)]
        elif isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names}
    return [name for name in exported if name not in bound]


def test_checker_flags_only_unbound_exports():
    src = ("import os.path\n"
           "from math import pi as tau\n"
           "x: int = 1\n"
           "y = z = 2\n"
           "a, (b, c) = 3, (4, 5)\n"
           "def f():\n"
           "    w = 6\n"
           "class C:\n"
           "    v = 7\n"
           "__all__ = ['os', 'tau', 'x', 'y', 'z', 'c', 'f', 'C', 'Gone', 'pi', 'w', 'v']\n")
    assert unbound_exports(src) == ["Gone", "pi", "w", "v"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_all_names_bound(path):
    assert unbound_exports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_definitions(package: dict, users: list = ()) -> list:
    """(module, line, name) of each module-level def or class, each
    method, and each private module-level name bound by assignment, of
    `package` (module name -> source) that no source of `package` or
    `users` references: a module-level definition as a name read or an
    attribute, a method only as an attribute (`x.name`), so a local
    variable of the same name does not hide it.  A `def` or `class`
    statement or an assignment does not reference the name it binds.
    Dunders and the names of any `__all__` are exempt."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    names, attrs, exported = set(), set(), set()
    for tree in [*trees.values(), *map(ast.parse, users)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported |= {e.value for e in ast.walk(node.value)
                             if isinstance(e, ast.Constant)}
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                out += [(mod, node.lineno, e.id) for t in targets for e in ast.walk(t)
                        if isinstance(e, ast.Name) and e.id.startswith("_")
                        and not e.id.endswith("__") and e.id not in names | attrs]
            if not isinstance(node, (*funcs, ast.ClassDef)):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            methods = [m for m in members if isinstance(m, funcs)]
            for d, used in [(node, names | attrs), *((m, attrs) for m in methods)]:
                dunder = d.name.startswith("__") and d.name.endswith("__")
                if not (dunder or d.name in used | exported):
                    out.append((mod, d.lineno, d.name))
    return out


def test_checker_flags_only_unreferenced_definitions():
    src = ("__all__ = ['public']\n"
           "def public(): return _helper(), _Model()\n"
           "def _helper(): pass\n"
           "def _dead(): pass\n"
           "class _Model:\n"
           "    def __init__(self): self.solve()\n"
           "    def solve(self): pass\n"
           "    def set_coeff(self): pass\n"
           "class _Unused: pass\n"
           "def _tested(): pass\n")
    assert unreferenced_definitions({"m": src}, ["from m import _tested\n_tested()\n"]) == [
        ("m", 4, "_dead"), ("m", 8, "set_coeff"), ("m", 9, "_Unused")]
    # a local variable named like a method does not reference it
    src = ("__all__ = ['public']\n"
           "class _Lattice:\n"
           "    def gram(self): pass\n"
           "    def det(self): pass\n"
           "def public(L):\n"
           "    gram = L.det()\n"
           "    return gram, _Lattice\n")
    assert unreferenced_definitions({"m": src}) == [("m", 3, "gram")]


def test_checker_flags_only_unreferenced_constants():
    """A private module-level name bound by assignment is a definition: an
    assignment to it is not a reference, a read in any source is."""
    src = ("__all__ = ['PUBLIC']\n"
           "_TABLE = {2: 1}\n"
           "_READ, PUBLIC, _TESTED = 1e-3, 2, 3\n"
           "_TABLE = _READ\n"
           "def f():\n"
           "    _LOCAL = 4\n")
    assert unreferenced_definitions({"m": src}, ["import m\nm._TESTED\n"]) == [
        ("m", 2, "_TABLE"), ("m", 4, "_TABLE"), ("m", 5, "f")]


def test_no_unreferenced_definitions():
    package = {p.stem: p.read_text() for p in PACKAGE}
    tests = [p.read_text() for p in (ROOT / "tests").glob("*.py")]
    assert unreferenced_definitions(package, tests) == []


def run_fresh(code: str):
    """Run code in a new interpreter that finds the package's sources."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("optimize_first", [False, True],
                         ids=["sysgeo-first", "scipy.optimize-first"])
def test_import_boundary(optimize_first):
    run_fresh(f"""
        import sys
        if {optimize_first}:
            import scipy.optimize
        import numpy as np
        import sysgeo
        from sysgeo import systole
        assert ("scipy.optimize" in sys.modules) == {optimize_first}
        core = sys.modules["scipy.optimize._highspy._core"]
        assert systole._highs is core
        import scipy.optimize
        from scipy.optimize._highspy import _core
        assert _core is core
        lp = scipy.optimize.linprog([1, 1], A_ub=[[-1, -2]], b_ub=[-2])
        assert lp.status == 0 and abs(lp.fun - 1.0) < 1e-9
        ip = scipy.optimize.milp([1, 1], integrality=[1, 1],
                                 constraints=scipy.optimize.LinearConstraint([[2, 2]], 3, np.inf))
        assert ip.status == 0 and abs(ip.fun - 2.0) < 1e-9
        X, g, _ = sysgeo.gen_flat_torus(np.eye(2), 3)
        assert sysgeo.stsys1(X, g).value == 1.0
    """)


def test_milp_fallback_imports_scipy_optimize():
    # the relaxation on the boundary of the 4-simplex is fractional
    # (test_hypersurface), so the exact solve reaches the MILP
    run_fresh("""
        import math, sys
        import numpy as np
        from sysgeo.hypersurface import _solve_exact, dual_graph
        from sysgeo.simplicial import PLMetric, SimplicialComplex
        assert "scipy.optimize" not in sys.modules
        X = SimplicialComplex(5, [[v for v in range(5) if v != i] for i in range(5)])
        dg = dual_graph(X, PLMetric({e: 1.0 for e in X.edges}))
        value, lower, cut, exact, info = _solve_exact(dg, np.ones(len(dg.faces), np.uint8), 30.0)
        assert info["path"] == "milp" and exact
        assert abs(value - math.sqrt(3.0)) < 1e-12 and int(cut.sum()) == 4
        assert "scipy.optimize" in sys.modules
    """)
