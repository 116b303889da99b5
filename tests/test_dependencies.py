"""The package imports nothing beyond the standard library and numpy,
and nothing it does not use, and defines nothing no user reaches.

pyproject.toml declares numpy as the only dependency, so every import
under src/formaldisk must name a standard-library module, numpy, or the
package itself (relative or absolute).  Every name a module imports at
module level must also be used in it, in the package and in the tests;
__init__.py, whose imports are the package's re-exports, is the
exception.  Every function and method of the package must be reached
from a command, a suite or the benchmark; what only tests call belongs
in tests/helpers.py.
"""

import ast
import sys
from pathlib import Path

import formaldisk

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "formaldisk"}


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_stdlib_numpy_and_itself():
    files = sorted(Path(formaldisk.__file__).parent.glob("*.py"))
    assert len(files) >= 10
    bad = [(f.name, line, root) for f in files
           for line, root in _imported_roots(ast.parse(f.read_text()))
           if root not in ALLOWED]
    assert bad == []


def test_the_scan_sees_what_it_must_refuse():
    tree = ast.parse("import scipy.stats\nfrom sympy import Rational\n"
                     "from . import series\nimport numpy as np\n"
                     "def f():\n    import hypothesis\n")
    assert [root for _, root in _imported_roots(tree)
            if root not in ALLOWED] == ["scipy", "sympy", "hypothesis"]


def _unused_imports(tree):
    """Names bound by a module-level import that the module never reads.

    A name counts as read where it appears as a Name, or as the base of
    an attribute access such as np.zeros.  `from __future__` imports are
    compiler directives, not names.
    """
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_src_has_no_unused_module_level_import():
    files = sorted(Path(formaldisk.__file__).parent.glob("*.py"))
    unused = [(f.name, line, name) for f in files if f.name != "__init__.py"
              for line, name in _unused_imports(ast.parse(f.read_text()))]
    assert unused == []


def test_tests_have_no_unused_module_level_import():
    files = sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) >= 10
    unused = [(f.name, line, name) for f in files
              for line, name in _unused_imports(ast.parse(f.read_text()))]
    assert unused == []


def test_the_unused_import_scan_sees_what_it_must_refuse():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json\nimport numpy as np\nimport os.path\n"
                     "from math import comb, gcd\nfrom . import series\n"
                     "def f(x):\n    import sys\n"
                     "    return np.zeros(comb(x, 2)), os.path.sep, sys\n")
    assert [name for _, name in _unused_imports(tree)] == [
        "json", "gcd", "series"]


# -- every function and method is reached from a command, a suite or the
# benchmark ------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
# cli.main dispatches through cli._HANDLERS, run_suite through
# suites.SUITES; both tables are module-level code, reached at import
ENTRY_POINTS = {"main", "run_suite"}
# reached from no command or suite, kept on purpose
NOT_REACHED = {
    "polydiff.cup": "the cup product for the Gerstenhaber claim on "
                    "cohomology, ROADMAP item 6",
}


def _bench_imports():
    """The names bench/workloads.py imports from formaldisk."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module == "formaldisk"
            for alias in node.names}


def _names(nodes):
    """Every identifier the nodes read: names and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _unreached(modules, roots):
    """Qualified names of the functions and methods no root reaches.

    modules maps a module name to its ast.  The walk goes by name: a
    reached body that reads an identifier, as a name or as an attribute,
    reaches every definition of that name, whatever its module or class.
    What runs at import is reached: module and class bodies outside
    their functions, and decorators.  So are dunder methods, which
    Python calls itself; they are never reported.
    """
    defs = {}                          # qualified name -> (name, node)
    frontier = set(roots)
    for module, tree in modules.items():
        for node in tree.body:
            items = [(module, node)]
            if isinstance(node, ast.ClassDef):
                frontier |= _names(node.bases + node.decorator_list)
                items = [("%s.%s" % (module, node.name), item)
                         for item in node.body]
            for prefix, item in items:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    frontier |= _names(item.decorator_list)
                    if item.name.startswith("__") and item.name.endswith("__"):
                        frontier |= _names(item.body + [item.args])
                    else:
                        defs["%s.%s" % (prefix, item.name)] = item
                elif not isinstance(item, ast.ClassDef):
                    frontier |= _names([item])
    seen = set()
    while frontier - seen:
        name = (frontier - seen).pop()
        seen.add(name)
        for node in defs.values():
            if node.name == name:
                frontier |= _names(node.body + [node.args])
    return sorted(q for q, node in defs.items() if node.name not in seen)


def test_src_defines_only_what_a_command_a_suite_or_the_benchmark_reaches():
    package = Path(formaldisk.__file__).parent
    modules = {f.stem: ast.parse(f.read_text())
               for f in sorted(package.glob("*.py"))}
    assert {"cli", "suites", "weights"} <= modules.keys()
    roots = ENTRY_POINTS | _bench_imports()
    assert {"mc_weight", "twisted_first_taylor"} <= roots
    assert _unreached(modules, roots) == sorted(NOT_REACHED)


def test_the_reachability_scan_sees_what_it_must_refuse():
    tree = ast.parse(
        "import functools\n"
        "TABLE = {'a': run}\n"
        "def main():\n    return helper()\n"
        "def helper():\n    return Box(1).used()\n"
        "def run():\n    pass\n"
        "def unused():\n    return helper()\n"
        "@functools.cache\ndef cached():\n    pass\n"
        "def wrapper(f):\n    return f\n"
        "@wrapper\ndef wrapped():\n    pass\n"
        "class Box:\n"
        "    __radd__ = alias\n"
        "    def __init__(self, x):\n        self.x = x\n"
        "    def used(self):\n        return self.x\n"
        "    def alias(self):\n        pass\n"
        "    def spare(self):\n        return unused()\n")
    assert _unreached({"m": tree}, {"main"}) == [
        "m.Box.spare", "m.cached", "m.unused", "m.wrapped"]
