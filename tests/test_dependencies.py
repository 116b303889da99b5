"""The package imports nothing beyond the standard library and numpy,
and nothing it does not use.

pyproject.toml declares numpy as the only dependency, so every import
under src/formaldisk must name a standard-library module, numpy, or the
package itself (relative or absolute).  Every name a module imports at
module level must also be used in it; __init__.py, whose imports are
the package's re-exports, is the exception.
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


def test_the_unused_import_scan_sees_what_it_must_refuse():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json\nimport numpy as np\nimport os.path\n"
                     "from math import comb, gcd\nfrom . import series\n"
                     "def f(x):\n    import sys\n"
                     "    return np.zeros(comb(x, 2)), os.path.sep, sys\n")
    assert [name for _, name in _unused_imports(tree)] == [
        "json", "gcd", "series"]
