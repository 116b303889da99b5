"""The package imports nothing beyond the standard library and numpy.

pyproject.toml declares numpy as the only dependency, so every import
under src/formaldisk must name a standard-library module, numpy, or the
package itself (relative or absolute).
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
