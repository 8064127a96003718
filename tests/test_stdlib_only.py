"""The package runs on the Python standard library alone."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphsack"


def absolute_imports(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    outside = {(path.name, name) for path in paths for name in absolute_imports(path)
               if name not in sys.stdlib_module_names}
    assert outside == set()


def test_package_parses_as_python_3_10():
    """Every source file parses under the oldest grammar ``requires-python``
    allows.  This checks syntax only: a call into a newer standard library
    module or function still passes, and is caught only by running on 3.10."""
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
