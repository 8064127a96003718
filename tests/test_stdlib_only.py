"""The package runs on the Python standard library alone, and its source
imports nothing it does not use."""

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


def imported_names(tree):
    """The names one module binds by import, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def read_names(tree):
    """The names one module reads, and the strings of its ``__all__``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def package_trees():
    """The parsed source of each package module, by module name."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_package_has_no_unused_imports():
    """Every imported name is read in its module, or is imported from that
    module by another package module (a re-export)."""
    trees = package_trees()
    reexported = {(node.module, alias.name) for tree in trees.values()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names}
    unused = {(stem, name) for stem, tree in trees.items()
              for name in set(imported_names(tree)) - read_names(tree)
              if (stem, name) not in reexported}
    assert unused == set()


def test_package_defines_nothing_unread():
    """Every module-level function or class is read somewhere in the package
    or listed in ``__all__``, bar the ``cmd_*`` handlers that ``cli.main``
    looks up by name."""
    trees = package_trees()
    read = set().union(*map(read_names, trees.values()))
    unread = {(stem, node.name) for stem, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in read and not node.name.startswith("cmd_")}
    assert unread == set()


REFUSALS = {"UnsupportedVariantError", "OracleScaleError"}


def refusal_sites(tree):
    """The module-level definitions of one module (``<module>`` for loose
    statements) that build or raise an ``UnsupportedVariantError`` or an
    ``OracleScaleError``."""
    for top in tree.body:
        for node in ast.walk(top):
            made = node.func if isinstance(node, ast.Call) else \
                node.exc if isinstance(node, ast.Raise) else None
            if isinstance(made, ast.Name) and made.id in REFUSALS:
                yield getattr(top, "name", "<module>")


def test_only_the_guard_and_route_auto_refuse():
    """A solver refuses an instance through ``solution.refusal``, which reads
    the requirements table; only ``cli.route_auto`` adds its hardness
    refusal.  No solver grows a guard of its own."""
    sites = {(stem, name) for stem, tree in package_trees().items()
             for name in refusal_sites(tree)}
    assert sites == {("solution", "refusal"), ("cli", "route_auto")}
