"""The package surface: every name that the tests, the README and the
benchmark take from ``latcurve`` itself still imports from it."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def names_imported_by_tests() -> set:
    """Names of every ``from latcurve import ...`` in ``tests/``, module
    level or inside a function."""
    names = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "latcurve":
                    names.update(alias.name for alias in node.names)
    return names


def names_read_as_lc(path: Path) -> set:
    """Names read as ``lc.<name>`` after ``import latcurve as lc``."""
    return set(re.findall(r"\blc\.(\w+)", path.read_text()))


def test_every_used_name_imports_from_the_package():
    readme = names_read_as_lc(ROOT / "README.md")
    bench = set().union(*map(names_read_as_lc, (ROOT / "perfbench").glob("*.py")))
    tests = names_imported_by_tests()
    # the scans must see the quick tour and the imports, not nothing
    assert {"build_model", "lattice_homology", "classify"} <= readme
    assert {"build_model", "get_entry", "euler_characteristic"} <= bench
    assert {"build_model", "lattice_homology", "minimal_spectral_cycles"} <= tests
    missing = []
    for name in sorted(readme | bench | tests):
        try:
            exec(f"from latcurve import {name}", {})
        except ImportError:
            missing.append(name)
    assert not missing


def test_no_module_imports_a_private_name_from_a_sibling():
    """A decision two modules share (such as the cube-max tables of
    ``homology`` and ``spectral``) is public in one module."""
    package = ROOT / "src" / "latcurve"
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    private = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("latcurve")
            ):
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not private


def test_no_module_keeps_an_unused_import():
    """Every name a module imports is read in it, so a deletion takes
    its imports along.  ``__init__`` imports to re-export, and
    ``from __future__ import annotations`` binds no name."""
    package = ROOT / "src" / "latcurve"
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update(
                    (alias.asname or alias.name).split(".")[0]
                    for alias in node.names
                    if alias.name != "annotations"
                )
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert not unused
