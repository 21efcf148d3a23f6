"""Checks on the library source itself."""

import ast
import importlib
from pathlib import Path

import coalspec

SOURCE = Path(coalspec.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so a check in the library must raise
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
    assert len(list(SOURCE.glob("*.py"))) >= 10


def test_package_names_come_from_the_modules():
    # every public library module but the command line lends its __all__ to
    # the package, through the package's static name -> module table
    names = {"__version__"}
    for path in SOURCE.glob("*.py"):
        if not path.stem.startswith("_") and path.stem != "cli":
            module_names = importlib.import_module(f"coalspec.{path.stem}").__all__
            assert coalspec._EXPORTS[path.stem] == tuple(module_names)
            names |= set(module_names)
    assert set(coalspec.__all__) == names
    assert len(coalspec.__all__) == len(names)
    for name in coalspec.__all__:
        getattr(coalspec, name)
    assert {"lattice_cap", "ENV_N_CAP", "PartitionLattice"} <= names


def test_only_matrices_reads_exact_rows():
    # the stored row format is private to matrices: no other module reads
    # a matrix's rows or product rows, or names the empty-row constant
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "matrices.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ("_rows", "_product_rows")
                    or isinstance(node, ast.Name) and node.id == "_EMPTY"
                    or isinstance(node, ast.alias) and node.name == "_EMPTY"):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert found == []
