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


# the library modules that lend the package their public names
LIBRARY = sorted(path.stem for path in SOURCE.glob("*.py")
                 if not path.stem.startswith("_") and path.stem != "cli")


def _module_tree(name: str) -> ast.Module:
    path = SOURCE / f"{name}.py"
    return ast.parse(path.read_text(), filename=str(path))


def test_listed_names_are_defined_in_their_modules():
    # _EXPORTS lists each public name once, under the module that defines it:
    # a class or function made there, or a constant assigned at its top level
    assert sorted(coalspec._EXPORTS) == LIBRARY
    names = {"__version__"}
    for name in LIBRARY:
        module = importlib.import_module(f"coalspec.{name}")
        assert module.__all__ == list(coalspec._EXPORTS[name])
        assigned = set()
        for node in _module_tree(name).body:
            if isinstance(node, ast.Assign):
                assigned |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                assigned.add(node.target.id)
        for public in coalspec._EXPORTS[name]:
            value = getattr(module, public)
            if callable(value):
                assert value.__module__ == module.__name__, (name, public)
            else:
                assert public in assigned, (name, public)
            assert public not in names, public
            names.add(public)
    assert set(coalspec.__all__) == names
    assert len(coalspec.__all__) == len(names)
    for name in coalspec.__all__:
        getattr(coalspec, name)
    assert {"lattice_cap", "ENV_N_CAP", "PartitionLattice"} <= names


def test_public_definitions_are_listed():
    # every top-level def or class of a library module whose name does not
    # start with "_" is in the module's entry
    missing = []
    for name in LIBRARY:
        for node in _module_tree(name).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in coalspec._EXPORTS[name]):
                missing.append(f"{name}.{node.name}")
    assert missing == []


def test_only_cli_lists_its_names_literally():
    # a module other than the command line takes its __all__ from _EXPORTS
    literal = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    and isinstance(node.value, (ast.List, ast.Tuple))
                    and all(isinstance(e, ast.Constant) for e in node.value.elts)):
                literal.append(path.name)
    assert literal == []


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
