"""Checks on the library source itself."""

import ast
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
