"""Checks on the library's source itself."""

import ast
from pathlib import Path

import dpcolor

PACKAGE = Path(dpcolor.__file__).parent


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so every check must be an explicit raise
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
