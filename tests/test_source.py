"""Source-level guard: no check in the package relies on `assert`."""

import ast
from pathlib import Path

import scx


def test_no_assert_in_package():
    """`python -O` strips `assert`, so package checks must raise instead."""
    found = []
    for path in sorted(Path(scx.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
