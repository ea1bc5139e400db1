"""Self-checks in the package raise AssertionError explicitly: ``python -O``
strips ``assert`` statements, and a stripped check certifies nothing."""

import ast
from pathlib import Path

import superthick

PACKAGE = Path(superthick.__file__).resolve().parent


def test_no_assert_statement_in_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
