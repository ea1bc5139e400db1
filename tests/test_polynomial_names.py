"""Only the polynomial modules name the polynomial classes.

Every chart change and gluing map in the package is exponent arithmetic on
flat monomial data, so ``LaurentPoly``, ``ChartMap`` and ``GrassmannElement``
belong to ``laurent`` and ``exterior``, which define them.  A use
anywhere else, the package's ``__init__`` included, would bring polynomial
objects back onto the run path.
"""

import ast
from pathlib import Path

import superthick

PACKAGE = Path(superthick.__file__).resolve().parent
POLYNOMIAL = {"LaurentPoly", "ChartMap", "GrassmannElement"}
OWNERS = {"laurent.py", "exterior.py"}


def polynomial_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every name, attribute or import of a polynomial class."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.split(".")[-1]
        else:
            continue
        if name in POLYNOMIAL:
            found.append((name, node.lineno))
    return sorted(found)


def test_polynomial_names_are_found():
    tree = ast.parse(
        "from .laurent import ChartMap as C\nimport x\nx.LaurentPoly\nGrassmannElement()\n")
    assert polynomial_names(tree) == [("ChartMap", 1), ("GrassmannElement", 4), ("LaurentPoly", 3)]


def test_only_polynomial_modules_name_polynomial_classes():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name not in OWNERS)
    assert len(sources) >= 8
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        for name, line in polynomial_names(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
