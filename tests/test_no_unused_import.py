"""Every module-level import in the package is used by its module.

``__init__.py`` is exempt: its imports are the package's re-exports, which
``__all__`` lists.
"""

import ast
from pathlib import Path

import superthick

PACKAGE = Path(superthick.__file__).resolve().parent


def unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in bound.items() if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse("import os\nfrom a import b as c, d\nfrom __future__ import x\nd()\n")
    assert unused_imports(tree) == [("c", 2), ("os", 1)]


def test_no_unused_module_level_import_in_package():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sources
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        for name, line in unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
