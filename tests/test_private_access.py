"""No package module reads a private attribute of another package module.

A name with a leading underscore belongs to the module that defines it; a
module that needs it from elsewhere needs a public name, or the computation
belongs in the owner.  The check covers ``module._name`` reads through a
module imported by ``from . import m``, ``from superthick import m`` or
``import superthick.m``.  Private names imported with ``from .m import _name``
are not module attribute reads and are not covered here.
"""

import ast
from pathlib import Path

import superthick

PACKAGE = Path(superthick.__file__).resolve().parent


def package_modules(tree: ast.Module, modules: set) -> dict:
    """Local name -> package module, for every package module imported as a
    module object."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level == 1 and node.module is None) or node.module == "superthick":
                bound.update({a.asname or a.name: a.name for a in node.names if a.name in modules})
        elif isinstance(node, ast.Import):
            for a in node.names:
                head, _, name = a.name.partition(".")
                if head == "superthick" and name in modules and a.asname:
                    bound[a.asname] = name
    return bound


def private_reads(tree: ast.Module, modules: set) -> list[tuple[str, int]]:
    """(module._name, line) of every private attribute read off a package module."""
    bound = package_modules(tree, modules)
    return sorted(
        (f"{bound[node.value.id]}.{node.attr}", node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound and node.attr.startswith("_")
        and not node.attr.startswith("__")
    )


def test_private_reads_are_found():
    tree = ast.parse("from . import cech, bott as b\nimport superthick.linalg as la\n"
                     "cech._move(1)\nb.__doc__\nla._rows\ncech.represent\nother._x\n")
    assert private_reads(tree, {"cech", "bott", "linalg"}) == [("cech._move", 3),
                                                              ("linalg._rows", 5)]


def test_no_module_reads_another_modules_private_names():
    sources = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in sources} - {"__init__"}
    assert len(modules) >= 9
    found = [(path.name, *read) for path in sources
             for read in private_reads(ast.parse(path.read_text(), filename=str(path)), modules)]
    assert found == []
