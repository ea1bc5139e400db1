"""No package module reads a private attribute of another package module.

A name with a leading underscore belongs to the module that defines it; a
module that needs it from elsewhere needs a public name, or the computation
belongs in the owner.  The check covers ``module._name`` reads through a
module imported by ``from . import m``, ``from superthick import m`` or
``import superthick.m``, and private names imported with
``from .m import _name`` or ``from superthick.m import _name``.
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


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def imported_module(node: ast.ImportFrom, modules: set):
    """The package module of ``from .m import ...`` or ``from superthick.m
    import ...``, else None."""
    name = node.module or ""
    if node.level == 0:
        head, _, name = name.partition(".")
        if head != "superthick":
            return None
    elif node.level != 1:
        return None
    return name if name in modules else None


def private_reads(tree: ast.Module, modules: set) -> list[tuple[str, int]]:
    """(module._name, line) of every private attribute read off a package
    module and every private name imported from one."""
    bound = package_modules(tree, modules)
    reads = [
        (f"{bound[node.value.id]}.{node.attr}", node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in bound and is_private(node.attr)
    ]
    for node in ast.walk(tree):
        module = isinstance(node, ast.ImportFrom) and imported_module(node, modules)
        if module:
            reads += [(f"{module}.{a.name}", node.lineno) for a in node.names if is_private(a.name)]
    return sorted(reads)


def test_private_reads_are_found():
    tree = ast.parse("from . import cech, bott as b\nimport superthick.linalg as la\n"
                     "cech._move(1)\nb.__doc__\nla._rows\ncech.represent\nother._x\n")
    assert private_reads(tree, {"cech", "bott", "linalg"}) == [("cech._move", 3),
                                                              ("linalg._rows", 5)]


def test_private_imports_are_found():
    tree = ast.parse("from .laurent import coerce, _power\n"
                     "from superthick.cech import _move as move\n"
                     "from . import _version\nfrom .bott import __doc__\n"
                     "from other.cech import _x\nfrom ..cech import _y\n")
    assert private_reads(tree, {"cech", "bott", "laurent"}) == [("cech._move", 2),
                                                               ("laurent._power", 1)]


def test_no_module_reads_another_modules_private_names():
    sources = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in sources} - {"__init__"}
    assert len(modules) >= 9
    found = [(path.name, *read) for path in sources
             for read in private_reads(ast.parse(path.read_text(), filename=str(path)), modules)]
    assert found == []
