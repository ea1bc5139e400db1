"""Only a few named places compare a sheaf kind.

What a kind means is read from ``cech``'s frame table (character weight and
Bott form); the slots of a gluing map are laid out by the parity of their
degree, not by kind.  A comparison against a kind anywhere else would bring
back a per-kind branch.  The places that may compare are the transport
table, which builds genuinely different Jacobians per kind, the kind
validation and the slot-sheaf check.
"""

import ast
from pathlib import Path

import superthick

PACKAGE = Path(superthick.__file__).resolve().parent
KIND_NAMES = {"kind", "LINE_SUM", "TANGENT", "ONE_FORM"}
ALLOWED = {
    ("cech.py", "Cover.transport"),
    ("cech.py", "SheafSpec.__post_init__"),
    ("supermap.py", "_slot_sheaf_of"),
}


def names_kind(node: ast.AST) -> bool:
    """Whether an operand is a kind or a kind constant, or holds one."""
    return any((isinstance(sub, ast.Name) and sub.id in KIND_NAMES)
               or (isinstance(sub, ast.Attribute) and sub.attr in KIND_NAMES)
               for sub in ast.walk(node))


def kind_comparisons(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing function, line) of every comparison with a kind operand;
    the function is qualified by its class, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Compare) and any(
                    names_kind(x) for x in [child.left, *child.comparators]):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(tree, "")
    return sorted(found)


def test_kind_comparisons_are_found():
    tree = ast.parse(
        "class S:\n"
        "    def check(self):\n"
        "        return self.kind not in (LINE_SUM, cech.TANGENT)\n"
        "def f(spec, kind):\n"
        "    if kind == 'x' or spec.sheaf.kind != other:\n"
        "        return [k for k in ks if k is ONE_FORM]\n"
        "    return _FRAMES[spec.kind][0] == 1, spec.kindness == 2\n"
        "X = TANGENT == Y\n")
    assert kind_comparisons(tree) == [("", 8), ("S.check", 3), ("f", 5), ("f", 5), ("f", 6),
                                      ("f", 7)]


def test_only_the_named_places_compare_a_kind():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    found = [(path.name, scope, line)
             for path in sources
             for scope, line in kind_comparisons(ast.parse(path.read_text(), filename=str(path)))]
    assert [site for site in found if site[:2] not in ALLOWED] == []
    # each allowed place still compares, so the list names live code
    assert {site[:2] for site in found} == ALLOWED
    assert len(found) <= 4
