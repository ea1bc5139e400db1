"""Only the pipeline and the command line name the character window.

The cohomology engine lists every character that carries a class, finitely
many, and checks their count against the closed formula.  The window is a cap
on what a report may use: ``pipeline_obstructed_cp2`` applies it to the
engine's output and ``--window`` sets it.  An identifier naming it in any
other module would bring the cap back into the engine.
"""

import ast
from pathlib import Path

import superthick

PACKAGE = Path(superthick.__file__).resolve().parent
OWNERS = {"pipeline.py", "cli.py"}


def window_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(identifier, line) of every name, attribute, parameter, keyword,
    definition or import whose identifier contains "window"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.arg):
            names = [node.arg]
        elif isinstance(node, ast.keyword):
            names = [node.arg or ""]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.alias):
            names = [node.name.split(".")[-1], node.asname or ""]
        else:
            continue
        found.extend((name, node.lineno) for name in names if "window" in name.lower())
    return sorted(found)


def test_window_names_are_found():
    tree = ast.parse(
        "from .cli import DEFAULT_WINDOW as W\n"
        "def f(spec, window=1):\n"
        "    return g(spec, window=2), x._in_window\n"
        "def windowed_dims():\n"
        "    raise ValueError('empty window')\n")
    assert window_names(tree) == [
        ("DEFAULT_WINDOW", 1), ("_in_window", 3), ("window", 2), ("window", 3),
        ("windowed_dims", 4)]


def test_only_pipeline_and_cli_name_the_window():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name not in OWNERS)
    assert len(sources) >= 8
    found = [
        f"{path.name}:{line} {name}"
        for path in sources
        for name, line in window_names(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
