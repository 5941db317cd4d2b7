"""Every module-level function and class of ``sensesec`` has a caller.

A name counts as used when ``src/`` or ``perfbench/`` refers to it outside
its own definition: as a name, an attribute, or a string naming it (the
benchmark tracer wraps functions by name).  Imports alone do not count.
Tests do not count either; code that only tests reach goes, together with
those tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sensesec"

# name -> why it stays without a caller.
ALLOWED = {
    "psd_sqrt": "the metric tests compare the closed forms against it",
    "sensing_mi_with_an": "artificial-noise metric held for the AN design",
    "an_eve_covariance": "artificial-noise metric held for the AN design",
    "an_conditional_entropy": "artificial-noise metric held for the AN design",
    "an_eve_marginal_entropy": "artificial-noise metric held for the AN design",
    "an_eve_mi_bound": "artificial-noise metric held for the AN design",
}


def definitions():
    """(module path, definition node) of every module-level function and
    class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield path, node


def references(tree, skip):
    """Names that ``tree`` refers to, outside the node ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def uncalled_names():
    sources = sorted((ROOT / "src").rglob("*.py")) \
        + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sources}
    unused = set()
    for module, node in definitions():
        if not any(node.name in references(tree, node if path == module else None)
                   for path, tree in trees.items()):
            unused.add(node.name)
    return unused


def test_every_definition_has_a_caller_or_a_stated_reason():
    unused = uncalled_names()
    assert unused - set(ALLOWED) == set()
    # An allowlisted name that gained a caller leaves the list.
    assert set(ALLOWED) <= unused
