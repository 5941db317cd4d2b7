"""Every module-level function and class of ``sensesec``, and every method
and property of its classes, dunders aside, has a caller, every module-level
UPPER_CASE constant has a reader, every ``ScenarioConfig`` field has a
reader, and every module-level import is used by its own module.

A name counts as used when ``src/`` or ``perfbench/`` refers to it outside
its own definition: as a name, an attribute, or a string naming it (the
benchmark tracer wraps functions by name).  Imports alone do not count, and
neither does an attribute of a module bound by ``import X``: ``os.replace``
or ``np.sum`` does not call a method named ``replace`` or ``sum``.  Other
attributes count by bare name, so no method or property of the package may
share its name with an attribute of the arrays, containers and strings that
its code calls methods on (``m.copy()`` would count as a call of a ``copy``).
A field counts as read when ``src/`` or ``perfbench/`` refers to it as an
attribute outside the class body; the class's own validation does not count.
Tests do not count either; code that only tests reach goes, together with
those tests.  An import counts as used when its module names it in code; a
docstring that mentions it does not count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sensesec"

# name -> why it stays without a caller.
ALLOWED = {
    "psd_sqrt": "the metric tests compare the closed forms against it",
}

# ScenarioConfig field -> why nothing reads it.
UNREAD_FIELDS = {}

# Types of the values whose attributes src/ and perfbench/ reach by bare name.
VALUE_TYPES = (np.ndarray, list, dict, tuple, str, set)


def source_trees():
    """Parsed module of every Python file under ``src/`` and ``perfbench/``."""
    sources = sorted((ROOT / "src").rglob("*.py")) \
        + sorted((ROOT / "perfbench").rglob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sources}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(trees):
    """(name, node) of every module-level function and class of the package,
    and ("Class.name", node) of every method and property of its classes
    but the dunders, as nodes of ``trees``."""
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, FUNCTIONS)
                            and not member.name.startswith("__")):
                        yield f"{node.name}.{member.name}", member


def imported_modules(tree):
    """Names that ``import X`` or ``import X as Y`` binds anywhere in
    ``tree``; uncalled_names skips attributes of these names in every tree."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names}


def references(tree, modules):
    """How often ``tree`` refers to each name, leaving out the attributes
    of the names in ``modules``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def unreferenced(named_nodes, trees):
    """Names of the (name, node) pairs whose name ``trees`` refer to only
    inside the node itself."""
    modules = set().union(*map(imported_modules, trees.values()))
    total = sum((references(tree, modules) for tree in trees.values()),
                Counter())
    return {name for name, node in named_nodes
            if total[name.split(".")[-1]]
            == references(node, modules)[name.split(".")[-1]]}


def uncalled_names():
    """Definitions whose name no reference outside their own body names."""
    trees = source_trees()
    return unreferenced(definitions(trees), trees)


def test_every_definition_has_a_caller_or_a_stated_reason():
    unused = uncalled_names()
    assert unused - set(ALLOWED) == set()
    # An allowlisted name that gained a caller leaves the list.
    assert set(ALLOWED) <= unused


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def constants(trees):
    """(name, node) of every UPPER_CASE name that a module-level assignment
    of the package binds, the node being that assignment."""
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and CONSTANT.fullmatch(target.id)):
                    yield target.id, node


def test_every_module_constant_is_read():
    trees = source_trees()
    assert unreferenced(constants(trees), trees) == set()


def test_no_method_shares_a_name_with_a_value_attribute():
    shared = {name for name, node in definitions(source_trees())
              if "." in name
              and any(hasattr(kind, node.name) for kind in VALUE_TYPES)}
    assert shared == set()


def unread_fields():
    """Fields of ScenarioConfig that no attribute outside its body names."""
    trees = source_trees()
    (cls,) = [node for name, node in definitions(trees)
              if name == "ScenarioConfig"]
    fields = {stmt.target.id for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)}
    read = set()
    stack = list(trees.values())
    while stack:
        node = stack.pop()
        if node is cls:
            continue
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return fields - read


def test_every_scenario_field_is_read_or_has_a_stated_reason():
    unread = unread_fields()
    assert unread - set(UNREAD_FIELDS) == set()
    # An allowlisted field that gained a reader leaves the list.
    assert set(UNREAD_FIELDS) <= unread


def unused_imports():
    """(module, name) of every module-level import of the package that its
    own module never names outside the import, ``from __future__`` aside."""
    unused = set()
    for path, tree in source_trees().items():
        if path.parent != PACKAGE:
            continue
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {alias.asname or alias.name.split(".")[0]
                          for alias in node.names}
        named = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
        unused |= {(path.name, name) for name in bound - named}
    return unused


def test_every_module_import_is_used_by_its_module():
    assert unused_imports() == set()
