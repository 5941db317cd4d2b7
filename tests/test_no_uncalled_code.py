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

Every parameter with a default of a package function or method is set by at
least one call in ``src/`` or ``perfbench/`` of a function or method of its
name, by keyword or by position; a call with ``*args`` sets every positional
parameter and one with ``**kwargs`` every parameter.  A default that no call
overrides is a constant, and belongs in the function's body.
"""

import ast
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sensesec"

# name -> why it stays without a caller.
ALLOWED = {}

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


def defaulted_parameters(trees):
    """(name, parameter, position) of every parameter with a default of the
    package's functions and methods, position counting the positional
    parameters a call passes (self or cls aside), None for keyword-only."""
    for name, node in definitions(trees):
        if not isinstance(node, FUNCTIONS):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        if "." in name and not any(isinstance(dec, ast.Name)
                                   and dec.id == "staticmethod"
                                   for dec in node.decorator_list):
            positional = positional[1:]
        for i, arg in enumerate(positional):
            if i >= len(positional) - len(args.defaults):
                yield name, arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def call_settings(trees):
    """Bare callee name -> list of (positional count, keywords) of every call
    of that name; a count of inf stands for ``*args`` and a keyword None for
    ``**kwargs``."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute)
                      else None)
            count = (math.inf if any(isinstance(arg, ast.Starred)
                                     for arg in node.args)
                     else len(node.args))
            calls.setdefault(callee, []).append(
                (count, {kw.arg for kw in node.keywords}))
    return calls


def unset_defaults():
    """(name, parameter) of every defaulted parameter that no call sets."""
    trees = source_trees()
    calls = call_settings(trees)
    return {(name, param)
            for name, param, position in defaulted_parameters(trees)
            if not any(param in keywords or None in keywords
                       or (position is not None and count > position)
                       for count, keywords in calls.get(name.split(".")[-1],
                                                        []))}


def test_every_default_is_overridden_by_some_call():
    assert unset_defaults() == set()


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
