"""Every top-level function and class of the package, and every method of
its classes, has a caller.

A name is used when some ``ast.Name`` or ``ast.Attribute`` outside its own
definition refers to it, in ``src/mgdeform`` or in the benchmark's
``perfbench/*.py``.  Dunder methods are called by Python itself and are not
checked; a plug-in override point such as ``metric`` or ``chart`` passes
because the package calls it by name.  Code only the tests call belongs in
``tests/reference.py``.  This check reads names only; the statement-level
check, that traffic runs every statement of the package, is
``tests/test_traffic_trace.py``.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mgdeform").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _referenced(tree):
    """Names that the ``Name`` and ``Attribute`` nodes of ``tree`` refer to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


@pytest.fixture(scope="module")
def trees():
    assert PACKAGE, f"no package sources under {ROOT / 'src' / 'mgdeform'}"
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS}


@pytest.fixture(scope="module")
def uses(trees):
    return Counter(name for tree in trees.values() for name in _referenced(tree))


def _unused(defs, uses):
    """(label, node) pairs whose name nothing outside the node refers to."""
    return [label for label, node in defs
            if uses[node.name] == sum(1 for name in _referenced(node) if name == node.name)]


def test_every_top_level_definition_is_used(trees, uses):
    defs = [(f"{path.name}: {node.name}", node)
            for path in PACKAGE for node in trees[path].body
            if isinstance(node, DEFINITIONS)]
    unused = _unused(defs, uses)
    assert not unused, "defined but never used outside its definition: " + ", ".join(unused)


def test_every_method_is_used(trees, uses):
    defs = [(f"{path.name}: {cls.name}.{node.name}", node)
            for path in PACKAGE for cls in trees[path].body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, FUNCTIONS)
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    unused = _unused(defs, uses)
    assert not unused, "method never used outside its body: " + ", ".join(unused)
